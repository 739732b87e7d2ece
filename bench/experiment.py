"""One whole configured experiment, in the fresh process run.py starts.

    python3 bench/experiment.py CONFIG OUT [--trace] [--setup-only]

Times set-up (the first `import bridge` through `RunConfig.from_file` to a
constructed `Orchestrator`), `Orchestrator.run` and `write_report`, and
writes the figures to OUT as JSON.  The working directory is the runs root
and TMPDIR is private to this process; run.py creates both before it starts
the process and removes them after it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# the report is written, byte-identical, for at least this long and at
# least three times, and the median write is report_s
REPORT_SECONDS = 0.5


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """High-water resident set of this process image.

    ru_maxrss would also count the parent's pages that a vfork'ed child
    shares until exec, so VmHWM is read where the kernel provides it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    from bridge.pipeline import Orchestrator, RunConfig, write_report

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    orchestrator = Orchestrator(RunConfig.from_file(args.config))
    out = {"setup_s": time.perf_counter() - start}
    if not args.setup_only:
        cpu_before = _cpu_s()
        start = time.perf_counter()
        with tracer.span("pipeline.run") if tracer else nullcontext():
            result = orchestrator.run()
        out["run_s"] = time.perf_counter() - start
        out["cpu_s"] = _cpu_s() - cpu_before
        # Every timed write finds no report/, as the first `bridge report`
        # after `bridge run` does.  Rewriting the files in place would time
        # ext4's flush on close of a truncated file (auto_da_alloc) instead:
        # on the same spec-vacuity runs, report_s spread 0.24 across seeds
        # when rewritten and 0.13 when written fresh.
        report_times = []
        while len(report_times) < 3 or sum(report_times) < REPORT_SECONDS:
            shutil.rmtree(result.run_dir / "report", ignore_errors=True)
            start = time.perf_counter()
            write_report(result.run_dir)
            report_times.append(time.perf_counter() - start)
        out["report_s"] = statistics.median(report_times)
        out["peak_rss_mb"] = _peak_rss_mb()
        out["chains"] = len(result.chains)
        out["run_dir"] = str(result.run_dir.resolve())
        if tracer is not None:
            meta = result.run_dir / "meta"
            rows = (result.run_dir / "report" / "rows.csv").read_text(encoding="utf-8")
            tracer.count("pipeline.chains", len(result.chains))
            tracer.count("pipeline.rounds", sum(len(c["rounds"]) for c in result.chains))
            tracer.count("proofs.meta_docs", len(os.listdir(meta)) if meta.is_dir() else 0)
            tracer.count("metrics.rows", len(rows.splitlines()) - 1)
            tracer.count(
                "lean.dirs_left",
                sum(1 for name in os.listdir(tempfile.gettempdir()) if name.startswith("bridge-lean-")),
            )
            out["trace"] = tracer.summary()
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main()
