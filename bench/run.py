"""bridge benchmark: whole configured experiments, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --quick           # every workload, small, schema and checks
    python3 bench/run.py --write-manifest  # rewrite BENCHMARK.json from the definitions

Run from the repository root.  A run generates its workload's inputs from
the seed, then for about S seconds repeats the whole experiment, each time
in a fresh process with its own TMPDIR and runs root, and checks every
experiment's outputs (checks.py).  With --trace 0 the last line of output
is a JSON object holding the end-to-end metrics (medians over the run's
experiments); with --trace 1 it holds the per-layer metrics of traced
experiments that alternate with untraced ones.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import array
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import checks
import tracing
import workloads

ROOT = workloads.ROOT
BENCH = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"
MANIFEST = ROOT / "BENCHMARK.json"

RUN_SECONDS = 40
SETUP_PROBES = 2  # set-up-only processes before each untraced experiment
MIN_EXPERIMENTS = 2  # two experiments at least, so their outputs can be compared
DEADLINE_S = 160.0  # a run gives up, killing what it started, after this long
LEFTOVERS = WORK_ROOT / "leftovers"
LEFTOVER_MAX_DIRS = 1_000_000  # about 8.5 GB at two 4 KiB blocks per scaffold
LEFTOVER_MIN_FREE = 8 << 30


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("run_s", "s", "lower", 0.25),
    Metric("chains_per_s", "1/s", "higher", 0.25),
    Metric("report_s", "s", "lower", 0.25),
    Metric("cpu_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in tracing.PER_LAYER
        ],
    }


class BenchError(RuntimeError):
    pass


_FS_IOC_GETFLAGS = 0x80086601
_FS_IOC_SETFLAGS = 0x40086602
_FS_TOPDIR_FL = 0x00020000


def host_steal_s():
    """CPU time the hypervisor gave to others, summed over CPUs, if known."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def mark_top_dir(path: Path) -> None:
    """Ask ext2/3/4 to spread this directory's subdirectories over fresh groups.

    This is the flag `chattr +T` sets.  Each experiment directory then gets
    block groups no earlier file churn has touched, and creating files in it
    costs about the same every time; without it, the same 2,000
    scaffold-like creations took 0.07 to 1.1 s of system time.  Other
    filesystems refuse the flag, and nothing changes there.
    """
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        flags = array.array("i", [0])
        fcntl.ioctl(fd, _FS_IOC_GETFLAGS, flags, True)
        flags[0] |= _FS_TOPDIR_FL
        fcntl.ioctl(fd, _FS_IOC_SETFLAGS, flags)
    except OSError:
        pass
    finally:
        os.close(fd)


class Runner:
    """One benchmark run of one workload, in its own work directory."""

    def __init__(self, workload: workloads.Workload, seed: int, quick: bool, deadline: float):
        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.deadline = deadline
        WORK_ROOT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=WORK_ROOT))
        self.config_path: Path = Path()
        self.config: dict = {}
        self.reference = None
        self.deterministic = True
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self.counts: Dict[str, object] = {}
        self.steal_s = None

    def prepare(self) -> None:
        mark_top_dir(self.work)
        inputs = self.work / "inputs"
        inputs.mkdir()
        self.config_path = self.workload.generate(inputs, self.seed, self.quick)
        self.config = json.loads(self.config_path.read_text(encoding="utf-8"))
        self.child("warm-up", setup_only=True)  # bytecode and page caches

    def child(self, name: str, *, setup_only: bool = False, trace: bool = False) -> dict:
        """Run experiment.py in a fresh process with a private TMPDIR."""
        exp = self.work / name
        (exp / "tmp").mkdir(parents=True)
        out = exp / "result.json"
        argv = [sys.executable, str(BENCH / "experiment.py"), str(self.config_path), str(out)]
        if setup_only:
            argv.append("--setup-only")
        if trace:
            argv.append("--trace")
        env = dict(os.environ, TMPDIR=str(exp / "tmp"))
        proc = subprocess.Popen(argv, cwd=exp, env=env, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if code != 0:
            raise BenchError(f"{self.workload.name} {name} ended with {code}")
        result = json.loads(out.read_text(encoding="utf-8"))
        if not setup_only:
            self.check(Path(result["run_dir"]))
        return result

    def check(self, run_dir: Path) -> None:
        outcome = checks.check_run(run_dir, self.config)
        digest = checks.output_digest(run_dir)
        if self.reference is None:
            self.reference = digest
        if digest != self.reference:
            self.deterministic = False
            self.reasons.append("chains.jsonl or report/ differs from the first experiment")
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.reasons.extend(outcome.reasons)

    def measure(self, seconds: float, trace: bool) -> Dict[str, float]:
        steal = host_steal_s()
        start = time.monotonic()
        setups: List[float] = []
        plain: List[dict] = []
        traced: List[dict] = []
        lengths: List[float] = []
        while True:
            count = len(plain) + len(traced)
            expected_end = time.monotonic() - start + (statistics.median(lengths) if lengths else 0)
            if count >= MIN_EXPERIMENTS and (traced or not trace) and expected_end > seconds:
                break
            with_trace = trace and len(traced) < len(plain)
            began = time.monotonic()
            if not trace:
                for i in range(SETUP_PROBES):
                    setups.append(self.child(f"setup-{count}-{i}", setup_only=True)["setup_s"])
            result = self.child(f"exp-{count}", trace=with_trace)
            lengths.append(time.monotonic() - began)
            (traced if with_trace else plain).append(result)
        if steal is not None:
            # time the host ran something else on this machine's CPUs
            self.steal_s = host_steal_s() - steal
        if trace:
            return self.layer_metrics(plain, traced)
        setups += [r["setup_s"] for r in plain]
        self.counts = {
            "experiments": len(plain),
            "run_s each": " ".join(f"{r['run_s']:.3f}" for r in plain),
            "setup samples": len(setups),
        }
        median = lambda key: statistics.median(r[key] for r in plain)  # noqa: E731
        return {
            "setup_s": statistics.median(setups),
            "run_s": median("run_s"),
            "chains_per_s": statistics.median(r["chains"] / r["run_s"] for r in plain),
            "report_s": median("report_s"),
            "cpu_s": median("cpu_s"),
            "peak_rss_mb": median("peak_rss_mb"),
        }

    def layer_metrics(self, plain: List[dict], traced: List[dict]) -> Dict[str, float]:
        self.counts = {"untraced experiments": len(plain), "traced experiments": len(traced)}
        per_run = [tracing.layer_metrics(r["trace"]) for r in traced]
        out = {
            m.name: statistics.median(r[m.name] for r in per_run)
            for m in tracing.PER_LAYER
            if m.name != "trace.overhead_s"
        }
        out["trace.overhead_s"] = statistics.median(r["run_s"] for r in traced) - statistics.median(
            r["run_s"] for r in plain
        )
        p95 = tracing.tests_p95_ms([r["trace"] for r in traced])
        if p95 is not None:
            self.counts["pyexec.tests_p95_ms (pooled)"] = round(p95, 3)
        return out

    def cleanup(self) -> None:
        """Remove the run's files, keeping the scaffolds the program leaked.

        Nothing is removed until every experiment is done, and the leaked
        `bridge-lean-*` directories are moved aside rather than deleted
        (see `prune_leftovers`).
        """
        kept = LEFTOVERS / self.work.name
        for tmp in sorted(self.work.glob("*/tmp")):
            if any(True for _ in os.scandir(tmp)):
                kept.mkdir(parents=True, exist_ok=True)
                tmp.rename(kept / tmp.parent.name)
        shutil.rmtree(self.work, ignore_errors=True)
        prune_leftovers()


def prune_leftovers() -> None:
    """Delete the oldest leaked scaffolds once there are too many.

    On ext4 (mounted with `discard` where this was measured), deleting tens
    of thousands of small directories makes file creation slower for
    minutes afterwards.  Back-to-back `lean-replay` runs that each deleted
    their ~25,000 scaffolds slowed from 3.4 s to over 6 s per experiment;
    keeping them, as a user's TMPDIR does, left 59 experiments in a row at
    2.7-3.9 s.  So leftovers are deleted in bulk and rarely: once they pass
    LEFTOVER_MAX_DIRS entries or free disk space falls below
    LEFTOVER_MIN_FREE, the oldest go until half that many entries remain.
    """
    if not LEFTOVERS.is_dir():
        return
    runs = sorted(LEFTOVERS.iterdir(), key=lambda p: p.stat().st_mtime)
    sizes = [sum(len(os.listdir(exp)) for exp in run.iterdir()) for run in runs]
    if sum(sizes) <= LEFTOVER_MAX_DIRS and shutil.disk_usage(LEFTOVERS).free >= LEFTOVER_MIN_FREE:
        return
    while runs and (
        sum(sizes) > LEFTOVER_MAX_DIRS // 2 or shutil.disk_usage(LEFTOVERS).free < LEFTOVER_MIN_FREE
    ):
        shutil.rmtree(runs.pop(0), ignore_errors=True)
        sizes.pop(0)


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    runner = Runner(workloads.BY_NAME[name], seed, quick, time.monotonic() + DEADLINE_S)
    try:
        runner.prepare()
        values = runner.measure(seconds, trace)
    finally:
        runner.cleanup()
    units = {m.name: m.unit for m in (tracing.PER_LAYER if trace else END_TO_END)}
    for metric, value in values.items():
        print(f"{name:13} {metric:28} {value:14.6f} {units[metric]}")
    for label, value in runner.counts.items():
        print(f"{name:13} {label:28} {value}")
    if runner.steal_s is not None:
        print(f"{name:13} {'host steal while measuring':28} {runner.steal_s:.2f} s")
    for reason in runner.reasons[:5]:
        print(f"{name:13} check failed: {reason}")
    return {
        "correct": runner.deterministic,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def schema_errors(result: dict, trace: bool) -> List[str]:
    names = [m.name for m in (tracing.PER_LAYER if trace else END_TO_END)]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(result)}")
    if result["correct"] is not True:
        errors.append("experiments of one run wrote different bytes")
    if list(result["metrics"]) != names:
        errors.append(f"metrics {sorted(set(result['metrics']) ^ set(names))}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("attempted is not a positive integer")
    if result["failed"] != 0:
        errors.append(f"{result['failed']} of {result['attempted']} operations failed")
    if not trace and any(v["value"] <= 0 for v in result["metrics"].values()):
        errors.append("an end-to-end metric is not positive")
    return errors


def quick(seed: int) -> int:
    errors = []
    committed = json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists() else None
    if committed != manifest():
        errors.append("BENCHMARK.json differs from the definitions; run --write-manifest")
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload.name, seed, 0, trace, quick=True)
            errors += [f"{workload.name} trace={int(trace)}: {e}" for e in schema_errors(result, trace)]
    for error in errors:
        print("quick check failed:", error)
    print("quick check passed" if not errors else "quick check FAILED")
    return 1 if errors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args()
    # a terminated run still kills its experiment and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.write_manifest:
        MANIFEST.write_text(json.dumps(manifest(), indent=2) + "\n", encoding="utf-8")
        return 0
    missing = [str(p.relative_to(ROOT)) for p in workloads.REQUIRED if not p.exists()]
    if missing:
        print(f"cannot benchmark: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    try:
        if args.quick:
            return quick(args.seed)
        names = [w.name for w in workloads.WORKLOADS] if args.workload == "all" else [args.workload]
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
