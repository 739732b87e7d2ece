"""Per-layer tracing by wrapping the program's public calls.

Nothing in src/bridge is changed: `Tracer.install` replaces the functions
and methods each layer exposes (and the `subprocess` module the Python
sandbox launches interpreters through) with wrappers that record a span
per call and a few counts.  Spans carry the span that was open on the same
thread when they began, so a call made inside another (run_tests inside
vacuity_check) can be told apart.  Everything stays in memory until
`summary` is written out when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        # (name, parent name, start, end); list.append is atomic
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((name, parent, start, end))

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, owner, attr: str, name: str, after: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap each layer's public entry points in this process."""
        from bridge import gateway, lean, metrics, pipeline, prompts, proofs, pyexec

        # the pipeline imported these by name, so they are wrapped where it looks
        self.wrap(pipeline, "load_manifest", "corpus.load")
        self.wrap(pipeline, "extract_artifacts", "prompts.extract")
        self.wrap(
            gateway.ModelGateway,
            "complete_n",
            "gateway.complete_n",
            after=lambda records: self.count("gateway.samples", len(records)),
        )
        self.wrap(prompts.TemplateCatalog, "render", "prompts.render")
        self.wrap(prompts.TemplateCatalog, "render_retry", "prompts.retry")
        self.wrap(pyexec, "run_tests", "pyexec.tests")
        self.wrap(pyexec, "check_contracts", "pyexec.contracts")
        self.wrap(pyexec, "vacuity_check", "pyexec.vacuity")
        pyexec.subprocess = _CountingSubprocess(self, pyexec.subprocess)
        self.wrap(lean.LeanVerifier, "scaffold", "lean.scaffold")
        self.wrap(
            lean.LeanVerifier,
            "check",
            "lean.check",
            after=lambda outcome: self.count(
                "lean.verified", int(outcome.status is lean.VerifyStatus.VERIFIED)
            ),
        )
        self.wrap(proofs, "extract_theorems", "proofs.extract")
        self.wrap(proofs, "intersect", "proofs.intersect")
        self.wrap(metrics, "emit_report", "metrics.report")

    def summary(self) -> Dict[str, object]:
        return {"spans": self.spans, "counts": dict(self.counts)}


class _CountingSubprocess:
    """Stands in for the `subprocess` module inside bridge.pyexec."""

    def __init__(self, tracer: Tracer, real) -> None:
        self._tracer = tracer
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)

    def run(self, *args, **kwargs):
        self._tracer.count("pyexec.spawns")
        try:
            return self._real.run(*args, **kwargs)
        except self._real.TimeoutExpired:
            self._tracer.count("pyexec.timeouts")
            raise


# --- per-layer metrics -----------------------------------------------------------
# bench/README.md lists which end-to-end metric each should move, on which workload


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str


PER_LAYER = (
    LayerMetric("pyexec.tests_n", "count", "lower"),
    LayerMetric("pyexec.tests_s", "s", "lower"),
    LayerMetric("pyexec.tests_p50_ms", "ms", "lower"),
    LayerMetric("pyexec.contracts_n", "count", "lower"),
    LayerMetric("pyexec.contracts_s", "s", "lower"),
    LayerMetric("pyexec.vacuity_n", "count", "lower"),
    LayerMetric("pyexec.vacuity_s", "s", "lower"),
    LayerMetric("pyexec.spawns", "count", "lower"),
    LayerMetric("pyexec.timeouts", "count", "lower"),
    LayerMetric("lean.scaffold_n", "count", "lower"),
    LayerMetric("lean.scaffold_s", "s", "lower"),
    LayerMetric("lean.scaffold_p50_ms", "ms", "lower"),
    LayerMetric("lean.check_n", "count", "lower"),
    LayerMetric("lean.check_s", "s", "lower"),
    LayerMetric("lean.verified", "count", "higher"),
    LayerMetric("lean.verified_ratio", "ratio", "higher"),
    LayerMetric("lean.dirs_left", "count", "lower"),
    LayerMetric("gateway.requests", "count", "lower"),
    LayerMetric("gateway.samples", "count", "lower"),
    LayerMetric("gateway.busy_s", "s", "lower"),
    LayerMetric("prompts.render_n", "count", "lower"),
    LayerMetric("prompts.render_s", "s", "lower"),
    LayerMetric("prompts.retry_n", "count", "lower"),
    LayerMetric("prompts.retry_s", "s", "lower"),
    LayerMetric("prompts.extract_n", "count", "lower"),
    LayerMetric("prompts.extract_s", "s", "lower"),
    LayerMetric("proofs.extract_n", "count", "lower"),
    LayerMetric("proofs.extract_s", "s", "lower"),
    LayerMetric("proofs.intersect_s", "s", "lower"),
    LayerMetric("proofs.meta_docs", "count", "higher"),
    LayerMetric("metrics.rows", "count", "higher"),
    LayerMetric("metrics.report_s", "s", "lower"),
    LayerMetric("corpus.load_s", "s", "lower"),
    LayerMetric("pipeline.chains", "count", "higher"),
    LayerMetric("pipeline.rounds", "count", "lower"),
    LayerMetric("pipeline.rounds_per_chain", "ratio", "lower"),
    LayerMetric("trace.overhead_s", "s", "lower"),
)


def _durations(spans, name: str, skip_parent: Optional[str] = None) -> List[float]:
    return [
        end - start
        for span_name, parent, start, end in spans
        if span_name == name and (skip_parent is None or parent != skip_parent)
    ]


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def layer_metrics(summary: Dict[str, object]) -> Dict[str, float]:
    """Per-layer figures of one traced experiment (trace.overhead_s aside)."""
    spans = summary["spans"]
    counts = summary["counts"]
    # run_tests calls made by vacuity_check are part of vacuity's time
    tests = _durations(spans, "pyexec.tests", skip_parent="pyexec.vacuity")
    scaffolds = _durations(spans, "lean.scaffold")
    checks = _durations(spans, "lean.check")
    out = {
        "pyexec.tests_n": len(tests),
        "pyexec.tests_s": sum(tests),
        "pyexec.tests_p50_ms": _median_ms(tests),
        "lean.scaffold_n": len(scaffolds),
        "lean.scaffold_s": sum(scaffolds),
        "lean.scaffold_p50_ms": _median_ms(scaffolds),
        "lean.check_n": len(checks),
        "lean.check_s": sum(checks),
        "lean.verified": counts.get("lean.verified", 0),
        "lean.verified_ratio": counts.get("lean.verified", 0) / len(checks) if checks else 0.0,
        "gateway.samples": counts.get("gateway.samples", 0),
        "pyexec.spawns": counts.get("pyexec.spawns", 0),
        "pyexec.timeouts": counts.get("pyexec.timeouts", 0),
    }
    for metric, span in (
        ("pyexec.contracts", "pyexec.contracts"),
        ("pyexec.vacuity", "pyexec.vacuity"),
        ("prompts.render", "prompts.render"),
        ("prompts.retry", "prompts.retry"),
        ("prompts.extract", "prompts.extract"),
        ("proofs.extract", "proofs.extract"),
    ):
        values = _durations(spans, span)
        out[metric + "_n"] = len(values)
        out[metric + "_s"] = sum(values)
    requests = _durations(spans, "gateway.complete_n")
    out["gateway.requests"] = len(requests)
    out["gateway.busy_s"] = sum(requests)
    out["proofs.intersect_s"] = sum(_durations(spans, "proofs.intersect"))
    # the report is written several times per run; one write is the figure
    reports = _durations(spans, "metrics.report")
    out["metrics.report_s"] = statistics.median(reports) if reports else 0.0
    out["corpus.load_s"] = sum(_durations(spans, "corpus.load"))
    for name in ("lean.dirs_left", "proofs.meta_docs", "metrics.rows", "pipeline.chains", "pipeline.rounds"):
        out[name] = counts.get(name, 0)
    chains = out["pipeline.chains"]
    out["pipeline.rounds_per_chain"] = out["pipeline.rounds"] / chains if chains else 0.0
    return out


def tests_p95_ms(summaries: List[Dict[str, object]]) -> Optional[float]:
    """p95 of run_tests over pooled traced runs, when 200 or more samples exist."""
    pooled = [
        d for s in summaries for d in _durations(s["spans"], "pyexec.tests", "pyexec.vacuity")
    ]
    if len(pooled) < 200:
        return None
    return statistics.quantiles(pooled, n=20)[-1] * 1000.0
