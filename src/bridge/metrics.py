"""Reporting: exact pass@k, token estimation, length and error statistics.

This module consumes serialized chain records (the objects written to
chains.jsonl), so it stays import-independent from the pipeline. All
rationals stay exact internally; rounding to 4 decimal places happens only
when report files are written.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .lean import ErrorClass

# one rows.csv column per class the Lean classifier can report, in its order
ERROR_CLASSES = tuple(cls.value for cls in ErrorClass)

DEFAULT_K_LADDER = (1, 5, 16, 64, 128)

# Words-to-tokens ratio fitted on observed completion lengths.
_TOKENS_PER_WORD_MILLI = 1383


def pass_at_k(n: int, c: int, k: int) -> Fraction:
    """Probability that at least one of k drawn samples (without
    replacement, out of n with c successes) succeeds.

    Computed exactly as 1 - C(n-c, k) / C(n, k). Returns a Fraction.
    """
    if n < 0 or c < 0 or c > n:
        raise ValueError(f"need 0 <= c <= n, got n={n} c={c}")
    if k <= 0:
        raise ValueError(f"k must be positive, got k={k}")
    if k > n:
        raise ValueError(f"k={k} exceeds sample count n={n}")
    return 1 - Fraction(comb(n - c, k), comb(n, k))


def estimate_tokens(words: int) -> int:
    """Estimate token count from whitespace word count.

    Integer arithmetic (round half up) so results never wobble with float
    representation.
    """
    if words < 0:
        raise ValueError(f"word count must be non-negative, got {words}")
    return (words * _TOKENS_PER_WORD_MILLI + 500) // 1000


def chain_length(chain: dict) -> Tuple[int, int]:
    """Total (words, tokens) across every round of a chain record."""
    words = sum(r.get("words", 0) for r in chain["rounds"])
    tokens = sum(r.get("tokens", 0) for r in chain["rounds"])
    return words, tokens


@dataclass(frozen=True)
class LengthStats:
    """Mean completion lengths partitioned by chain outcome.

    A partition with no chains is absent (None), never reported as zero.
    """

    success_count: int
    failure_count: int
    success_avg_words: Optional[float]
    success_avg_tokens: Optional[float]
    failure_avg_words: Optional[float]
    failure_avg_tokens: Optional[float]


def length_stats(chains: Sequence[dict]) -> LengthStats:
    """Average chain lengths split into Success and non-Success chains."""
    succ: List[Tuple[int, int]] = []
    fail: List[Tuple[int, int]] = []
    for chain in chains:
        bucket = succ if chain["final_status"] == "Success" else fail
        bucket.append(chain_length(chain))

    def avg(pairs: List[Tuple[int, int]], idx: int) -> Optional[float]:
        if not pairs:
            return None
        return sum(p[idx] for p in pairs) / len(pairs)

    return LengthStats(
        success_count=len(succ),
        failure_count=len(fail),
        success_avg_words=avg(succ, 0),
        success_avg_tokens=avg(succ, 1),
        failure_avg_words=avg(fail, 0),
        failure_avg_tokens=avg(fail, 1),
    )


def _final_error_classes(chain: dict) -> List[str]:
    rounds = chain.get("rounds") or []
    if not rounds:
        return []
    outcome = rounds[-1].get("outcome")
    if not outcome:
        return []
    return list(outcome.get("error_classes", []))


def error_distribution(chains: Sequence[dict]) -> Dict[str, Fraction]:
    """Fraction of failed chains whose final round carries each error class.

    Multi-label: a chain counts once per class it carries, so the fractions
    may sum past 1. Only chains whose final outcome reports error classes
    participate (Lean-backed chains); with no such failures the result is
    empty.
    """
    failed = [c for c in chains if c["final_status"] != "Success"]
    carriers = [c for c in failed if _final_error_classes(c)]
    if not carriers:
        return {}
    counts: Dict[str, int] = {}
    for chain in carriers:
        for cls in set(_final_error_classes(chain)):
            counts[cls] = counts.get(cls, 0) + 1
    return {cls: Fraction(n, len(carriers)) for cls, n in counts.items()}


@dataclass(frozen=True)
class MetricRow:
    """One report row per (model, strategy) within a run."""

    model: str
    strategy: str
    temperature: float
    success_predicate: str
    problems: int
    chains: int
    successes: int
    n_samples: int
    pass_at: Dict[int, Fraction]
    lengths: LengthStats
    errors: Dict[str, Fraction]
    total_completions: int


def _group_key(chain: dict) -> Tuple[str, str]:
    return (chain["model"], chain["strategy"])


def compute_rows(
    chains: Sequence[dict],
    temperature: float,
    success_predicate: str,
    k_ladder: Sequence[int] = DEFAULT_K_LADDER,
) -> List[MetricRow]:
    """Aggregate chain records into MetricRows.

    pass@k is computed per problem and macro-averaged across problems.
    Ladder entries above the per-problem sample count are dropped.
    """
    groups: Dict[Tuple[str, str], List[dict]] = {}
    for chain in chains:
        groups.setdefault(_group_key(chain), []).append(chain)
    rows = []
    for (model, strategy) in sorted(groups):
        members = groups[(model, strategy)]
        by_problem: Dict[str, List[dict]] = {}
        for chain in members:
            by_problem.setdefault(chain["problem"], []).append(chain)
        n = min(len(v) for v in by_problem.values())
        ks = [k for k in k_ladder if k <= n]
        pass_at: Dict[int, Fraction] = {}
        for k in ks:
            values = []
            for problem_chains in by_problem.values():
                n_p = len(problem_chains)
                c_p = sum(
                    1 for c in problem_chains if c["final_status"] == "Success"
                )
                values.append(pass_at_k(n_p, c_p, k))
            pass_at[k] = sum(values, Fraction(0)) / len(values)
        rows.append(
            MetricRow(
                model=model,
                strategy=strategy,
                temperature=temperature,
                success_predicate=success_predicate,
                problems=len(by_problem),
                chains=len(members),
                successes=sum(
                    1 for c in members if c["final_status"] == "Success"
                ),
                n_samples=n,
                pass_at=pass_at,
                lengths=length_stats(members),
                errors=error_distribution(members),
                total_completions=sum(len(c["rounds"]) for c in members),
            )
        )
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{float(value):.4f}"


def _row_header(k_ladder: Sequence[int]) -> List[str]:
    """The rows.csv column names, with one pass@k column per ladder step."""
    return (
        ["model", "strategy", "temperature", "success_predicate"]
        + ["problems", "chains", "successes"]
        + [f"pass@{k}" for k in k_ladder]
        + ["success_avg_words", "success_avg_tokens"]
        + ["failure_avg_words", "failure_avg_tokens"]
        + [f"err_{c}" for c in ERROR_CLASSES]
    )


def _row_to_csv(row: MetricRow, k_ladder: Sequence[int]) -> List[str]:
    cells = [
        row.model,
        row.strategy,
        f"{row.temperature:g}",
        row.success_predicate,
        str(row.problems),
        str(row.chains),
        str(row.successes),
    ]
    for k in k_ladder:
        cells.append(_fmt(row.pass_at.get(k)))
    cells.extend(
        [
            _fmt(row.lengths.success_avg_words),
            _fmt(row.lengths.success_avg_tokens),
            _fmt(row.lengths.failure_avg_words),
            _fmt(row.lengths.failure_avg_tokens),
        ]
    )
    for cls in ERROR_CLASSES:
        cells.append(_fmt(row.errors.get(cls)) if row.errors else "")
    return cells


def emit_report(
    chains: Sequence[dict],
    config: dict,
    out_dir,
    k_ladder: Sequence[int] = DEFAULT_K_LADDER,
) -> Dict[str, str]:
    """Write rows.csv and curves.jsonl for one run. Byte-deterministic.

    `config` is the resolved run configuration (the manifest's `config`
    object); temperature and the success predicate come from it.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    temperature = float(config["decoding"]["temperature"])
    predicate = str(config.get("success", {}).get("lean", "compile+guards"))
    rows = compute_rows(chains, temperature, predicate, k_ladder)

    rows_path = out_dir / "rows.csv"
    with open(rows_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_row_header(k_ladder))
        for row in rows:
            writer.writerow(_row_to_csv(row, k_ladder))

    curves_path = out_dir / "curves.jsonl"
    lines = []
    for row in rows:
        points = [
            {"k": k, "pass_at_k": round(float(v), 4)}
            for k, v in sorted(row.pass_at.items())
        ]
        lines.append(
            json.dumps(
                {
                    "model": row.model,
                    "strategy": row.strategy,
                    "temperature": row.temperature,
                    "success_predicate": row.success_predicate,
                    "budget_initial_samples": row.chains,
                    "budget_total_completions": row.total_completions,
                    "points": points,
                },
                sort_keys=True,
                separators=(",", ":"),
                ensure_ascii=False,
            )
        )
    curves_path.write_text(
        "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
    )
    return {"rows": str(rows_path), "curves": str(curves_path)}
