"""Reporting: exact pass@k, token estimation, length and error statistics.

The report takes one pass over any iterable of chain records (the objects
written to chains.jsonl), holding running counts per (model, strategy)
rather than the records, so it stays import-independent from the pipeline
and its memory does not grow with the run. All rationals stay exact
internally; rounding to 4 decimal places happens only when report files are
written.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

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


class LengthStats(NamedTuple):
    """Mean completion lengths partitioned by chain outcome.

    A partition with no chains is absent (None), never reported as zero.
    """

    success_count: int
    failure_count: int
    success_avg_words: Optional[float]
    success_avg_tokens: Optional[float]
    failure_avg_words: Optional[float]
    failure_avg_tokens: Optional[float]


def _final_error_classes(chain: dict) -> List[str]:
    rounds = chain.get("rounds") or []
    if not rounds:
        return []
    outcome = rounds[-1].get("outcome")
    if not outcome:
        return []
    return list(outcome.get("error_classes", []))


class MetricRow(NamedTuple):
    """One report row per (model, strategy) within a run.

    lengths splits chains into Success and the rest (NoArtifact counts as a
    failure).  errors is the fraction of failed chains whose final round
    carries each error class, over the failed chains whose final outcome
    reports classes (Lean-backed chains); it is multi-label, so the fractions
    may sum past 1, and empty when no failure carries a class.
    """

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


def _mean_pass_at_k(counts: Sequence[Sequence[int]], k: int) -> Fraction:
    """The mean of pass_at_k(n, c, k) over (n, c) pairs, exactly, for k at
    most every n.

    The C(n-c, k) numerators are summed over the common denominator C(n, k)
    of each distinct n, so there is one Fraction per n, not per pair; it is
    the same rational as the mean of the per-pair values.
    """
    misses: Dict[int, int] = {}
    for n, c in counts:
        misses[n] = misses.get(n, 0) + comb(n - c, k)
    missed = sum((Fraction(m, comb(n, k)) for n, m in misses.items()), Fraction(0))
    return 1 - missed / len(counts)


class _Tally:
    """The running counts of one (model, strategy) row."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[int]] = {}  # problem -> [chains, successes]
        # [chains, words, tokens] of Success chains, and of the rest
        self.success = [0, 0, 0]
        self.failure = [0, 0, 0]
        self.carriers = 0  # failed chains whose final round names error classes
        self.errors: Dict[str, int] = {}
        self.completions = 0

    def add(self, chain: dict) -> None:
        succeeded = chain["final_status"] == "Success"
        counts = self.samples.get(chain["problem"])
        if counts is None:
            counts = self.samples[chain["problem"]] = [0, 0]
        counts[0] += 1
        counts[1] += succeeded
        words, tokens = chain_length(chain)
        part = self.success if succeeded else self.failure
        part[0] += 1
        part[1] += words
        part[2] += tokens
        self.completions += len(chain["rounds"])
        classes = () if succeeded else _final_error_classes(chain)
        if classes:
            self.carriers += 1
            for cls in set(classes):
                self.errors[cls] = self.errors.get(cls, 0) + 1

    def row(self, model: str, strategy: str, temperature: float,
            success_predicate: str, k_ladder: Sequence[int]) -> MetricRow:
        counts = list(self.samples.values())  # [n, c] per problem
        n = min(samples for samples, _ in counts)

        def avg(part: List[int], at: int) -> Optional[float]:
            return part[at] / part[0] if part[0] else None

        return MetricRow(
            model=model,
            strategy=strategy,
            temperature=temperature,
            success_predicate=success_predicate,
            problems=len(counts),
            chains=self.success[0] + self.failure[0],
            successes=self.success[0],
            n_samples=n,
            pass_at={k: _mean_pass_at_k(counts, k) for k in k_ladder if k <= n},
            lengths=LengthStats(self.success[0], self.failure[0], avg(self.success, 1),
                                avg(self.success, 2), avg(self.failure, 1), avg(self.failure, 2)),
            errors={cls: Fraction(m, self.carriers) for cls, m in self.errors.items()},
            total_completions=self.completions,
        )


def compute_rows(
    chains: Iterable[dict],
    temperature: float,
    success_predicate: str,
    k_ladder: Sequence[int] = DEFAULT_K_LADDER,
) -> List[MetricRow]:
    """Aggregate chain records into MetricRows, sorted by (model, strategy).

    One pass over any iterable: each chain is counted into its row and then
    dropped.  pass@k is computed per problem and macro-averaged across
    problems.  Ladder entries above the per-problem sample count are dropped.
    """
    tallies: Dict[Tuple[str, str], _Tally] = {}
    for chain in chains:
        key = (chain["model"], chain["strategy"])
        tally = tallies.get(key)
        if tally is None:
            tally = tallies[key] = _Tally()
        tally.add(chain)
    return [
        tallies[key].row(*key, temperature, success_predicate, k_ladder)
        for key in sorted(tallies)
    ]


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
    chains: Iterable[dict],
    config: dict,
    out_dir,
    k_ladder: Sequence[int] = DEFAULT_K_LADDER,
) -> Dict[str, str]:
    """Write rows.csv and curves.jsonl for one run. Byte-deterministic.

    `config` is the resolved run configuration (the manifest's `config`
    object); temperature and the success predicate come from it.  `chains`
    is read once, and out_dir is made only after it has all been read, so a
    reader that fails on a record leaves no directory behind.
    """
    temperature = float(config["decoding"]["temperature"])
    predicate = str(config.get("success", {}).get("lean", "compile+guards"))
    rows = compute_rows(chains, temperature, predicate, k_ladder)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

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
