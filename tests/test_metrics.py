import csv
import io
import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from bridge import metrics, pipeline


def exhaustive_pass_at_k(n, c, k):
    """Oracle: enumerate every k-subset and count those containing a success."""
    successes = set(range(c))
    hits = 0
    total = 0
    for combo in itertools.combinations(range(n), k):
        total += 1
        if successes & set(combo):
            hits += 1
    return Fraction(hits, total)


CONFIG = {
    "decoding": {"temperature": 0.7},
    "success": {"lean": "compile+guards"},
}


class TestPassAtK:
    def test_matches_exhaustive_enumeration(self):
        for n in range(1, 11):
            for c in range(0, n + 1):
                for k in range(1, n + 1):
                    got = metrics.pass_at_k(n, c, k)
                    want = exhaustive_pass_at_k(n, c, k)
                    assert got == want, f"n={n} c={c} k={k}: {got} != {want}"

    def test_degenerate_cases(self):
        assert metrics.pass_at_k(10, 0, 5) == 0
        assert metrics.pass_at_k(10, 10, 1) == 1
        assert metrics.pass_at_k(5, 5, 5) == 1

    def test_exact_rational_no_fp_drift(self):
        # 1 - C(199,100)/C(200,100) = 1/2 exactly; binomials here overflow
        # doubles, so only exact arithmetic lands on 1/2
        assert metrics.pass_at_k(200, 1, 100) == Fraction(1, 2)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            metrics.pass_at_k(5, 6, 1)
        with pytest.raises(ValueError):
            metrics.pass_at_k(5, 2, 0)
        with pytest.raises(ValueError):
            metrics.pass_at_k(3, 1, 10)


class TestTokenEstimate:
    FROZEN = [
        (195, 270),
        (402, 555),
        (382, 526),
        (387, 534),
        (390, 538),
        (408, 563),
    ]

    def test_frozen_pairs_within_tolerance(self):
        for words, expected in self.FROZEN:
            got = metrics.estimate_tokens(words)
            assert abs(got - expected) <= 0.05 * expected, (
                f"{words} words -> {got} tokens, expected about {expected}"
            )

    def test_monotone_nonnegative(self):
        prev = -1
        for w in range(0, 2000, 37):
            t = metrics.estimate_tokens(w)
            assert t >= prev
            prev = t

    def test_zero_words(self):
        assert metrics.estimate_tokens(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            metrics.estimate_tokens(-1)


def make_chain(problem, strategy, model, sample, status, rounds):
    """rounds: list of (words, tokens, error_classes_or_None)."""
    robj = []
    for i, (words, tokens, classes) in enumerate(rounds, start=1):
        outcome = None
        if classes is not None:
            outcome = {
                "type": "lean",
                "status": "Verified" if not classes else "CompileFailed",
                "error_classes": classes,
                "sorry_count": 0,
            }
        robj.append(
            {
                "round": i,
                "prompt_digest": "0" * 64,
                "completion": {"text": "x", "reported_tokens": None, "latency": None},
                "artifact": None,
                "words": words,
                "tokens": tokens,
                "outcome": outcome,
            }
        )
    return {
        "problem": problem,
        "strategy": strategy,
        "model": model,
        "sample_index": sample,
        "final_status": status,
        "rounds": robj,
    }


def only_row(chains, k_ladder=(1,)):
    rows = metrics.compute_rows(chains, 0.7, "compile+guards", k_ladder=k_ladder)
    assert len(rows) == 1
    return rows[0]


class TestChainStats:
    def test_chain_length_sums_rounds(self):
        ch = make_chain("p", "code/direct", "m", 0, "Success",
                        [(100, 138, []), (50, 69, [])])
        assert metrics.chain_length(ch) == (150, 207)

    def test_length_stats_partitions(self):
        chains = [
            make_chain("p", "code/direct", "m", 0, "Success", [(100, 138, [])]),
            make_chain("p", "code/direct", "m", 1, "Success", [(300, 414, [])]),
            make_chain("p", "code/direct", "m", 2, "Failure", [(500, 690, ["Type"])]),
        ]
        stats = only_row(chains).lengths
        assert stats.success_count == 2 and stats.failure_count == 1
        assert stats.success_avg_words == 200.0
        assert stats.success_avg_tokens == 276.0
        assert stats.failure_avg_words == 500.0

    def test_empty_partition_is_none(self):
        chains = [
            make_chain("p", "code/direct", "m", 0, "Success", [(100, 138, [])]),
        ]
        stats = only_row(chains).lengths
        assert stats.failure_avg_words is None
        assert stats.failure_avg_tokens is None
        assert stats.failure_count == 0

    def test_no_artifact_counts_as_failure(self):
        chains = [
            make_chain("p", "code/direct", "m", 0, "NoArtifact", [(80, 110, None)]),
        ]
        stats = only_row(chains).lengths
        assert stats.failure_count == 1
        assert stats.failure_avg_words == 80.0


class TestErrorDistribution:
    def test_final_round_only_and_multilabel(self):
        chains = [
            # round-1 Syntax must not count; final round carries Type+Termination
            make_chain("p", "code/direct", "m", 0, "Failure",
                       [(10, 14, ["Syntax"]), (10, 14, ["Type", "Termination"])]),
            make_chain("p", "code/direct", "m", 1, "Failure",
                       [(10, 14, ["Type"])]),
            make_chain("p", "code/direct", "m", 2, "Success",
                       [(10, 14, [])]),
            make_chain("p", "code/direct", "m", 3, "NoArtifact", []),
        ]
        dist = only_row(chains).errors
        # denominator is failed chains whose final outcome reports classes (2)
        assert dist["Type"] == 1
        assert dist["Termination"] == Fraction(1, 2)
        assert "Syntax" not in dist

    def test_empty(self):
        assert metrics.compute_rows([], 0.7, "compile+guards") == []

    def test_no_carriers(self):
        chains = [make_chain("p", "s", "m", 0, "NoArtifact", [])]
        assert only_row(chains).errors == {}


class TestComputeRows:
    def test_macro_average_across_problems(self):
        chains = []
        # p1: 2/4 succeed; p2: 4/4 succeed -> pass@1 = (0.5 + 1.0) / 2
        for s in range(4):
            chains.append(make_chain("p1", "code/direct", "m", s,
                                     "Success" if s < 2 else "Failure",
                                     [(10, 14, [] if s < 2 else ["Type"])]))
            chains.append(make_chain("p2", "code/direct", "m", s, "Success",
                                     [(10, 14, [])]))
        rows = metrics.compute_rows(chains, 0.7, "compile+guards", k_ladder=[1, 4])
        assert len(rows) == 1
        row = rows[0]
        assert row.problems == 2 and row.chains == 8 and row.successes == 6
        assert row.pass_at[1] == Fraction(3, 4)
        assert row.pass_at[4] == 1

    def test_groups_sorted_by_model_then_strategy(self):
        chains = [
            make_chain("p", "spec/direct", "zeta", 0, "Success", [(1, 1, None)]),
            make_chain("p", "code/direct", "zeta", 0, "Success", [(1, 1, None)]),
            make_chain("p", "code/direct", "alpha", 0, "Success", [(1, 1, None)]),
        ]
        rows = metrics.compute_rows(chains, 0.7, "compile+guards", k_ladder=[1])
        keys = [(r.model, r.strategy) for r in rows]
        assert keys == sorted(keys)

    def test_ladder_above_n_dropped(self):
        chains = [make_chain("p", "code/direct", "m", s, "Success", [(1, 1, None)])
                  for s in range(3)]
        rows = metrics.compute_rows(chains, 0.7, "compile+guards", k_ladder=[1, 5])
        assert 5 not in rows[0].pass_at
        assert rows[0].pass_at[1] == 1


class TestStreaming:
    def chains(self):
        rng = random.Random(7)
        return [
            make_chain(f"p{p}", strategy, model, s,
                       rng.choice(["Success", "Failure", "NoArtifact"]),
                       [(rng.randrange(200), rng.randrange(300),
                         rng.choice([None, [], ["Type"], ["Syntax", "Type"]]))
                        for _ in range(rng.randrange(4))])
            for model in ("m1", "m2")
            for strategy in ("code/direct", "proof/direct")
            for p in range(3)
            for s in range(rng.randrange(1, 6))
        ]

    def test_generator_equals_list(self):
        chains = self.chains()
        assert metrics.compute_rows((c for c in chains), 0.7, "x", k_ladder=[1, 2, 5]) \
            == metrics.compute_rows(chains, 0.7, "x", k_ladder=[1, 2, 5])

    def test_report_memory_is_bounded_by_a_cell(self, tmp_path):
        # ~10 MB of chains.jsonl in 1,250 cells of 4 samples, two distinct
        # texts per cell: the report holds one cell and the row counts
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text(
            json.dumps({"config": CONFIG}), encoding="utf-8")
        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        with open(run_dir / "chains.jsonl", "w", encoding="utf-8") as fh:
            for p in range(1250):
                for s in range(4):
                    chain = make_chain(f"p{p:04d}", "code/direct", "m", s,
                                       "Success" if s % 2 else "Failure",
                                       [(10, 14, ["Type"])])
                    chain["rounds"][0]["completion"]["text"] = f"{p}:{s % 2}:" + "w " * 900
                    fh.write(encode(chain) + "\n")
        size = (run_dir / "chains.jsonl").stat().st_size
        assert size > 9_000_000
        tracemalloc.start()
        try:
            pipeline.write_report(run_dir)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size / 20, f"peak {peak} bytes for a {size}-byte file"
        row = metrics.compute_rows(
            pipeline._read_chains(run_dir / "chains.jsonl"), 0.7, "x", k_ladder=[1])[0]
        assert (row.problems, row.chains, row.successes) == (1250, 5000, 2500)

    def test_pass_at_is_the_exact_mean_of_pass_at_k(self):
        rng = random.Random(11)
        for _ in range(40):
            # unequal sample counts per problem, as a ragged run has
            counts = []
            for _ in range(rng.randrange(1, 6)):
                n = rng.randrange(1, 12)
                counts.append((n, rng.randrange(n + 1)))
            chains = [
                make_chain(f"p{i}", "code/direct", "m", s,
                           "Success" if s < c else "Failure", [])
                for i, (n, c) in enumerate(counts)
                for s in range(n)
            ]
            ladder = list(range(1, 13))
            row = only_row(chains, k_ladder=ladder)
            least = min(n for n, _ in counts)
            assert sorted(row.pass_at) == list(range(1, least + 1))
            for k, value in row.pass_at.items():
                want = sum((metrics.pass_at_k(n, c, k) for n, c in counts),
                           Fraction(0)) / len(counts)
                assert isinstance(value, Fraction) and value == want, (counts, k)


class TestReport:
    def build_chains(self):
        chains = []
        for sample in range(5):
            status = "Success" if sample < 2 else "Failure"
            classes = [] if status == "Success" else ["Termination"]
            chains.append(
                make_chain("p1", "code/direct", "mock-a", sample, status,
                           [(100 + sample, 138 + sample, classes)])
            )
        return chains

    def read_rows(self, outdir):
        text = (outdir / "rows.csv").read_text(encoding="utf-8")
        return list(csv.DictReader(io.StringIO(text)))

    def test_rows_and_curves(self, tmp_path):
        outdir = tmp_path / "report"
        metrics.emit_report(self.build_chains(), CONFIG, outdir, k_ladder=[1, 5])
        rows = self.read_rows(outdir)
        assert len(rows) == 1
        row = rows[0]
        assert row["model"] == "mock-a"
        assert row["strategy"] == "code/direct"
        assert row["chains"] == "5" and row["successes"] == "2"
        assert row["temperature"] == "0.7"
        assert row["success_predicate"] == "compile+guards"
        assert row["pass@1"] == "0.4000"
        assert row["pass@5"] == "1.0000"
        assert row["err_Termination"] == "1.0000"
        curves = [json.loads(line) for line in
                  (outdir / "curves.jsonl").read_text(encoding="utf-8").splitlines()]
        assert len(curves) == 1
        assert [p["k"] for p in curves[0]["points"]] == [1, 5]
        assert curves[0]["points"][0]["pass_at_k"] == 0.4

    def test_deterministic_bytes(self, tmp_path):
        chains = self.build_chains()
        a = tmp_path / "a"
        b = tmp_path / "b"
        metrics.emit_report(chains, CONFIG, a, k_ladder=[1, 5])
        metrics.emit_report(list(reversed(chains)), CONFIG, b, k_ladder=[1, 5])
        for name in ("rows.csv", "curves.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_ladder_above_n_leaves_cell_empty(self, tmp_path):
        outdir = tmp_path / "capped"
        metrics.emit_report(self.build_chains(), CONFIG, outdir,
                            k_ladder=[1, 5, 100])
        rows = self.read_rows(outdir)
        assert rows[0]["pass@100"] == ""
        assert rows[0]["pass@5"] == "1.0000"
