"""End-to-end acceptance gate.

Ten criteria, one test each, in pipeline order: exact metrics, prompt
corpus fidelity, diagnostic classification, retry budgets, the full mock
run, specification vacuity, proof intersection, backend execution, and
frozen-report replay. Each test appends a PASS/FAIL line that the
terminal summary prints after the run.

Tolerances are pinned in-line and intentionally tight; loosening one is a
product decision, not a test fix.
"""

import collections
import hashlib
import itertools
import json
import re
import shutil
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from bridge import metrics, pyexec
from bridge.corpus import Problem, UnitTest
from bridge.gateway import CompletionRecord, prompt_digest
from bridge.lean import LeanVerifier, VerifyStatus
from bridge.pipeline import Orchestrator, RunConfig, write_report
from bridge.prompts import TemplateCatalog, list_strategies
from bridge.proofs import (
    TheoremCandidate,
    emit_meta_analysis,
    extract_theorems,
    intersect,
)
from conftest import write_corpus

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "data" / "goldens"
EXPECTED_REPORT = ROOT / "tests" / "data" / "expected_report"
LABELED = ROOT / "fixtures" / "transcripts" / "labeled_diagnostics.jsonl"
E2E_CONFIG = ROOT / "fixtures" / "configs" / "e2e.json"
MINI_CONFIG = ROOT / "fixtures" / "configs" / "mini_replay.json"
# SHA-256 of the e2e mock run's outputs, so that a change which moves their
# bytes the same way in every run still fails
E2E_DIGESTS = {
    "chains.jsonl": "0c86ad46d3e4f51cd853100dc33765b018515cc001609f9f3be5652c45c1a09b",
    "report/rows.csv": "4b09c66be7f1137e7cab468034647c589f351bd16327d55b0c99344fbfd97de8",
    "report/curves.jsonl":
        "aaa741f6d63ca949dd367ed5662a958aa7516384536a696d3bc2b7c324be0768",
}


@contextmanager
def criterion(log, number, title):
    try:
        yield
    except BaseException:
        log.append(f"ACCEPTANCE {number:02d} {title}: FAIL")
        print(f"ACCEPTANCE {number:02d} {title}: FAIL")
        raise
    log.append(f"ACCEPTANCE {number:02d} {title}: PASS")
    print(f"ACCEPTANCE {number:02d} {title}: PASS")


def test_01_pass_at_k_exact_against_enumeration(acceptance_log):
    with criterion(acceptance_log, 1, "pass@k exact vs exhaustive enumeration"):
        start = time.monotonic()
        checked = 0
        for n in range(1, 13):
            for c in range(0, n + 1):
                successes = set(range(c))
                for k in range(1, n + 1):
                    hits = 0
                    total = 0
                    for combo in itertools.combinations(range(n), k):
                        total += 1
                        if successes & set(combo):
                            hits += 1
                    assert metrics.pass_at_k(n, c, k) == Fraction(hits, total), (
                        f"n={n} c={c} k={k}"
                    )
                    checked += 1
        elapsed = time.monotonic() - start
        assert checked == 728
        assert elapsed < 5.0, f"enumeration took {elapsed:.2f}s, budget 5s"


def test_02_token_estimator_frozen_pairs(acceptance_log):
    with criterion(acceptance_log, 2, "token estimator matches frozen pairs within 5%"):
        frozen = [
            (195, 270),
            (402, 555),
            (382, 526),
            (387, 534),
            (390, 538),
            (408, 563),
        ]
        for words, expected in frozen:
            got = metrics.estimate_tokens(words)
            assert abs(got - expected) <= 0.05 * expected, (
                f"{words} words -> {got}, expected about {expected} (tolerance 5%)"
            )


def test_03_prompt_corpus_byte_identical(acceptance_log, corpus):
    with criterion(acceptance_log, 3, "22x12 prompt corpus byte-identical, no leftovers"):
        start = time.monotonic()
        catalog = TemplateCatalog()
        strategies = list_strategies()
        assert len(strategies) == 22
        assert len(corpus) == 12
        count = 0
        for strategy in strategies:
            for problem in corpus:
                golden = GOLDENS / strategy.domain / strategy.name / f"{problem.id}.txt"
                rendered = catalog.render(strategy, problem)
                assert rendered == golden.read_text(encoding="utf-8"), (
                    f"drift in {strategy.key} x {problem.id}"
                )
                for token in ("{{", "}}", "[SWAP:"):
                    assert token not in rendered, (
                        f"placeholder survivor {token!r} in {strategy.key} x {problem.id}"
                    )
                count += 1
        assert count == 264
        retry = catalog.render_retry("def f := 1", ["boom"], round_index=2, max_rounds=3)
        assert "RETRY ATTEMPT 2/3" in retry
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"render sweep took {elapsed:.2f}s, budget 10s"


def test_04_diagnostic_classifier_covers_labeled_corpus(acceptance_log):
    with criterion(acceptance_log, 4, "classifier matches all 23 labeled transcripts"):
        entries = [
            json.loads(line)
            for line in LABELED.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        assert len(entries) == 23
        scaffolder = LeanVerifier(transcripts={})
        mismatches = []
        for entry in entries:
            project = scaffolder.scaffold(entry["source"], None, include_tests=False)
            verifier = LeanVerifier(
                transcripts={
                    project.digest: {
                        "returncode": entry["returncode"],
                        "output": entry["output"],
                    }
                }
            )
            outcome = verifier.check(project)
            got = (
                outcome.status.value,
                sorted(c.value for c in outcome.error_classes),
                outcome.sorry_count,
            )
            want = (
                entry["expected_status"],
                list(entry["expected_classes"]),
                entry["expected_sorry_count"],
            )
            if got != want:
                mismatches.append((entry["name"], got, want))
        assert not mismatches, f"classifier drift: {mismatches}"


ADD = Problem(
    id="add-ints",
    title="Add Integers",
    statement="Return the sum of a and b.",
    function_name="addInts",
    params=(("a", "Int"), ("b", "Int")),
    return_type="Int",
    tests=(
        UnitTest(inputs=("1", "2"), expected="3"),
        UnitTest(inputs=("5", "5"), expected="10"),
        UnitTest(inputs=("-4", "5"), expected="1"),
        UnitTest(inputs=("2", "2"), expected="4"),
    ),
    category="arrays",
)

GOOD_PY = "<python>\ndef addInts(a, b):\n    return a + b\n</python>"
WRONG_PY = "<python>\ndef addInts(a, b):\n    return a - b\n</python>"
WRONG_PY_2 = "<python>\ndef addInts(a, b):\n    return a * b\n</python>"


class ScriptedGateway:
    """Serves texts[r-1] for round r, parsed from the retry header."""

    def __init__(self, texts):
        self.texts = list(texts)
        self.calls = []

    def complete_n(self, model_id, prompt, params):
        match = re.search(r"# RETRY ATTEMPT (\d+)/", prompt)
        rnd = int(match.group(1)) + 1 if match else 1
        self.calls.append(rnd)
        digest = prompt_digest(model_id, prompt, params)
        text = self.texts[min(rnd, len(self.texts)) - 1]
        return [
            CompletionRecord(model_id, digest, i, text)
            for i in range(params.n_samples)
        ]


def _spec_run(tmp_path, texts, **over):
    obj = {
        "corpus": write_corpus(tmp_path, ADD),
        "models": ["mock-m"],
        "strategies": ["spec/direct"],
        "decoding": {"temperature": 0.7, "max_tokens": 512, "n_samples": 1},
        "parallelism": 1,
        "python": {"timeout": 10.0},
        "runs_root": str(tmp_path / "runs"),
    }
    obj.update(over)
    config = RunConfig.from_obj(obj)
    gw = ScriptedGateway(texts)
    orch = Orchestrator(config, gateway=gw, verifier=LeanVerifier(transcripts={}))
    return orch.run().chains[0], gw


def test_05_retry_budgets_respected(acceptance_log, tmp_path):
    with criterion(acceptance_log, 5, "retry loop honors budgets 0, 1, and 3"):
        ladder = [WRONG_PY, WRONG_PY_2, GOOD_PY]

        chain, gw = _spec_run(tmp_path, ladder, max_retries=0)
        assert chain["final_status"] == "Failure"
        assert len(chain["rounds"]) == 1 and gw.calls == [1]

        chain, gw = _spec_run(tmp_path, ladder, max_retries=1)
        assert chain["final_status"] == "Failure"
        assert len(chain["rounds"]) == 2 and gw.calls == [1, 2]

        chain, gw = _spec_run(tmp_path, ladder, max_retries=3)
        assert chain["final_status"] == "Success"
        assert len(chain["rounds"]) == 3 and gw.calls == [1, 2, 3]
        assert [r["round"] for r in chain["rounds"]] == [1, 2, 3]
        digests = {r["prompt_digest"] for r in chain["rounds"]}
        assert len(digests) == 3

        chain, _ = _spec_run(tmp_path, ladder, max_retries=3, mode="ParallelOnly")
        assert len(chain["rounds"]) == 1

        chain, gw = _spec_run(
            tmp_path, ladder, max_retries=3, mode="RetryOnly",
            decoding={"temperature": 0.7, "max_tokens": 512, "n_samples": 5})
        assert chain["final_status"] == "Success"
        assert chain["sample_index"] == 0


def test_06_e2e_mock_run_deterministic(acceptance_log, tmp_path, monkeypatch):
    with criterion(acceptance_log, 6, "480-chain mock run reproduces byte-identically"):
        import requests

        def no_network(*args, **kwargs):
            raise AssertionError("network call attempted during mock run")

        # the gateway imports requests lazily and reaches this same attribute
        monkeypatch.setattr(requests, "post", no_network)

        start = time.monotonic()
        results = []
        for name in ("a", "b"):
            config = RunConfig.from_file(
                E2E_CONFIG, overrides={"runs_root": str(tmp_path / name)})
            assert config.gateway["mode"] == "mock"
            result = Orchestrator(config).run()
            write_report(result.run_dir)
            results.append(result)
        elapsed = time.monotonic() - start

        for result in results:
            assert len(result.chains) == 480
            statuses = collections.Counter(
                c["final_status"] for c in result.chains)
            assert statuses == {
                "Success": 216, "Failure": 228, "NoArtifact": 36,
            }
        for name, digest in E2E_DIGESTS.items():
            a = (results[0].run_dir / name).read_bytes()
            b = (results[1].run_dir / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
            assert hashlib.sha256(a).hexdigest() == digest, f"{name} bytes moved"
        assert elapsed < 60.0, f"two runs took {elapsed:.2f}s, budget 60s"


CLAMP_PROBLEM = Problem(
    id="clamp-non-negative",
    title="Clamp Non-Negative",
    statement="Replace negative entries with zero, preserving positions.",
    function_name="clampNonNeg",
    params=(("nums", "List Int"),),
    return_type="List Int",
    tests=(
        UnitTest(inputs=("[-3,-1,2]",), expected="[0,0,2]"),
        UnitTest(inputs=("[5]",), expected="[5]"),
        UnitTest(inputs=("[]",), expected="[]"),
    ),
    category="arrays",
)

CLAMP_CONTRACTED = """import deal

@deal.post(lambda result: all(r >= 0 for r in result))
@deal.ensure(lambda nums, result: len(result) == len(nums)
             and all((r == n) if n >= 0 else (r == 0)
                     for n, r in zip(nums, result)))
def clampNonNeg(nums):
    return [x if x >= 0 else 0 for x in nums]
"""

BARE_ADD = "def addInts(a, b):\n    return a + b\n"

SELF_VIOLATING_ADD = """import deal

@deal.post(lambda result: result == 0)
def addInts(a, b):
    return a + b
"""


def test_07_vacuity_verdicts(acceptance_log):
    with criterion(acceptance_log, 7, "vacuity check reaches all three verdicts"):
        bare = pyexec.vacuity_check(BARE_ADD, ADD, seed=3, random_trials=10)
        assert bare.verdict == "Vacuous"
        assert bare.mutants_rejected == 0 and bare.mutants_total > 0

        contracted = pyexec.vacuity_check(CLAMP_CONTRACTED, CLAMP_PROBLEM,
                                          seed=3, random_trials=10)
        assert contracted.verdict == "NonVacuous"
        assert contracted.mutants_rejected >= 4
        assert contracted.mutants_total == 6

        inconsistent = pyexec.vacuity_check(SELF_VIOLATING_ADD, ADD,
                                            seed=3, random_trials=10)
        assert inconsistent.verdict == "InconsistentSpec"
        assert inconsistent.mutants_total == 0


def _cand(name, statement, pathway, cats):
    return TheoremCandidate(name=name, statement=statement, pathway=pathway,
                            categories=frozenset(cats), has_sorry=False)


def test_08_intersection_and_meta_analysis(acceptance_log):
    with criterion(acceptance_log, 8, "proof intersection thresholds and document shape"):
        pathways = ["natural-language", "unit-tests", "code-analysis",
                    "type-guided", "termination"]
        groups = {}
        for i, pathway in enumerate(pathways):
            cands = [_cand("solve_correct", "theorem solve_correct : True",
                           pathway, ["Correctness"])]
            if i < 3:
                cands.append(_cand("solve_upper", "theorem solve_upper : a ≤ b",
                                   pathway, ["Bounds"]))
            if i < 2:
                cands.append(_cand(
                    "solve_terminates",
                    "theorem solve_terminates : ∃ output : Int, f = output",
                    pathway, ["Termination"]))
            groups[pathway] = cands

        assert set(intersect(groups, threshold=1).common_concepts) == {
            "Bounds", "Correctness", "Termination"}
        report = intersect(groups, threshold=3)
        assert report.common_concepts == ("Bounds", "Correctness")
        assert intersect(groups, threshold=5).common_concepts == ("Correctness",)

        def decoded(document):
            obj = json.loads(document)
            assert set(obj) >= {"intersection_analysis", "final_theorem_selection",
                                "complete_Lean_file"}
            assert set(obj["intersection_analysis"]) >= {
                "common_concepts", "shared_properties",
                "robust_theorems", "pathway_specific_insights"}
            return obj

        implementation = "import Std\n\ndef solve (n : Int) : Int := n"
        obj = decoded(emit_meta_analysis(report, implementation))
        assert obj["intersection_analysis"]["robust_theorems"] == {
            "Bounds": "solve_upper", "Correctness": "solve_correct"}

        full = decoded(
            emit_meta_analysis(intersect(groups, threshold=1), implementation))
        assert full["final_theorem_selection"] == {
            "solution_correctness": "Essential functional correctness property",
            "solution_bounds": "Mathematical bounds and constraint verification",
            "solution_termination": "Computational termination guarantees",
        }

        recovered = extract_theorems(full["complete_Lean_file"], "meta")
        assert {c.name for c in recovered} == {
            "solve_correct", "solve_upper", "solve_terminates"}
        assert all(c.has_sorry for c in recovered)
        assert "def solve (n : Int) : Int := n" in full["complete_Lean_file"]


def test_09_execution_backends(acceptance_log):
    with criterion(acceptance_log, 9, "Python backend verdicts; Lean toolchain if present"):
        good = pyexec.run_tests("def addInts(a, b):\n    return a + b\n", ADD,
                                timeout=10.0)
        assert good.all_passed and good.passed == 4

        wrong = pyexec.run_tests("def addInts(a, b):\n    return 0\n", ADD,
                                 timeout=10.0)
        assert wrong.passed < wrong.total
        assert wrong.fault is None

        start = time.monotonic()
        looping = pyexec.run_tests(
            "def addInts(a, b):\n    while True:\n        pass\n", ADD,
            timeout=1.0)
        elapsed = time.monotonic() - start
        assert looping.fault == "Timeout"
        assert elapsed < 6.0, f"timeout enforcement took {elapsed:.2f}s"

        if shutil.which("lean"):
            verifier = LeanVerifier(timeout=60.0)
            project = verifier.scaffold(
                "def addInts (a : Int) (b : Int) : Int := a + b", ADD,
                include_tests=True)
            outcome = verifier.check(project)
            assert outcome.status in (
                VerifyStatus.VERIFIED, VerifyStatus.COMPILE_FAILED)
            print("lean toolchain present: live check returned",
                  outcome.status.value)
        else:
            print("lean toolchain absent: live half skipped; "
                  "transcript path exercised by criterion 04")


def test_10_mini_replay_reproduces_frozen_report(acceptance_log, tmp_path):
    with criterion(acceptance_log, 10, "replay run reproduces the frozen report bytes"):
        config = RunConfig.from_file(
            MINI_CONFIG, overrides={"runs_root": str(tmp_path / "runs")})
        assert config.gateway["mode"] == "replay"
        result = Orchestrator(config).run()
        assert len(result.chains) == 60
        write_report(result.run_dir)

        got_rows = (result.run_dir / "report" / "rows.csv").read_bytes()
        want_rows = (EXPECTED_REPORT / "rows.csv").read_bytes()
        assert got_rows == want_rows, "rows.csv drifted from the frozen report"

        got_curves = (result.run_dir / "report" / "curves.jsonl").read_bytes()
        want_curves = (EXPECTED_REPORT / "curves.jsonl").read_bytes()
        assert got_curves == want_curves, "curves.jsonl drifted from the frozen report"

        import csv
        import io

        rows = list(csv.DictReader(io.StringIO(got_rows.decode("utf-8"))))
        assert len(rows) == 2
        for row in rows:
            assert row["pass@1"] == "0.5000"
            assert row["pass@5"] == "1.0000"
            assert row["err_Termination"] == "0.5000"
            assert row["err_SorryPresent"] == "0.5000"
        curves = [json.loads(line)
                  for line in got_curves.decode("utf-8").splitlines()]
        for curve in curves:
            assert [p["k"] for p in curve["points"]] == [1, 5]
