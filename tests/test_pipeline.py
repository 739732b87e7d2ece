import dataclasses
import json
import os
import re
import tempfile
from types import SimpleNamespace

import pytest

from bridge import pyexec
from bridge.corpus import Problem, UnitTest
from bridge.errors import ConfigError
from bridge.gateway import CompletionRecord, prompt_digest
from bridge.lean import LeanVerifier, build_source, source_digest
from bridge.pipeline import Orchestrator, RunConfig, run_sweep, write_report
from bridge.proofs import parse_meta_analysis

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
    ),
    category="arrays",
)

GOOD_PY = "<python>\ndef addInts(a, b):\n    return a + b\n</python>"
WRONG_PY = "<python>\ndef addInts(a, b):\n    return a - b\n</python>"
WRONG_PY_2 = "<python>\ndef addInts(a, b):\n    return a * b\n</python>"
PROSE = "I could not figure this one out, sorry about that."

LEAN_BODY = "def addInts (a : Int) (b : Int) : Int := a + b"
GOOD_LEAN = f"```lean\nimport Std\n\n{LEAN_BODY}\n```"


class LadderGateway:
    """Serves texts[r-1] for round r, inferred from the retry header."""

    def __init__(self, texts):
        self.texts = list(texts)
        self.calls = []

    def complete_n(self, model_id, prompt, params):
        match = re.search(r"# RETRY ATTEMPT (\d+)/", prompt)
        rnd = int(match.group(1)) + 1 if match else 1
        self.calls.append({"round": rnd, "n": params.n_samples, "prompt": prompt})
        digest = prompt_digest(model_id, prompt, params)
        text = self.texts[min(rnd, len(self.texts)) - 1]
        return [
            CompletionRecord(model_id, digest, i, text)
            for i in range(params.n_samples)
        ]


def make_config(tmp_path, **over):
    obj = {
        "corpus": "fixtures/corpus.jsonl",
        "models": ["mock-m"],
        "strategies": ["spec/direct"],
        "decoding": {"temperature": 0.7, "max_tokens": 512, "n_samples": 1},
        "max_retries": 3,
        "parallelism": 1,
        "python": {"timeout": 10.0},
        "runs_root": str(tmp_path / "runs"),
    }
    obj.update(over)
    return RunConfig.from_obj(obj)


def run_spec_chain(tmp_path, texts, **config_over):
    config = make_config(tmp_path, **config_over)
    gw = LadderGateway(texts)
    orch = Orchestrator(config, gateway=gw, verifier=LeanVerifier(transcripts={}),
                        problems=[ADD])
    result = orch.run()
    return result, gw


class TestRunConfig:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            RunConfig.from_obj({"corpus": "x", "models": ["m"],
                                "strategies": ["code/direct"], "surprise": 1})

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            RunConfig.from_obj({"models": ["m"], "strategies": ["code/direct"]})

    def test_bad_strategy(self):
        with pytest.raises(ConfigError):
            RunConfig.from_obj({"corpus": "x", "models": ["m"],
                                "strategies": ["code/quantum"]})

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            RunConfig.from_obj({"corpus": "x", "models": ["m"],
                                "strategies": ["code/direct"],
                                "mode": "Sequential"})

    def test_bad_success_predicate(self):
        with pytest.raises(ConfigError):
            RunConfig.from_obj({"corpus": "x", "models": ["m"],
                                "strategies": ["code/direct"],
                                "success": {"lean": "vibes"}})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError):
            RunConfig.from_obj({"corpus": "x", "models": ["m"],
                                "strategies": ["code/direct"],
                                "decoding": {"temprature": 0.7}})

    def test_bounds(self):
        base = {"corpus": "x", "models": ["m"], "strategies": ["code/direct"]}
        with pytest.raises(ConfigError):
            RunConfig.from_obj({**base, "max_retries": -1})
        with pytest.raises(ConfigError):
            RunConfig.from_obj({**base, "parallelism": 0})
        with pytest.raises(ConfigError):
            RunConfig.from_obj({**base, "models": []})

    def test_defaults_merged(self):
        cfg = RunConfig.from_obj({"corpus": "x", "models": ["m"],
                                  "strategies": ["code/direct"],
                                  "decoding": {"temperature": 0.2}})
        assert cfg.decoding["temperature"] == 0.2
        assert cfg.decoding["max_tokens"] == 4096
        assert cfg.lean["timeout"] == 120.0
        assert cfg.spec_checks["cross_feedback"] is False

    def test_from_file_with_dotted_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "corpus": "fixtures/corpus.jsonl",
            "models": ["m"],
            "strategies": ["code/direct"],
        }), encoding="utf-8")
        cfg = RunConfig.from_file(path, overrides={
            "decoding.temperature": "0.2",
            "gateway.mode": "replay",
            "k_ladder": "[1,5]",
            "runs_root": "elsewhere",
        })
        assert cfg.decoding["temperature"] == 0.2
        assert cfg.gateway["mode"] == "replay"
        assert cfg.k_ladder == (1, 5)
        assert cfg.runs_root == "elsewhere"

    def test_from_file_missing(self):
        with pytest.raises(ConfigError):
            RunConfig.from_file("no/such/config.json")

    def test_round_trip(self, tmp_path):
        cfg = make_config(tmp_path)
        assert RunConfig.from_obj(cfg.to_obj()) == cfg


class TestProblemSelection:
    def selected(self, tmp_path, **over):
        """The ids of the problems a run of the config ran, as its manifest
        lists them; chains are sorted by problem id."""
        config = make_config(tmp_path, max_retries=0, **over)
        result = Orchestrator(config, gateway=LadderGateway([PROSE]),
                              verifier=LeanVerifier(transcripts={})).run()
        ran = result.manifest["problem_ids"]
        assert [c["problem"] for c in result.chains] == sorted(ran)
        return ran

    def test_listed_problems_run_in_corpus_order(self, tmp_path):
        picked = self.selected(tmp_path, problems=["sqrt-floor", "climbing-stairs"])
        assert picked == ["climbing-stairs", "sqrt-floor"]

    def test_unknown_problem_is_named(self, tmp_path):
        with pytest.raises(ConfigError, match="no-such-problem"):
            self.selected(tmp_path, problems=["sqrt-floor", "no-such-problem"])

    def test_no_problems_key_selects_all(self, tmp_path, corpus):
        assert self.selected(tmp_path) == [p.id for p in corpus]
        assert len(corpus) == 12


class TestRetryLoop:
    def test_recovery_on_third_round(self, tmp_path):
        result, gw = run_spec_chain(
            tmp_path, [WRONG_PY, WRONG_PY_2, GOOD_PY], max_retries=3)
        chain = result.chains[0]
        assert chain["final_status"] == "Success"
        assert [r["round"] for r in chain["rounds"]] == [1, 2, 3]
        assert chain["rounds"][-1]["outcome"]["passed"] == 2
        assert [c["round"] for c in gw.calls] == [1, 2, 3]

    def test_budget_exhausted(self, tmp_path):
        result, gw = run_spec_chain(
            tmp_path, [WRONG_PY, WRONG_PY_2, GOOD_PY], max_retries=1)
        chain = result.chains[0]
        assert chain["final_status"] == "Failure"
        assert len(chain["rounds"]) == 2

    def test_zero_retries(self, tmp_path):
        result, _ = run_spec_chain(tmp_path, [WRONG_PY, GOOD_PY], max_retries=0)
        chain = result.chains[0]
        assert chain["final_status"] == "Failure"
        assert len(chain["rounds"]) == 1

    def test_always_failing_runs_exactly_budget_rounds(self, tmp_path):
        result, _ = run_spec_chain(tmp_path, [WRONG_PY], max_retries=3)
        chain = result.chains[0]
        assert chain["final_status"] == "Failure"
        assert len(chain["rounds"]) == 1 + 3

    def test_success_stops_immediately(self, tmp_path):
        result, gw = run_spec_chain(tmp_path, [GOOD_PY, WRONG_PY], max_retries=3)
        chain = result.chains[0]
        assert chain["final_status"] == "Success"
        assert len(chain["rounds"]) == 1
        assert len(gw.calls) == 1

    def test_parallel_only_never_retries(self, tmp_path):
        result, gw = run_spec_chain(
            tmp_path, [WRONG_PY, GOOD_PY], mode="ParallelOnly", max_retries=3,
            decoding={"temperature": 0.7, "max_tokens": 512, "n_samples": 3})
        assert len(result.chains) == 3
        assert all(len(c["rounds"]) == 1 for c in result.chains)
        assert all(c["final_status"] == "Failure" for c in result.chains)
        assert gw.calls[0]["n"] == 3

    def test_retry_only_forces_single_sample(self, tmp_path):
        result, gw = run_spec_chain(
            tmp_path, [WRONG_PY, GOOD_PY], mode="RetryOnly", max_retries=2,
            decoding={"temperature": 0.7, "max_tokens": 512, "n_samples": 5})
        assert len(result.chains) == 1
        assert gw.calls[0]["n"] == 1
        assert result.chains[0]["final_status"] == "Success"

    def test_no_artifact_status(self, tmp_path):
        result, _ = run_spec_chain(tmp_path, [PROSE], max_retries=1)
        chain = result.chains[0]
        assert chain["final_status"] == "NoArtifact"
        assert chain["rounds"][-1]["artifact"] is None
        assert chain["rounds"][-1]["outcome"] is None

    def test_artifact_in_earlier_round_means_failure(self, tmp_path):
        result, _ = run_spec_chain(tmp_path, [WRONG_PY, PROSE], max_retries=1)
        chain = result.chains[0]
        # last round lost the artifact, but the chain did produce one
        assert chain["final_status"] == "NoArtifact"

    def test_retry_prompt_carries_previous_body_and_errors(self, tmp_path):
        _, gw = run_spec_chain(tmp_path, [WRONG_PY, GOOD_PY], max_retries=1)
        retry_prompt = gw.calls[1]["prompt"]
        assert "# RETRY ATTEMPT 1/1" in retry_prompt
        assert "return a - b" in retry_prompt
        assert "expected" in retry_prompt and "observed" in retry_prompt

    def test_each_round_records_its_own_digest(self, tmp_path):
        result, _ = run_spec_chain(
            tmp_path, [WRONG_PY, WRONG_PY_2, GOOD_PY], max_retries=3)
        digests = [r["prompt_digest"] for r in result.chains[0]["rounds"]]
        assert len(set(digests)) == 3


class TestLeanChains:
    def make_transcripts(self, body, problem, returncode, output):
        source = build_source(body, problem, include_tests=True)
        return {source_digest(source): {"returncode": returncode, "output": output}}

    def test_verified_chain(self, tmp_path):
        transcripts = self.make_transcripts(
            "import Std\n\n" + LEAN_BODY, ADD, 0, "")
        config = make_config(tmp_path, strategies=["code/direct"])
        gw = LadderGateway([GOOD_LEAN])
        orch = Orchestrator(config, gateway=gw,
                            verifier=LeanVerifier(transcripts=transcripts),
                            problems=[ADD])
        chain = orch.run().chains[0]
        assert chain["final_status"] == "Success"
        assert chain["rounds"][0]["outcome"]["status"] == "Verified"
        assert chain["annotations"] == {}

    def test_tool_missing_stops_chain(self, tmp_path):
        config = make_config(tmp_path, strategies=["code/direct"], max_retries=3)
        gw = LadderGateway([GOOD_LEAN])
        orch = Orchestrator(config, gateway=gw,
                            verifier=LeanVerifier(transcripts={}),
                            problems=[ADD])
        chain = orch.run().chains[0]
        assert chain["final_status"] == "Failure"
        assert len(chain["rounds"]) == 1
        assert chain["annotations"]["lean_unavailable"] is True
        assert chain["rounds"][0]["outcome"]["status"] == "ToolMissing"

    def test_compile_only_predicate_skips_guards(self, tmp_path):
        body = "import Std\n\n" + LEAN_BODY
        source = build_source(body, ADD, include_tests=False)
        transcripts = {source_digest(source): {"returncode": 0, "output": ""}}
        config = make_config(tmp_path, strategies=["code/direct"],
                             success={"lean": "compile-only"})
        gw = LadderGateway([GOOD_LEAN])
        orch = Orchestrator(config, gateway=gw,
                            verifier=LeanVerifier(transcripts=transcripts),
                            problems=[ADD])
        chain = orch.run().chains[0]
        assert chain["final_status"] == "Success"

    def test_transcript_checks_leave_no_work_dirs(self, tmp_path, monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        transcripts = self.make_transcripts(
            "import Std\n\n" + LEAN_BODY, ADD, 1, "Candidate.lean:1:0: error: boom\n")
        config = make_config(tmp_path, strategies=["code/direct", "proof/unit-tests"],
                             max_retries=2)
        gw = LadderGateway([GOOD_LEAN])
        orch = Orchestrator(config, gateway=gw,
                            verifier=LeanVerifier(transcripts=transcripts),
                            problems=[ADD])
        chains = orch.run().chains
        assert sum(len(c["rounds"]) for c in chains) == 6
        assert not [n for n in os.listdir(scratch) if n.startswith("bridge-lean-")]

    def test_failed_lean_retry_prompt_lists_diagnostics(self, tmp_path):
        output = "Candidate.lean:3:0: error: unknown identifier 'mystery'\n"
        transcripts = self.make_transcripts("import Std\n\n" + LEAN_BODY, ADD, 1, output)
        config = make_config(tmp_path, strategies=["code/direct"], max_retries=1)
        gw = LadderGateway([GOOD_LEAN])
        orch = Orchestrator(config, gateway=gw,
                            verifier=LeanVerifier(transcripts=transcripts),
                            problems=[ADD])
        chain = orch.run().chains[0]
        assert chain["final_status"] == "Failure"
        assert len(chain["rounds"]) == 2
        retry_prompt = gw.calls[1]["prompt"]
        assert "3:0: error: unknown identifier 'mystery'" in retry_prompt


class CrossFeedbackGateway(LadderGateway):
    """Routes translation prompts to a fixed Lean answer."""

    def __init__(self, texts, translation_reply):
        super().__init__(texts)
        self.translation_reply = translation_reply

    def complete_n(self, model_id, prompt, params):
        if prompt.startswith("# Task: Translate the Python solution"):
            digest = prompt_digest(model_id, prompt, params)
            self.calls.append({"round": "translate", "n": params.n_samples,
                               "prompt": prompt})
            return [CompletionRecord(model_id, digest, 0, self.translation_reply)]
        return super().complete_n(model_id, prompt, params)


class TestCrossFeedback:
    TRANSLATED = f"```lean\nimport Std\n\n{LEAN_BODY}\n```"

    def run_with_feedback(self, tmp_path, transcripts, reply=TRANSLATED):
        config = make_config(
            tmp_path, max_retries=1,
            spec_checks={"cross_feedback": True})
        gw = CrossFeedbackGateway([WRONG_PY, GOOD_PY], reply)
        orch = Orchestrator(config, gateway=gw,
                            verifier=LeanVerifier(transcripts=transcripts),
                            problems=[ADD])
        return orch.run().chains[0], gw

    def test_feedback_round_attached_and_refinement_used(self, tmp_path):
        body = "import Std\n\n" + LEAN_BODY
        source = build_source(body, ADD, include_tests=False)
        output = "Candidate.lean:1:0: error: type mismatch\n"
        transcripts = {source_digest(source): {"returncode": 1, "output": output}}
        chain, gw = self.run_with_feedback(tmp_path, transcripts)
        assert chain["final_status"] == "Success"
        first_round = chain["rounds"][0]
        assert "cross_feedback" in first_round
        assert first_round["cross_feedback"]["outcome"]["status"] == "CompileFailed"
        retry_prompt = gw.calls[-1]["prompt"]
        assert "## Lean Compiler Feedback" in retry_prompt
        assert "type mismatch" in retry_prompt

    def test_feedback_without_diagnostics_names_the_status(self, tmp_path):
        body = "import Std\n\n" + LEAN_BODY
        source = build_source(body, ADD, include_tests=False)
        transcripts = {source_digest(source): {"returncode": 0, "output": ""}}
        chain, gw = self.run_with_feedback(tmp_path, transcripts)
        assert chain["rounds"][0]["cross_feedback"]["outcome"]["status"] == "Verified"
        retry_prompt = gw.calls[-1]["prompt"]
        assert "## Lean Compiler Feedback" in retry_prompt
        assert "Lean verification status: Verified" in retry_prompt

    def test_tool_missing_falls_back_to_plain_retry(self, tmp_path):
        chain, gw = self.run_with_feedback(tmp_path, transcripts={})
        assert chain["final_status"] == "Success"
        assert chain["annotations"]["lean_unavailable"] is True
        retry_prompt = gw.calls[-1]["prompt"]
        assert "## Lean Compiler Feedback" not in retry_prompt
        assert "# RETRY ATTEMPT 1/1" in retry_prompt
        # the attempted translation is still recorded for the round
        assert "cross_feedback" in chain["rounds"][0]

    def test_translation_without_code_is_no_missing_toolchain(self, tmp_path):
        body = "import Std\n\n" + LEAN_BODY
        source = build_source(body, ADD, include_tests=False)
        transcripts = {source_digest(source): {"returncode": 0, "output": ""}}
        chain, gw = self.run_with_feedback(tmp_path, transcripts,
                                           reply="I cannot translate this.")
        assert chain["final_status"] == "Success"
        assert chain["annotations"] == {"cross_feedback_no_artifact": True}
        retry_prompt = gw.calls[-1]["prompt"]
        assert "## Lean Compiler Feedback" not in retry_prompt
        assert "# RETRY ATTEMPT 1/1" in retry_prompt
        assert "cross_feedback" not in chain["rounds"][0]


class TestSpecAnnotations:
    def test_contracts_and_vacuity_on_success(self, tmp_path):
        config = make_config(
            tmp_path,
            spec_checks={"contracts": True, "vacuity": True,
                         "trials": 10, "random_trials": 5})
        gw = LadderGateway([GOOD_PY])
        orch = Orchestrator(config, gateway=gw,
                            verifier=LeanVerifier(transcripts={}),
                            problems=[ADD])
        chain = orch.run().chains[0]
        assert chain["final_status"] == "Success"
        assert chain["annotations"]["contracts"]["type"] == "contracts"
        assert chain["annotations"]["vacuity"]["verdict"] == "Vacuous"

    def test_checks_get_the_configured_python_timeout(self, tmp_path, monkeypatch):
        seen = []

        def recorder(kind):
            def record(body, problem, **kwargs):
                seen.append((kind, kwargs.get("timeout")))
                return SimpleNamespace(to_obj=lambda: {"type": kind})
            return record

        monkeypatch.setattr(pyexec, "check_contracts", recorder("contracts"))
        monkeypatch.setattr(pyexec, "vacuity_check", recorder("vacuity"))
        config = make_config(
            tmp_path, python={"timeout": 7.5},
            spec_checks={"contracts": True, "vacuity": True})
        orch = Orchestrator(config, gateway=LadderGateway([GOOD_PY]),
                            verifier=LeanVerifier(transcripts={}),
                            problems=[ADD])
        assert orch.run().chains[0]["final_status"] == "Success"
        assert seen == [("contracts", 7.5), ("vacuity", 7.5)]

    def test_no_annotations_on_failure(self, tmp_path):
        config = make_config(
            tmp_path,
            spec_checks={"contracts": True, "vacuity": True,
                         "trials": 10, "random_trials": 5},
            max_retries=0)
        gw = LadderGateway([WRONG_PY])
        orch = Orchestrator(config, gateway=gw,
                            verifier=LeanVerifier(transcripts={}),
                            problems=[ADD])
        chain = orch.run().chains[0]
        assert chain["final_status"] == "Failure"
        assert "contracts" not in chain["annotations"]
        assert "vacuity" not in chain["annotations"]


class TestPythonCheckReuse:
    TWO_SAMPLES = {"temperature": 0.7, "max_tokens": 512, "n_samples": 2}

    def count_calls(self, monkeypatch, run_tests=pyexec.run_tests):
        calls = []

        def counted(body, problem, **kwargs):
            calls.append((problem.id, body))
            return run_tests(body, problem, **kwargs)

        monkeypatch.setattr(pyexec, "run_tests", counted)
        return calls

    def test_repeated_body_checked_once(self, tmp_path, monkeypatch):
        calls = self.count_calls(monkeypatch)
        result, _ = run_spec_chain(tmp_path, [GOOD_PY], decoding=self.TWO_SAMPLES)
        first, second = (chain["rounds"][0]["outcome"] for chain in result.chains)
        assert len(calls) == 1
        assert first == second
        assert first is not second

    def test_same_body_on_two_problems_checked_twice(self, tmp_path, monkeypatch):
        calls = self.count_calls(monkeypatch)
        again = dataclasses.replace(ADD, id="add-ints-again")
        orch = Orchestrator(make_config(tmp_path), gateway=LadderGateway([GOOD_PY]),
                            verifier=LeanVerifier(transcripts={}),
                            problems=[ADD, again])
        assert [c["final_status"] for c in orch.run().chains] == ["Success"] * 2
        assert sorted(problem_id for problem_id, _ in calls) == [ADD.id, again.id]
        assert len({body for _, body in calls}) == 1

    @pytest.mark.parametrize("fault", ["Timeout", "Crash"])
    def test_host_faults_are_checked_again(self, tmp_path, monkeypatch, fault):
        outcomes = iter([pyexec.TestOutcome(total=2, passed=0, fault=fault),
                         pyexec.TestOutcome(total=2, passed=2)])
        calls = self.count_calls(monkeypatch, lambda *args, **kwargs: next(outcomes))
        result, _ = run_spec_chain(
            tmp_path, [GOOD_PY], decoding=self.TWO_SAMPLES, max_retries=0)
        assert len(calls) == 2
        assert [c["final_status"] for c in result.chains] == ["Failure", "Success"]


PROOF_COMPLETION = """```lean
import Std

def addInts (a : Int) (b : Int) : Int := a + b

theorem addInts_correct (a b : Int) : addInts a b = a + b := by
  rfl

theorem addInts_terminates (a b : Int) : ∃ output : Int, addInts a b = output := by
  exact ⟨_, rfl⟩
```"""


class TestMetaEmission:
    def test_meta_written_for_proof_chains(self, tmp_path):
        config = make_config(
            tmp_path,
            strategies=["proof/unit-tests", "proof/natural-language"],
            intersection_threshold=2,
            max_retries=0)
        gw = LadderGateway([PROOF_COMPLETION])
        orch = Orchestrator(config, gateway=gw,
                            verifier=LeanVerifier(transcripts={}),
                            problems=[ADD])
        result = orch.run()
        for chain in result.chains:
            names = [t["name"] for t in chain["annotations"]["theorems"]]
            assert names == ["addInts_correct", "addInts_terminates"]
        meta_path = result.run_dir / "meta" / "add-ints.json"
        assert meta_path.exists()
        obj = parse_meta_analysis(meta_path.read_text(encoding="utf-8"))
        inner = obj["intersection_analysis"]
        assert inner["common_concepts"] == ["Correctness", "Termination"]
        assert obj["final_theorem_selection"] == {
            "solution_correctness": "Essential functional correctness property",
            "solution_termination": "Computational termination guarantees",
        }
        assert "def addInts" in obj["complete_Lean_file"]

    def test_no_meta_dir_without_proof_chains(self, tmp_path):
        result, _ = run_spec_chain(tmp_path, [GOOD_PY])
        assert not (result.run_dir / "meta").exists()


class TestRunAssembly:
    def test_manifest_and_chain_ordering(self, tmp_path):
        config = make_config(
            tmp_path, models=["mock-b", "mock-a"],
            decoding={"temperature": 0.7, "max_tokens": 512, "n_samples": 2})
        gw = LadderGateway([GOOD_PY])
        orch = Orchestrator(config, gateway=gw,
                            verifier=LeanVerifier(transcripts={}),
                            problems=[ADD])
        result = orch.run()
        assert result.manifest["chain_count"] == 4
        assert result.manifest["cell_count"] == 2
        assert result.manifest["problem_ids"] == ["add-ints"]
        keys = [(c["problem"], c["strategy"], c["model"], c["sample_index"])
                for c in result.chains]
        assert keys == sorted(keys)
        assert (result.run_dir / "manifest.json").exists()
        lines = (result.run_dir / "chains.jsonl").read_text(encoding="utf-8")
        assert len(lines.splitlines()) == 4

    def test_run_id_stable_and_dirs_never_overwritten(self, tmp_path):
        ids = []
        dirs = []
        for _ in range(2):
            result, _ = run_spec_chain(tmp_path, [GOOD_PY])
            ids.append(result.run_id)
            dirs.append(result.run_dir)
        assert ids[0] == ids[1]
        assert dirs[0] != dirs[1]
        assert dirs[0].exists() and dirs[1].exists()
        a = (dirs[0] / "chains.jsonl").read_bytes()
        b = (dirs[1] / "chains.jsonl").read_bytes()
        assert a == b

    def test_parallelism_does_not_change_output(self, tmp_path):
        results = []
        for parallelism in (1, 4):
            config = make_config(
                tmp_path, parallelism=parallelism,
                models=["mock-a", "mock-b"],
                decoding={"temperature": 0.7, "max_tokens": 512, "n_samples": 2})
            gw = LadderGateway([WRONG_PY, GOOD_PY])
            orch = Orchestrator(config, gateway=gw,
                                verifier=LeanVerifier(transcripts={}),
                                problems=[ADD])
            results.append(orch.run())
        a = (results[0].run_dir / "chains.jsonl").read_bytes()
        b = (results[1].run_dir / "chains.jsonl").read_bytes()
        assert a == b

    def test_config_problem_filter_unknown_id(self, tmp_path):
        config = make_config(tmp_path, problems=["no-such-problem"])
        with pytest.raises(ConfigError):
            Orchestrator(config, gateway=LadderGateway([GOOD_PY]),
                         verifier=LeanVerifier(transcripts={}))


class TestSweep:
    def test_sweep_runs_one_per_temperature(self, tmp_path):
        config = make_config(tmp_path, temperature_grid=[0.3, 0.9], seed=6)
        gw = LadderGateway([GOOD_PY])
        results = run_sweep(config, gateway=gw,
                            verifier=LeanVerifier(transcripts={}),
                            problems=[ADD])
        assert [t for t, _ in results] == [0.3, 0.9]
        assert results[0][1].run_dir.name.endswith("-t0")
        assert results[1][1].run_dir.name.endswith("-t1")
        manifests = [json.loads((r.run_dir / "manifest.json").read_text())
                     for _, r in results]
        assert manifests[0]["config"]["decoding"]["temperature"] == 0.3
        assert manifests[1]["config"]["decoding"]["temperature"] == 0.9
        # per-point seeds derive from the base seed by index
        assert manifests[0]["config"]["decoding"]["seed"] == 6 ^ 0
        assert manifests[1]["config"]["decoding"]["seed"] == 6 ^ 1

    def test_empty_grid_rejected(self, tmp_path):
        config = make_config(tmp_path)
        with pytest.raises(ConfigError):
            run_sweep(config, gateway=LadderGateway([GOOD_PY]),
                      verifier=LeanVerifier(transcripts={}), problems=[ADD])


class TestWriteReport:
    def test_report_written_from_run_dir(self, tmp_path):
        result, _ = run_spec_chain(tmp_path, [GOOD_PY], k_ladder=[1])
        write_report(result.run_dir)
        rows = (result.run_dir / "report" / "rows.csv").read_text(encoding="utf-8")
        assert "pass@1" in rows.splitlines()[0]
        assert "spec/direct" in rows
        assert (result.run_dir / "report" / "curves.jsonl").exists()

    def test_ladder_argument_overrides_config(self, tmp_path):
        result, _ = run_spec_chain(tmp_path, [GOOD_PY], k_ladder=[1])
        write_report(result.run_dir, k_ladder=[1, 2])
        header = (result.run_dir / "report" / "rows.csv").read_text(
            encoding="utf-8").splitlines()[0]
        assert "pass@2" in header

    def test_rejects_non_run_dir(self, tmp_path):
        with pytest.raises(ConfigError):
            write_report(tmp_path)
