import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from bridge import metrics, pipeline, proofs, pyexec
from bridge.corpus import Problem, UnitTest
from bridge.errors import ConfigError, GatewayError
from bridge.gateway import CompletionRecord, ModelGateway, prompt_digest
from bridge.lean import LeanVerifier, build_source, source_digest
from bridge.pipeline import Orchestrator, RunConfig, execute, write_report
from bridge.prompts import StrategyId, TemplateCatalog
from conftest import write_corpus

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


def add_config(tmp_path, **over):
    """A config over a corpus of the one problem ADD."""
    return make_config(tmp_path, corpus=write_corpus(tmp_path, ADD), **over)


def run_spec_chain(tmp_path, texts, **config_over):
    config = add_config(tmp_path, **config_over)
    gw = LadderGateway(texts)
    orch = Orchestrator(config, gateway=gw, verifier=LeanVerifier(transcripts={}))
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

    def test_unconvertible_value(self):
        base = {"corpus": "x", "models": ["m"], "strategies": ["code/direct"]}
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.from_obj({**base, "seed": "abc"})
        with pytest.raises(ConfigError, match="temperature_grid"):
            RunConfig.from_obj({**base, "temperature_grid": 0.5})
        with pytest.raises(ConfigError, match="bad value for decoding: 5; expected an object"):
            RunConfig.from_obj({**base, "decoding": 5})

    @pytest.mark.parametrize("dotted, raw", [
        ("decoding.temperature", "abc"),
        ("decoding.max_tokens", '"512"'),
        ("decoding.n_samples", '"x"'),
        ("decoding.n_samples", "2.5"),
        ("decoding.seed", "true"),
        ("temperature_grid", '["a"]'),
        ("python.timeout", '"x"'),
        ("lean.timeout", "null"),
        ("spec_checks.trials", "[]"),
        ("spec_checks.random_trials", '"10"'),
        ("lean.mathlib", "False"),
        ("spec_checks.contracts", "1"),
        ("spec_checks.vacuity", "off"),
        ("spec_checks.cross_feedback", '"true"'),
        ("max_retries", "1.9"),
        ("seed", "true"),
        ("intersection_threshold", "2.9"),
        ("models", "mock-alpha"),
        ("lean.command", '"lake env lean"'),
        ("lean.command", '["lake", 1]'),
        ("k_ladder", "[1, 0]"),
        ("k_ladder", "[1, 2.5]"),
        ("k_ladder", "[]"),
        ("intersection_threshold", "0"),
        ("decoding.temperature", "2.5"),
        ("decoding.temperature", "-0.1"),
        ("decoding.max_tokens", "0"),
        ("decoding.n_samples", "0"),
        ("temperature_grid", "[0.7, 2.5]"),
        ("gateway.providers", "5"),
        ("gateway.providers", '{"m": 5}'),
        ("gateway.providers", '{"m": {"provider": "acme"}}'),
        ("gateway.providers", '{"m": {"provider": 1, "endpoint": "https://x.test"}}'),
        ("gateway.providers",
         '{"m": {"provider": "acme", "endpoint": "https://x.test", "batch_limit": 0}}'),
        ("gateway.providers",
         '{"m": {"provider": "acme", "endpoint": "https://x.test", "batch_limit": "8"}}'),
        ("models", '["m", "m"]'),
        ("strategies", '["code/direct", "code/direct"]'),
        ("problems", '["sqrt-floor", "sqrt-floor"]'),
        ("k_ladder", "[1, 1, 5]"),
        ("lean.command", "[]"),
        ("lean.transcripts", "5"),
        ("gateway.archive_dir", "7"),
        ("python.timeout", "0"),
        ("python.timeout", "-1"),
        ("lean.timeout", "0"),
        ("lean.timeout", "-0.5"),
        ("spec_checks.trials", "0"),
        ("spec_checks.trials", "-5"),
        ("spec_checks.random_trials", "-1"),
        ("gateway.providers", '{"m": {"provider": "", "endpoint": "https://x.test"}}'),
        ("gateway.providers", '{"m": {"provider": "acme", "endpoint": ""}}'),
    ])
    def test_non_numeric_value_refused_at_load(self, dotted, raw):
        base = {"corpus": "x", "models": ["m"], "strategies": ["code/direct"]}
        with pytest.raises(ConfigError, match=re.escape(f"bad value for {dotted}")):
            RunConfig.from_obj(base, {dotted: raw})

    def test_every_grid_point_is_checked_at_load(self):
        base = {"corpus": "x", "models": ["m"], "strategies": ["code/direct"]}
        with pytest.raises(ConfigError, match=re.escape(
                "bad value for temperature_grid: 2.5; expected at most 2")):
            RunConfig.from_obj(base, {"temperature_grid": "[0.7, 2.5]"})
        # each grid point draws with its own seed, so a value may repeat
        cfg = RunConfig.from_obj(base, {"temperature_grid": "[0.7, 0.7]"})
        assert cfg.temperature_grid == (0.7, 0.7)

    def test_provider_entries(self):
        base = {"corpus": "x", "models": ["m"], "strategies": ["code/direct"]}
        entry = {"provider": "acme", "endpoint": "https://x.test"}
        for extra in ({}, {"batch_limit": 2}, {"batch_limit": None}):
            cfg = RunConfig.from_obj(base, {"gateway.providers": json.dumps(
                {"m": {**entry, **extra}})})
            assert cfg.gateway["providers"] == {"m": {**entry, **extra}}
        with pytest.raises(ConfigError, match=re.escape(
                "unknown config key gateway.providers.m.model")):
            RunConfig.from_obj(base, {"gateway.providers": json.dumps(
                {"m": {**entry, "model": "x"}})})

    def test_every_key_has_one_rule(self):
        """A new key cannot skip the load check: the rule table names every
        field and section key, and nothing else."""
        keys = set(RunConfig._fields)
        for name, default in RunConfig._field_defaults.items():
            if isinstance(default, dict):
                keys.update(f"{name}.{key}" for key in default)
        assert set(pipeline._RULES) == keys

    def test_numbers_kept_as_given(self):
        base = {"corpus": "x", "models": ["m"], "strategies": ["code/direct"]}
        cfg = RunConfig.from_obj(base, {"decoding.temperature": "1",
                                        "temperature_grid": "[0, 1.5]"})
        assert json.dumps(cfg.to_obj()["decoding"]["temperature"]) == "1"
        assert cfg.to_obj()["temperature_grid"] == [0, 1.5]
        assert RunConfig.from_obj(base).decoding["seed"] is None

    def test_overrides_leave_the_object_alone(self):
        obj = {"corpus": "x", "models": ["m"], "strategies": ["code/direct"],
               "gateway": {"mode": "mock"}}
        cfg = RunConfig.from_obj(obj, {"gateway.mode": "replay", "seed": "4"})
        assert (cfg.gateway["mode"], cfg.seed) == ("replay", 4)
        assert obj["gateway"] == {"mode": "mock"} and "seed" not in obj


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
        config = add_config(tmp_path, strategies=["code/direct"])
        gw = LadderGateway([GOOD_LEAN])
        orch = Orchestrator(config, gateway=gw,
                            verifier=LeanVerifier(transcripts=transcripts))
        chain = orch.run().chains[0]
        assert chain["final_status"] == "Success"
        assert chain["rounds"][0]["outcome"]["status"] == "Verified"
        assert chain["annotations"] == {}

    def test_tool_missing_stops_chain(self, tmp_path):
        config = add_config(tmp_path, strategies=["code/direct"], max_retries=3)
        gw = LadderGateway([GOOD_LEAN])
        orch = Orchestrator(config, gateway=gw,
                            verifier=LeanVerifier(transcripts={}))
        chain = orch.run().chains[0]
        assert chain["final_status"] == "Failure"
        assert len(chain["rounds"]) == 1
        assert chain["annotations"]["lean_unavailable"] is True
        assert chain["rounds"][0]["outcome"]["status"] == "ToolMissing"

    def test_compile_only_predicate_skips_guards(self, tmp_path):
        body = "import Std\n\n" + LEAN_BODY
        source = build_source(body, ADD, include_tests=False)
        transcripts = {source_digest(source): {"returncode": 0, "output": ""}}
        config = add_config(tmp_path, strategies=["code/direct"],
                            success={"lean": "compile-only"})
        gw = LadderGateway([GOOD_LEAN])
        orch = Orchestrator(config, gateway=gw,
                            verifier=LeanVerifier(transcripts=transcripts))
        chain = orch.run().chains[0]
        assert chain["final_status"] == "Success"

    def test_transcript_checks_leave_no_work_dirs(self, tmp_path, monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        transcripts = self.make_transcripts(
            "import Std\n\n" + LEAN_BODY, ADD, 1, "Candidate.lean:1:0: error: boom\n")
        config = add_config(tmp_path, strategies=["code/direct", "proof/unit-tests"],
                            max_retries=2)
        gw = LadderGateway([GOOD_LEAN])
        orch = Orchestrator(config, gateway=gw,
                            verifier=LeanVerifier(transcripts=transcripts))
        chains = orch.run().chains
        assert sum(len(c["rounds"]) for c in chains) == 6
        assert not [n for n in os.listdir(scratch) if n.startswith("bridge-lean-")]

    def test_failed_lean_retry_prompt_lists_diagnostics(self, tmp_path):
        output = "Candidate.lean:3:0: error: unknown identifier 'mystery'\n"
        transcripts = self.make_transcripts("import Std\n\n" + LEAN_BODY, ADD, 1, output)
        config = add_config(tmp_path, strategies=["code/direct"], max_retries=1)
        gw = LadderGateway([GOOD_LEAN])
        orch = Orchestrator(config, gateway=gw,
                            verifier=LeanVerifier(transcripts=transcripts))
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
        config = add_config(
            tmp_path, max_retries=1,
            spec_checks={"cross_feedback": True})
        gw = CrossFeedbackGateway([WRONG_PY, GOOD_PY], reply)
        orch = Orchestrator(config, gateway=gw,
                            verifier=LeanVerifier(transcripts=transcripts))
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
        # every byte of the refinement prompt feeds the mock and replay digests
        assert hashlib.sha256(retry_prompt.encode("utf-8")).hexdigest() == (
            "96497b268adc2335124ed458adcd50ba2c7ef1b450caa9a4841b0fe0805bb2c4")

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

    def two_translations(self, tmp_path, verifier):
        """The cross_feedback objects of two samples that get one translation."""
        config = add_config(tmp_path, max_retries=1,
                            decoding={"temperature": 0.7, "max_tokens": 512,
                                      "n_samples": 2},
                            spec_checks={"cross_feedback": True})
        gw = CrossFeedbackGateway([WRONG_PY, GOOD_PY], self.TRANSLATED)
        chains = Orchestrator(config, gateway=gw, verifier=verifier).run().chains
        assert [c["final_status"] for c in chains] == ["Success"] * 2
        assert [c["round"] for c in gw.calls].count("translate") == 2
        return [c["rounds"][0]["cross_feedback"] for c in chains]

    def test_repeated_translation_scaffolded_and_checked_once(self, tmp_path, monkeypatch):
        source = build_source("import Std\n\n" + LEAN_BODY, ADD, include_tests=False)
        output = "Candidate.lean:1:0: error: type mismatch\n"
        verifier = LeanVerifier(
            transcripts={source_digest(source): {"returncode": 1, "output": output}})
        calls = []
        for name in ("scaffold", "check"):
            def counted(*args, name=name, original=getattr(verifier, name), **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(verifier, name, counted)
        first, second = self.two_translations(tmp_path, verifier)
        assert calls == ["scaffold", "check"]
        assert first == second
        # one judgement of the translation, so one outcome dict
        assert first["outcome"] is second["outcome"]
        assert first["outcome"]["status"] == "CompileFailed"

    def test_live_verifier_compiles_every_translation(self, tmp_path):
        compiles = []

        def runner(argv, **kwargs):
            compiles.append(argv)
            return SimpleNamespace(returncode=1, stderr="",
                                   stdout="Candidate.lean:1:0: error: type mismatch\n")

        verifier = LeanVerifier(command=["true"], runner=runner,
                                workdir_factory=lambda: tmp_path / "work")
        first, second = self.two_translations(tmp_path, verifier)
        assert len(compiles) == 2
        assert first["outcome"]["status"] == second["outcome"]["status"] == "CompileFailed"


class TestSpecAnnotations:
    def test_contracts_and_vacuity_on_success(self, tmp_path):
        config = add_config(
            tmp_path,
            spec_checks={"contracts": True, "vacuity": True,
                         "trials": 10, "random_trials": 5})
        gw = LadderGateway([GOOD_PY])
        orch = Orchestrator(config, gateway=gw,
                            verifier=LeanVerifier(transcripts={}))
        chain = orch.run().chains[0]
        assert chain["final_status"] == "Success"
        assert chain["annotations"]["contracts"]["type"] == "contracts"
        assert chain["annotations"]["vacuity"]["verdict"] == "Vacuous"

    def test_vacuity_reuses_the_passing_judgement(self, tmp_path, monkeypatch):
        runs = []
        run_tests = pyexec.run_tests

        def counted(body, problem, **kwargs):
            runs.append(body)
            return run_tests(body, problem, **kwargs)

        monkeypatch.setattr(pyexec, "run_tests", counted)
        config = add_config(
            tmp_path, spec_checks={"contracts": False, "vacuity": True, "random_trials": 5})
        orch = Orchestrator(config, gateway=LadderGateway([GOOD_PY]),
                            verifier=LeanVerifier(transcripts={}))
        chain = orch.run().chains[0]
        assert chain["annotations"]["vacuity"]["verdict"] == "Vacuous"
        # the chain's own test run is vacuity's reference, not a second run
        assert len(runs) == 1

    def test_candidate_too_deep_to_mutate_is_no_mutants(self, tmp_path):
        # it compiles and passes, but rewriting its 400-term sum recurses
        # past the limit; the run completes all the same
        deep = "def addInts(a, b):\n    return a + b" + " + 0" * 400 + "\n"
        result, _ = run_spec_chain(
            tmp_path, [f"<python>\n{deep}</python>"],
            spec_checks={"contracts": False, "vacuity": True, "random_trials": 5})
        [chain] = result.chains
        assert chain["final_status"] == "Success"
        vacuity = chain["annotations"]["vacuity"]
        assert set(vacuity) == {"type", "verdict", "error"}
        assert vacuity["verdict"] == "NoMutants"
        assert vacuity["error"].startswith("cannot build mutants: RecursionError: ")

    def test_checks_get_the_configured_python_timeout(self, tmp_path, monkeypatch):
        seen = []

        def recorder(kind):
            def record(body, problem, **kwargs):
                seen.append((kind, kwargs.get("timeout")))
                return SimpleNamespace(to_obj=lambda: {"type": kind})
            return record

        monkeypatch.setattr(pyexec, "check_contracts", recorder("contracts"))
        monkeypatch.setattr(pyexec, "vacuity_check", recorder("vacuity"))
        config = add_config(
            tmp_path, python={"timeout": 7.5},
            spec_checks={"contracts": True, "vacuity": True})
        orch = Orchestrator(config, gateway=LadderGateway([GOOD_PY]),
                            verifier=LeanVerifier(transcripts={}))
        assert orch.run().chains[0]["final_status"] == "Success"
        assert seen == [("contracts", 7.5), ("vacuity", 7.5)]

    def test_no_annotations_on_failure(self, tmp_path):
        config = add_config(
            tmp_path,
            spec_checks={"contracts": True, "vacuity": True,
                         "trials": 10, "random_trials": 5},
            max_retries=0)
        gw = LadderGateway([WRONG_PY])
        orch = Orchestrator(config, gateway=gw,
                            verifier=LeanVerifier(transcripts={}))
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
        assert first is second

    def test_same_body_on_two_problems_checked_twice(self, tmp_path, monkeypatch):
        calls = self.count_calls(monkeypatch)
        again = ADD._replace(id="add-ints-again")
        config = make_config(tmp_path, corpus=write_corpus(tmp_path, ADD, again))
        orch = Orchestrator(config, gateway=LadderGateway([GOOD_PY]),
                            verifier=LeanVerifier(transcripts={}))
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


class TestJudgementReuse:
    """Each distinct (domain, problem, completion text) is judged once per run
    when its verdict is reusable, and its rounds share the judgement's dicts."""

    TWO_SAMPLES = {"temperature": 0.7, "max_tokens": 512, "n_samples": 2}
    BOOM = "Candidate.lean:3:0: error: boom\n"

    def run_lean(self, tmp_path, verifier, texts=(GOOD_LEAN,),
                 strategies=("code/direct",), **config_over):
        config = add_config(tmp_path, strategies=list(strategies),
                            decoding=self.TWO_SAMPLES, **config_over)
        orch = Orchestrator(config, gateway=LadderGateway(texts), verifier=verifier)
        return orch.run().chains

    def count_calls(self, monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def live_verifier(self, tmp_path, results):
        """A verifier whose compiles return (or raise) each of results in turn."""
        results = iter(results)
        calls = []

        def runner(argv, **kwargs):
            calls.append(argv)
            result = next(results)
            if isinstance(result, Exception):
                raise result
            return result

        verifier = LeanVerifier(command=["true"], runner=runner,
                                workdir_factory=lambda: tmp_path / "work")
        return verifier, calls

    def test_repeated_lean_text_scaffolded_and_checked_once(self, tmp_path, monkeypatch):
        source = build_source("import Std\n\n" + LEAN_BODY, ADD)
        verifier = LeanVerifier(
            transcripts={source_digest(source): {"returncode": 1, "output": self.BOOM}})
        scaffolds = self.count_calls(monkeypatch, verifier, "scaffold")
        checks = self.count_calls(monkeypatch, verifier, "check")
        chains = self.run_lean(tmp_path, verifier, max_retries=1)
        rounds = [r for chain in chains for r in chain["rounds"]]
        assert len(rounds) == 4
        assert len(scaffolds) == len(checks) == 1
        for key in ("artifact", "outcome"):
            assert all(r[key] == rounds[0][key] for r in rounds)
            # one judgement, so one object
            assert len({id(r[key]) for r in rounds}) == 1
        assert rounds[0]["outcome"]["status"] == "CompileFailed"

    def test_live_lean_compiles_every_round(self, tmp_path):
        failed = SimpleNamespace(returncode=1, stdout=self.BOOM, stderr="")
        verifier, calls = self.live_verifier(tmp_path, [failed] * 4)
        chains = self.run_lean(tmp_path, verifier, max_retries=1)
        assert sum(len(chain["rounds"]) for chain in chains) == len(calls) == 4

    def test_live_lean_timeout_is_never_kept(self, tmp_path):
        verifier, calls = self.live_verifier(tmp_path, [
            subprocess.TimeoutExpired(["lean"], 1.0),
            SimpleNamespace(returncode=0, stdout="", stderr=""),
        ])
        chains = self.run_lean(tmp_path, verifier, max_retries=0)
        assert len(calls) == 2
        assert [c["rounds"][0]["outcome"]["status"] for c in chains] == [
            "Timeout", "Verified"]

    def test_no_artifact_text_extracted_once(self, tmp_path, monkeypatch):
        calls = self.count_calls(monkeypatch, pipeline, "extract_artifacts")
        result, _ = run_spec_chain(
            tmp_path, [PROSE], decoding=self.TWO_SAMPLES, max_retries=1)
        assert [c["final_status"] for c in result.chains] == ["NoArtifact"] * 2
        assert sum(len(c["rounds"]) for c in result.chains) == 4
        assert len(calls) == 1

    def test_theorems_extracted_once_per_body_and_pathway(self, tmp_path, monkeypatch):
        calls = self.count_calls(monkeypatch, proofs, "extract_theorems")
        chains = self.run_lean(
            tmp_path, LeanVerifier(transcripts={}), texts=[PROOF_COMPLETION],
            strategies=["proof/unit-tests", "proof/natural-language"], max_retries=0)
        assert sorted(pathway for _, pathway in calls) == [
            "natural-language", "unit-tests"]
        for strategy in ("proof/unit-tests", "proof/natural-language"):
            first, second = (c["annotations"]["theorems"] for c in chains
                             if c["strategy"] == strategy)
            assert len(first) == 2
            assert first == second
            # one encoded list per (body, pathway), held read-only by each chain
            assert first is second

    def test_many_workers_judge_a_repeated_text_once(self, tmp_path, monkeypatch):
        calls = self.count_calls(monkeypatch, pyexec, "run_tests")
        config = add_config(tmp_path, parallelism=8, max_retries=0,
                            models=[f"mock-{i}" for i in range(8)])
        orch = Orchestrator(config, gateway=LadderGateway([GOOD_PY]),
                            verifier=LeanVerifier(transcripts={}))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            chains = orch.run().chains
        finally:
            sys.setswitchinterval(interval)
        assert [c["final_status"] for c in chains] == ["Success"] * 8
        assert len(calls) == 1

    def test_claimant_exception_reaches_every_waiter(self, tmp_path, monkeypatch):
        looked, release = [], threading.Event()
        calls = []

        class Claims(dict):
            """Releases the check once all four workers have looked up the key."""

            def get(self, key, default=None):
                looked.append(key)
                if len(looked) == 4:
                    release.set()
                return super().get(key, default)

        def failing(body, problem, **kwargs):
            calls.append(body)
            release.wait(5)
            raise RuntimeError("sandbox lost")

        monkeypatch.setattr(pyexec, "run_tests", failing)
        orch = Orchestrator(add_config(tmp_path), gateway=LadderGateway([GOOD_PY]),
                            verifier=LeanVerifier(transcripts={}))
        orch._judged = Claims()
        errors = []

        def judge():
            try:
                orch._judge("spec", ADD, GOOD_PY)
            except RuntimeError as exc:
                errors.append(str(exc))

        workers = [threading.Thread(target=judge) for _ in range(4)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(10)
        assert not any(thread.is_alive() for thread in workers)
        assert errors == ["sandbox lost"] * 4
        assert len(calls) == 1 and orch._judged == {}

    def test_many_workers_write_the_same_bytes(self, tmp_path):
        source = build_source("import Std\n\n" + LEAN_BODY, ADD)
        verifier = LeanVerifier(
            transcripts={source_digest(source): {"returncode": 1, "output": self.BOOM}})
        outputs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for parallelism in (1, 8):
                config = add_config(
                    tmp_path, parallelism=parallelism, max_retries=2,
                    models=[f"mock-{i}" for i in range(8)],
                    strategies=["code/direct", "proof/unit-tests"],
                    decoding=self.TWO_SAMPLES)
                orch = Orchestrator(
                    config, gateway=LadderGateway([GOOD_LEAN, PROSE, GOOD_LEAN]),
                    verifier=verifier)
                result = orch.run()
                outputs.append((result.run_dir / "chains.jsonl").read_bytes())
        finally:
            sys.setswitchinterval(interval)
        assert outputs[0] == outputs[1]
        rounds = [r for chain in result.chains for r in chain["rounds"]]
        judged = [r["outcome"] for r in rounds if r["outcome"] is not None]
        assert len(rounds) == 96 and len(judged) == 64
        # two judgements: the Lean text as code and as a proof
        assert len({id(outcome) for outcome in judged}) == 2


class DigestLadderGateway(LadderGateway):
    """A LadderGateway that says it answers by digest, as it does: its answer
    is a function of the prompt."""

    answers_by_digest = True


def distinct_tails(chains):
    """(domain, problem, model, failed text, round) of every round a retry
    followed, without repeats."""
    return {
        (StrategyId.parse(chain["strategy"]).domain, chain["problem"], chain["model"],
         round_obj["completion"]["text"], round_obj["round"])
        for chain in chains for round_obj in chain["rounds"][:-1]
    }


class TestSharedTails:
    """When the gateway answers by digest, the rounds after a failed round
    are made once per (domain, problem, model, failed text, round)."""

    TWO_SAMPLES = {"temperature": 0.7, "max_tokens": 512, "n_samples": 2}

    def test_live_gateway_asks_for_each_chains_retry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BRIDGE_ACME_KEY", "k-test")
        prompts = []

        def transport(endpoint, api_key, model_id, prompt, params, n):
            prompts.append(prompt)
            return [(GOOD_PY if "# RETRY ATTEMPT" in prompt else WRONG_PY, None)] * n

        gateway = ModelGateway(
            "live", transport=transport,
            providers={"mock-m": {"provider": "acme", "endpoint": "https://x.test"}})
        assert not gateway.answers_by_digest
        config = add_config(tmp_path, decoding=self.TWO_SAMPLES, max_retries=1)
        chains = Orchestrator(config, gateway=gateway,
                              verifier=LeanVerifier(transcripts={})).run().chains
        assert [c["final_status"] for c in chains] == ["Success"] * 2
        retries = [prompt for prompt in prompts if "# RETRY ATTEMPT" in prompt]
        assert len(retries) == 2 and retries[0] == retries[1]
        assert chains[0]["rounds"][1] is not chains[1]["rounds"][1]

    @pytest.mark.parametrize("fault, retries", [(None, 1), ("Timeout", 2), ("Crash", 2)])
    def test_tail_with_a_host_fault_is_not_kept(self, tmp_path, monkeypatch, fault, retries):
        checked = []
        run_tests = pyexec.run_tests

        def faulty(body, problem, **kwargs):
            checked.append(body)
            if fault and "a * b" in body:
                return pyexec.TestOutcome(total=2, passed=0, fault=fault)
            return run_tests(body, problem, **kwargs)

        monkeypatch.setattr(pyexec, "run_tests", faulty)
        gateway = DigestLadderGateway([WRONG_PY, WRONG_PY_2])
        config = add_config(tmp_path, decoding=self.TWO_SAMPLES, max_retries=1)
        chains = Orchestrator(config, gateway=gateway,
                              verifier=LeanVerifier(transcripts={})).run().chains
        assert [len(c["rounds"]) for c in chains] == [2, 2]
        assert [call["round"] for call in gateway.calls].count(2) == retries
        assert len(checked) == 1 + retries
        assert (chains[0]["rounds"][1] is chains[1]["rounds"][1]) == (fault is None)

    @pytest.mark.parametrize("gateway_class", [LadderGateway, DigestLadderGateway],
                             ids=["live", "by-digest"])
    def test_deep_retry_budget_runs_to_its_end(self, tmp_path, gateway_class):
        # more retries than a chain of calls per round could nest
        retries = 600
        gateway = gateway_class([WRONG_PY])
        config = add_config(tmp_path, decoding=self.TWO_SAMPLES, max_retries=retries)
        chains = Orchestrator(config, gateway=gateway,
                              verifier=LeanVerifier(transcripts={})).run().chains
        assert [c["final_status"] for c in chains] == ["Failure"] * 2
        assert [len(c["rounds"]) for c in chains] == [retries + 1] * 2
        assert [r["round"] for r in chains[0]["rounds"]] == list(range(1, retries + 2))

    @pytest.mark.parametrize("path, over", [
        ("fixtures/configs/e2e.json",
         {"problems": '["climbing-stairs", "count-leaves", "majority-element"]'}),
        ("fixtures/configs/mini_replay.json", {}),
    ], ids=["mock", "replay"])
    def test_many_workers_write_the_same_bytes(self, tmp_path, monkeypatch, path, over):
        renders = []
        render_retry = TemplateCatalog.render_retry

        def counted(self, *args, **kwargs):
            renders.append(args)
            return render_retry(self, *args, **kwargs)

        monkeypatch.setattr(TemplateCatalog, "render_retry", counted)
        outputs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for parallelism in (1, 8):
                renders.clear()
                config = RunConfig.from_file(path, {
                    **over, "parallelism": str(parallelism),
                    "runs_root": str(tmp_path / f"runs-{parallelism}")})
                result = Orchestrator(config).run()
                outputs.append((result.run_dir / "chains.jsonl").read_bytes())
                assert len(renders) == len(distinct_tails(result.chains)) > 0
        finally:
            sys.setswitchinterval(interval)
        assert outputs[0] == outputs[1]


class TestMetaEmission:
    def test_meta_written_for_proof_chains(self, tmp_path):
        config = add_config(
            tmp_path,
            strategies=["proof/unit-tests", "proof/natural-language"],
            intersection_threshold=2,
            max_retries=0)
        gw = LadderGateway([PROOF_COMPLETION])
        orch = Orchestrator(config, gateway=gw,
                            verifier=LeanVerifier(transcripts={}))
        result = orch.run()
        for chain in result.chains:
            names = [t["name"] for t in chain["annotations"]["theorems"]]
            assert names == ["addInts_correct", "addInts_terminates"]
        meta_path = result.run_dir / "meta" / "add-ints.json"
        assert meta_path.exists()
        obj = json.loads(meta_path.read_text(encoding="utf-8"))
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
        config = add_config(
            tmp_path, models=["mock-b", "mock-a"],
            decoding={"temperature": 0.7, "max_tokens": 512, "n_samples": 2})
        gw = LadderGateway([GOOD_PY])
        orch = Orchestrator(config, gateway=gw,
                            verifier=LeanVerifier(transcripts={}))
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
            config = add_config(
                tmp_path, parallelism=parallelism,
                models=["mock-a", "mock-b"],
                decoding={"temperature": 0.7, "max_tokens": 512, "n_samples": 2})
            gw = LadderGateway([WRONG_PY, GOOD_PY])
            orch = Orchestrator(config, gateway=gw,
                                verifier=LeanVerifier(transcripts={}))
            results.append(orch.run())
        a = (results[0].run_dir / "chains.jsonl").read_bytes()
        b = (results[1].run_dir / "chains.jsonl").read_bytes()
        assert a == b

    def test_config_problem_filter_unknown_id(self, tmp_path):
        config = make_config(tmp_path, problems=["no-such-problem"])
        with pytest.raises(ConfigError):
            Orchestrator(config, gateway=LadderGateway([GOOD_PY]),
                         verifier=LeanVerifier(transcripts={}))


class FailingGateway:
    """A provider that is down: every request raises, and is counted."""

    def __init__(self):
        self.calls = 0

    def complete_n(self, model_id, prompt, params):
        self.calls += 1
        raise GatewayError("provider is down")


class TestCellPool:
    def mini_replay(self, tmp_path, parallelism):
        return RunConfig.from_file("fixtures/configs/mini_replay.json", {
            "runs_root": json.dumps(str(tmp_path / "runs")), "parallelism": str(parallelism)})

    def test_failed_cell_stops_the_run(self, tmp_path):
        gateway = FailingGateway()
        orch = Orchestrator(self.mini_replay(tmp_path, 1), gateway=gateway)
        assert len(orch.cells()) == 12
        with pytest.raises(GatewayError, match="provider is down"):
            orch.run()
        assert gateway.calls == 1
        assert not (tmp_path / "runs").exists()

    def test_each_worker_stops_at_a_failure(self, tmp_path):
        gateway = FailingGateway()
        orch = Orchestrator(self.mini_replay(tmp_path, 2), gateway=gateway)
        with pytest.raises(GatewayError):
            orch.run()
        assert gateway.calls <= 2

    def test_earliest_failed_cell_is_raised(self):
        later_failed, later_thread = threading.Event(), []

        def run(index):
            if index == 1:
                later_thread.append(threading.current_thread())
                later_failed.set()
                raise ValueError("cell 1")
            if index == 0:
                # fail only once cell 1's worker has failed and ended
                assert later_failed.wait(5)
                later_thread[0].join(5)
                raise ValueError("cell 0")
            return index

        with pytest.raises(ValueError, match="cell 0"):
            pipeline._map_cells(run, [(i,) for i in range(6)], 2)
        assert not later_thread[0].is_alive()

    def test_results_keep_cell_order(self):
        def run(index):
            time.sleep((index * 7 % 5) / 1000)
            return index

        cells = [(i,) for i in range(20)]
        assert pipeline._map_cells(run, cells, 3) == list(range(20))
        assert pipeline._map_cells(run, [], 3) == []


class TestSweep:
    def config(self, tmp_path, **over):
        # no transcripts, so each chain stops at its first Lean check
        return make_config(tmp_path, strategies=["code/direct"],
                           problems=["climbing-stairs"], **over)

    def sweep(self, config):
        return list(execute(config, gateway=LadderGateway([GOOD_LEAN]),
                            verifier=LeanVerifier(transcripts={})))

    def test_sweep_runs_one_per_temperature(self, tmp_path):
        results = self.sweep(self.config(tmp_path, temperature_grid=[0.3, 0.9], seed=6))
        ids = [r.run_id for r in results]
        assert sorted(os.listdir(tmp_path / "runs")) == sorted(ids)
        assert [r.run_dir.name for r in results] == ids
        assert results[0].run_id.endswith("-t0")
        assert results[1].run_id.endswith("-t1")
        manifests = [json.loads((r.run_dir / "manifest.json").read_text())
                     for r in results]
        assert manifests[0]["config"]["decoding"]["temperature"] == 0.3
        assert manifests[1]["config"]["decoding"]["temperature"] == 0.9
        # per-point seeds derive from the base seed by index
        assert manifests[0]["config"]["decoding"]["seed"] == 6 ^ 0
        assert manifests[1]["config"]["decoding"]["seed"] == 6 ^ 1
        # a point's config is a plain run: replaying it runs once
        assert all(m["config"]["temperature_grid"] == [] for m in manifests)

    def test_explicit_decoding_seed_is_the_base(self, tmp_path):
        decoding = {"temperature": 0.7, "max_tokens": 512, "n_samples": 1, "seed": 9}
        config = self.config(tmp_path, temperature_grid=[0.3, 0.9], seed=6,
                             decoding=decoding)
        seeds = [point.decoding_seed for _, point in config.points()]
        assert seeds == [9 ^ 0, 9 ^ 1]

    def test_empty_grid_runs_once(self, tmp_path):
        [result] = self.sweep(self.config(tmp_path))
        assert result.run_dir.name == result.run_id
        assert not result.run_id.endswith("-t0")

    def test_point_dirs_never_overwritten(self, tmp_path):
        config = self.config(tmp_path, temperature_grid=[0.3])
        first, second = self.sweep(config) + self.sweep(config)
        assert first.run_id == second.run_id
        assert second.run_dir.name == first.run_id + "-2"

    def test_sweep_reads_a_replay_archive_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BRIDGE_ACME_KEY", "k-test")
        archive = tmp_path / "archive"
        recorder = ModelGateway(
            "record", archive_dir=archive, transport=lambda *request: [(GOOD_LEAN, None)],
            providers={"mock-m": {"provider": "acme", "endpoint": "https://x.test"}})
        grid = {"temperature_grid": [0.3, 0.9]}
        recorded = list(execute(self.config(tmp_path, **grid), gateway=recorder,
                                verifier=LeanVerifier(transcripts={})))
        reads = []
        read_text = Path.read_text

        def counted(path, *args, **kwargs):
            if path.parent == archive:
                reads.append(path.name)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counted)
        config = self.config(tmp_path, runs_root=str(tmp_path / "replayed"), **grid,
                             gateway={"mode": "replay", "archive_dir": str(archive)})
        replayed = list(execute(config, verifier=LeanVerifier(transcripts={})))
        # one gateway serves every point, so its one pass reads each file once
        assert len(reads) == 2
        assert sorted(reads) == sorted(path.name for path in archive.iterdir())
        assert [(r.run_dir / "chains.jsonl").read_bytes() for r in replayed] == [
            (r.run_dir / "chains.jsonl").read_bytes() for r in recorded]

    def test_orchestrator_refuses_a_grid(self, tmp_path):
        config = self.config(tmp_path, temperature_grid=[0.3, 0.9])
        with pytest.raises(ConfigError, match="temperature_grid"):
            Orchestrator(config, gateway=LadderGateway([GOOD_LEAN]),
                         verifier=LeanVerifier(transcripts={}))


class TestWriteReport:
    def test_report_written_from_run_dir(self, tmp_path):
        result, _ = run_spec_chain(tmp_path, [GOOD_PY], k_ladder=[1])
        write_report(result.run_dir)
        rows = (result.run_dir / "report" / "rows.csv").read_text(encoding="utf-8")
        assert "pass@1" in rows.splitlines()[0]
        assert "spec/direct" in rows
        assert (result.run_dir / "report" / "curves.jsonl").exists()

    def test_ladder_read_from_manifest(self, tmp_path):
        result, _ = run_spec_chain(tmp_path, [GOOD_PY], k_ladder=[1])
        manifest_path = result.run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["config"]["k_ladder"] = [1, 2]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        write_report(result.run_dir)
        header = (result.run_dir / "report" / "rows.csv").read_text(
            encoding="utf-8").splitlines()[0]
        assert "pass@2" in header

    def test_rejects_non_run_dir(self, tmp_path):
        with pytest.raises(ConfigError):
            write_report(tmp_path)


def report_chain(sample, status="Failure", text="answer", classes=("Type",)):
    outcome = {"type": "lean", "status": "CompileFailed", "error_classes": list(classes)}
    return {
        "annotations": {},
        "final_status": status,
        "model": "mock-m",
        "problem": "add-ints",
        "rounds": [{"round": 1, "prompt_digest": "0" * 64,
                    "completion": {"text": text, "reported_tokens": None, "latency": 0.0},
                    "artifact": None, "words": 3, "tokens": 4, "outcome": outcome}],
        "sample_index": sample,
        "strategy": "code/direct",
    }


class TestReadChains:
    """write_report streams chains.jsonl and gives the bytes a full decode gives."""

    CONFIG = {"decoding": {"temperature": 0.7}, "k_ladder": [1, 2]}

    def run_dir(self, tmp_path, lines):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text(
            json.dumps({"config": self.CONFIG}), encoding="utf-8")
        (run_dir / "chains.jsonl").write_text("".join(line + "\n" for line in lines),
                                              encoding="utf-8")
        return run_dir

    def assert_report_as_decoded(self, tmp_path, run_dir, config=CONFIG):
        lines = (run_dir / "chains.jsonl").read_text(encoding="utf-8").splitlines()
        decoded = [json.loads(line) for line in lines if line.strip()]
        read = list(pipeline._read_chains(run_dir / "chains.jsonl"))
        assert read == decoded
        assert len({id(chain) for chain in read}) == len(read)
        write_report(run_dir)
        want = tmp_path / "want"
        metrics.emit_report(decoded, config, want, k_ladder=config["k_ladder"])
        for name in ("rows.csv", "curves.jsonl"):
            assert (run_dir / "report" / name).read_bytes() == (want / name).read_bytes()
        return read

    def test_lines_that_differ_only_in_sample_index(self, tmp_path):
        lines = [pipeline._canonical(report_chain(s)) for s in range(3)]
        lines.append(pipeline._canonical(report_chain(3, "Success", "other", ())))
        read = self.assert_report_as_decoded(tmp_path, self.run_dir(tmp_path, lines))
        assert [chain["sample_index"] for chain in read] == [0, 1, 2, 3]
        # a repeat is decoded once and its copies share its nested objects
        assert read[0]["rounds"] is read[1]["rounds"] is read[2]["rounds"]
        assert read[3]["rounds"] is not read[0]["rounds"]

    def test_text_that_mimics_the_line_end(self, tmp_path):
        text = 'x,"sample_index":7,"strategy":"proof/direct"}'
        lines = [pipeline._canonical(report_chain(s, text=text)) for s in (4, 9)]
        assert ',\\"sample_index\\":7' in lines[0]
        read = self.assert_report_as_decoded(tmp_path, self.run_dir(tmp_path, lines))
        assert [chain["sample_index"] for chain in read] == [4, 9]
        assert [chain["strategy"] for chain in read] == ["code/direct"] * 2
        assert read[0]["rounds"][0]["completion"]["text"] == text

    def test_non_canonical_line_is_decoded_as_is(self, tmp_path):
        chain = report_chain(3, "Success", classes=())
        spaced = json.dumps(dict(reversed(list(chain.items()))))
        assert '"sample_index": 3' in spaced
        lines = [pipeline._canonical(report_chain(s)) for s in range(3)] + [spaced]
        read = self.assert_report_as_decoded(tmp_path, self.run_dir(tmp_path, lines))
        assert [chain["final_status"] for chain in read] == ["Failure"] * 3 + ["Success"]

    def test_blank_lines_are_skipped(self, tmp_path):
        lines = ["", pipeline._canonical(report_chain(0)), "  ",
                 pipeline._canonical(report_chain(1)), ""]
        read = self.assert_report_as_decoded(tmp_path, self.run_dir(tmp_path, lines))
        assert [chain["sample_index"] for chain in read] == [0, 1]

    def test_mini_replay_run(self, tmp_path):
        config = RunConfig.from_file("fixtures/configs/mini_replay.json",
                                     {"runs_root": json.dumps(str(tmp_path / "runs"))})
        (result,) = execute(config)
        read = self.assert_report_as_decoded(tmp_path, result.run_dir,
                                             result.manifest["config"])
        assert len(read) == len(result.chains)

    @pytest.mark.parametrize("seed", range(4))
    def test_chain_writer_and_reader_are_inverses(self, tmp_path, seed):
        """Chains written as Orchestrator.run writes them read back equal,
        each line the chain's canonical JSON, with rounds shared between
        chains or not and texts that mimic a line's end."""
        rng = random.Random(seed)
        texts = ["plain answer", 'x,"sample_index":3,"strategy":"code/direct"}',
                 ',"sample_index":', '"strategy"', 'tail "strategy":"spec/direct"}\n',
                 "back\\slash ,\"sample_index\":0"]

        def round_obj(number):
            return {"round": number, "prompt_digest": f"{rng.getrandbits(64):016x}",
                    "completion": {"text": rng.choice(texts), "reported_tokens": None,
                                   "latency": 0.0},
                    "artifact": None, "words": rng.randint(0, 9), "tokens": 4,
                    "outcome": rng.choice([None, {"type": "python", "fault": None}])}

        shared = [round_obj(2) for _ in range(3)]
        chains = []
        for problem in ("p-a", "p-b"):
            for strategy in ("code/direct", "spec/direct"):
                for model in ("m-1", "m-2"):
                    for sample in range(rng.randint(1, 4)):
                        if sample and rng.random() < 0.5:  # a shared chain's copy
                            chains.append({**chains[-1], "sample_index": sample})
                            continue
                        rounds = [round_obj(1)] + rng.sample(shared, rng.randint(0, 2))
                        chains.append({
                            "problem": problem, "strategy": strategy, "model": model,
                            "sample_index": sample, "rounds": rounds,
                            "final_status": rng.choice(["Success", "Failure", "NoArtifact"]),
                            "annotations": {"note": rng.choice(texts)},
                        })
        encoded = {}

        def encode_round(round_obj):
            text = encoded.get(id(round_obj))
            if text is None:
                text = encoded[id(round_obj)] = pipeline._canonical(round_obj)
            return text

        lines = [pipeline._chain_line(chain, encode_round) for chain in chains]
        assert lines == [pipeline._canonical(chain) for chain in chains]
        path = tmp_path / "chains.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert list(pipeline._read_chains(path)) == chains

    @pytest.mark.parametrize("last, wrong", [
        (pipeline._canonical(report_chain(2))[:-40], "not a JSON line"),
        (pipeline._canonical({k: v for k, v in report_chain(2).items() if k != "strategy"}),
         "strategy is missing or not a string"),
        ("[1, 2]", "not a JSON object"),
        (pipeline._canonical({**report_chain(2), "rounds": {}}),
         "rounds is missing or not a list of objects"),
        (b"\xff\xfe{}", "not a JSON line"),
    ], ids=["truncated", "no-strategy", "array", "rounds-object", "not-utf8"])
    def test_damaged_line_is_a_config_error(self, tmp_path, last, wrong):
        run_dir = self.run_dir(tmp_path, [pipeline._canonical(report_chain(s)) for s in (0, 1)])
        with open(run_dir / "chains.jsonl", "ab") as fh:
            fh.write(last if isinstance(last, bytes) else last.encode())
        with pytest.raises(ConfigError, match=re.escape(f"chains.jsonl:3: {wrong}")):
            write_report(run_dir)
        assert not (run_dir / "report").exists()
