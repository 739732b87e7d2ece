import pathlib

import pytest

from bridge.errors import NoArtifactError, TemplateError
from bridge.prompts import (
    StrategyId,
    TemplateCatalog,
    extract_artifacts,
    list_strategies,
    problem_values,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "data" / "goldens"

FORBIDDEN = ("{{", "}}", "[SWAP:")


class TestStrategyTaxonomy:
    def test_count(self):
        assert len(list_strategies()) == 22

    def test_domain_counts(self):
        assert len(list_strategies("code")) == 9
        assert len(list_strategies("spec")) == 8
        assert len(list_strategies("proof")) == 5

    def test_parse_and_key(self):
        s = StrategyId.parse("code/haskell-functional")
        assert s.domain == "code" and s.name == "haskell-functional"
        assert s.key == "code/haskell-functional"

    def test_unknown_rejected(self):
        with pytest.raises(TemplateError):
            StrategyId(domain="code", name="brainfuck")
        with pytest.raises(TemplateError):
            StrategyId.parse("no-slash")


class TestProblemValues:
    def test_binders_and_signature(self, by_id):
        values = problem_values(by_id["count-components"])
        assert values["function_params"] == "(n : Int) (edges : List (List Int))"
        assert values["function_signature"] == (
            "countComponents (n : Int) (edges : List (List Int)) : Int"
        )
        assert values["python_signature"] == "countComponents(n, edges)"
        assert values["param_names"] == "n edges"

    def test_unit_test_lines(self, by_id):
        values = problem_values(by_id["climbing-stairs"])
        assert "- climbStairs(2) == 2" in values["unit_tests"]


class TestGoldenPrompts:
    def test_corpus_of_goldens_is_complete(self):
        files = sorted(GOLDENS.rglob("*.txt"))
        assert len(files) == 264  # 22 strategies x 12 problems

    def test_renders_match_goldens_byte_for_byte(self, corpus):
        catalog = TemplateCatalog()
        checked = 0
        for strategy in list_strategies():
            for problem in corpus:
                golden = GOLDENS / strategy.domain / strategy.name / f"{problem.id}.txt"
                rendered = catalog.render(strategy, problem)
                assert rendered == golden.read_text(encoding="utf-8"), (
                    f"{strategy.key} x {problem.id} drifted from golden"
                )
                checked += 1
        assert checked == 264

    def test_no_unsubstituted_placeholders(self):
        for path in GOLDENS.rglob("*.txt"):
            text = path.read_text(encoding="utf-8")
            for token in FORBIDDEN:
                assert token not in text, f"{path} still contains {token!r}"

    def test_strategy_descriptor_lines_present(self, by_id):
        catalog = TemplateCatalog()
        problem = by_id["majority-element"]
        samples = {
            "code/direct": "Direct: Solve directly in Lean4",
            "code/python-bridge": "Python Bridge: Reason in Python logic first, then translate",
            "code/haskell-functional": (
                "Haskell Functional: Use pattern matching, recursion, type-driven development"
            ),
            "code/ocaml-type-guided": (
                "OCaml Type-Guided: Emphasize type safety and mathematical invariants"
            ),
            "code/double-lean": "Double Lean: Reason mathematically in Lean style, then implement",
            "code/cpp-imperative": (
                "C++ Imperative: Use procedural logic, then translate to functional Lean4"
            ),
        }
        for key, needle in samples.items():
            rendered = catalog.render(StrategyId.parse(key), problem)
            assert needle in rendered


class TestRetryPrompt:
    def test_header_and_sections(self):
        catalog = TemplateCatalog()
        prompt = catalog.render_retry(
            "def f := 1", ["type mismatch at foo"], round_index=2, max_rounds=3
        )
        assert "# RETRY ATTEMPT 2/3" in prompt
        assert "## Previous Python/Lean Code (FAILED)" in prompt
        assert "## Error Messages and Feedback" in prompt
        assert "- type mismatch at foo" in prompt
        for token in FORBIDDEN:
            assert token not in prompt

    def test_empty_errors_placeholder(self):
        catalog = TemplateCatalog()
        prompt = catalog.render_retry("x", [], round_index=1, max_rounds=1)
        assert "(no diagnostics captured)" in prompt

    def test_round_bounds_enforced(self):
        catalog = TemplateCatalog()
        with pytest.raises(TemplateError):
            catalog.render_retry("x", [], round_index=0, max_rounds=3)
        with pytest.raises(TemplateError):
            catalog.render_retry("x", [], round_index=4, max_rounds=3)


class TestExtraction:
    def test_lean_fenced_block(self):
        completion = "thinking...\n```lean\nimport Std\n\ndef f : Int := 1\n```\n"
        arts = extract_artifacts(completion, "code")
        assert arts[0].kind == "LeanSource"
        assert arts[0].body == "import Std\n\ndef f : Int := 1"

    def test_last_fenced_block_wins(self):
        completion = (
            "```lean\ndef old : Int := 0\n```\nrevised:\n"
            "```lean\ndef new : Int := 1\n```\n"
        )
        arts = extract_artifacts(completion, "code")
        assert "new" in arts[0].body and "old" not in arts[0].body

    def test_bare_import_std_fallback(self):
        completion = "Here you go:\nimport Std\n\ndef f : Int := 2\n"
        arts = extract_artifacts(completion, "code")
        assert arts[0].body.startswith("import Std")

    def test_theorem_subspans(self):
        completion = (
            "```lean\nimport Std\n\ndef f : Int := 1\n\n"
            "theorem f_correct : f = f := rfl\n```\n"
        )
        # theorems stay inside the one LeanSource; proofs.extract_theorems reads them
        arts = extract_artifacts(completion, "proof")
        assert [a.kind for a in arts] == ["LeanSource"]
        assert "theorem f_correct" in arts[0].body

    def test_python_blocks_all_returned_in_order(self):
        completion = (
            "<python>\ndef f():\n    return 1\n</python>\n"
            "wait, better:\n<python>\ndef f():\n    return 2\n</python>\n"
        )
        arts = extract_artifacts(completion, "spec")
        assert len(arts) == 2
        assert all(a.kind == "PythonSource" for a in arts)
        assert "return 2" in arts[-1].body

    def test_span_identity(self):
        body = "def f():\n    return 1\n"
        completion = f"prelude\n<python>\n{body}</python>\n"
        art = extract_artifacts(completion, "spec")[0]
        start, end = art.span
        assert completion[start:end] == art.body

    def test_no_artifact_raises(self):
        with pytest.raises(NoArtifactError):
            extract_artifacts("just prose, no code at all", "code")
        with pytest.raises(NoArtifactError):
            extract_artifacts("```lean\ndef f := 1\n```", "spec")
