import json

import pytest

from bridge.proofs import (
    TheoremCandidate,
    categorize,
    emit_meta_analysis,
    extract_theorems,
    intersect,
)

SOURCE = """import Std

def solve (nums : List Int) : Int :=
  nums.foldl (· + ·) 0

theorem solve_correct (nums : List Int) :
    solve nums = nums.foldl (· + ·) 0 := by
  rfl

theorem solve_upper (nums : List Int) :
    solve nums ≤ nums.length * 1000000 := by
  sorry

theorem solve_terminates (nums : List Int) :
    ∃ output : Int, solve nums = output := by
  exact ⟨_, rfl⟩

#guard solve [1, 2] == 3 -- test 0
"""


class TestExtract:
    def test_names_and_count(self):
        cands = extract_theorems(SOURCE, "alpha")
        assert [c.name for c in cands] == [
            "solve_correct", "solve_upper", "solve_terminates",
        ]
        assert all(c.pathway == "alpha" for c in cands)

    def test_multiline_statement_preserved(self):
        cands = extract_theorems(SOURCE, "p")
        stmt = cands[0].statement
        assert stmt.startswith("theorem solve_correct")
        assert "solve nums = nums.foldl" in stmt
        assert ":= by" not in stmt and "rfl" not in stmt

    def test_sorry_detection_is_per_body(self):
        cands = {c.name: c for c in extract_theorems(SOURCE, "p")}
        assert cands["solve_upper"].has_sorry is True
        assert cands["solve_correct"].has_sorry is False
        assert cands["solve_terminates"].has_sorry is False

    def test_inline_by_sorry(self):
        src = "theorem t (n : Nat) : n = n := by sorry\n"
        cands = extract_theorems(src, "p")
        assert len(cands) == 1 and cands[0].has_sorry

    def test_theorem_in_word_not_matched(self):
        src = "-- this theorem_like comment mentions mytheorem x\ndef f : Int := 1\n"
        assert extract_theorems(src, "p") == []

    def test_declaration_ends_at_next_top_level(self):
        src = (
            "theorem a_correct : True := by\n"
            "  trivial\n"
            "\n"
            "def helper : Int := 3\n"
        )
        cands = extract_theorems(src, "p")
        assert len(cands) == 1
        assert "helper" not in cands[0].statement

    def test_empty_source(self):
        assert extract_theorems("", "p") == []


class TestCategorize:
    def test_rules(self):
        assert categorize("solve_correct", "theorem solve_correct : True") == ["Correctness"]
        assert categorize("t", "theorem t : a ≤ b") == ["Bounds"]
        assert categorize("t_bound", "theorem t_bound : True") == ["Bounds"]
        assert categorize("t", "theorem t : f is monotone") == ["Monotonicity"]
        assert categorize("loop_invariant_holds", "x") == ["InvariantPreservation"]
        assert categorize("t", "result is optimal") == ["Optimality"]
        assert categorize("solve_terminates", "x") == ["Termination"]
        assert categorize("t", "WellFounded.fix recursion") == ["Termination"]
        assert categorize("t", "∃ output : Int, f x = output") == ["Termination"]

    def test_case_sensitivity_split(self):
        # the two structural needles stay case-sensitive
        assert categorize("t", "wellfounded mention") == ["Other"]
        assert "Termination" in categorize("t", "WellFounded mention")
        # textual needles are case-insensitive
        assert categorize("t", "MONOTONE growth") == ["Monotonicity"]

    def test_multi_label(self):
        got = categorize("f_correct", "theorem f_correct : f n ≤ bound n")
        assert set(got) == {"Bounds", "Correctness"}

    def test_fallback_other(self):
        assert categorize("mystery", "theorem mystery : True") == ["Other"]

    def test_all_outputs_are_known_categories(self):
        for name in ("a_correct", "b_bound", "c_terminates", "weird"):
            for cat in categorize(name, "statement"):
                assert cat in {"Correctness", "Bounds", "Termination", "Monotonicity",
                               "InvariantPreservation", "Optimality", "Other"}


def cand(name, statement, pathway, cats, has_sorry=False):
    return TheoremCandidate(
        name=name,
        statement=statement,
        pathway=pathway,
        categories=frozenset(cats),
        has_sorry=has_sorry,
    )


def five_pathways():
    groups = {}
    # Correctness proposed by all five, Bounds by three, Termination by two,
    # and one category unique to a single pathway each for two pathways.
    for i, pathway in enumerate(
        ["natural-language", "unit-tests", "code-analysis", "type-guided", "termination"]
    ):
        cands = [cand("solve_correct", "theorem solve_correct : True", pathway,
                      ["Correctness"])]
        if i < 3:
            cands.append(cand("solve_upper", "theorem solve_upper : a ≤ b",
                              pathway, ["Bounds"]))
        if i < 2:
            cands.append(cand("solve_terminates",
                              "theorem solve_terminates : ∃ output : Int, f = output",
                              pathway, ["Termination"]))
        if pathway == "type-guided":
            cands.append(cand("solve_monotone", "theorem solve_monotone : monotone f",
                              pathway, ["Monotonicity"]))
        if pathway == "termination":
            cands.append(cand("solve_optimal", "theorem solve_optimal : optimal f",
                              pathway, ["Optimality"]))
        groups[pathway] = cands
    return groups


class TestIntersect:
    def test_threshold_three(self):
        report = intersect(five_pathways(), threshold=3)
        assert report.common_concepts == ("Bounds", "Correctness")
        assert report.threshold == 3
        assert len(report.pathways) == 5

    def test_threshold_one_keeps_everything(self):
        report = intersect(five_pathways(), threshold=1)
        assert set(report.common_concepts) == {
            "Bounds", "Correctness", "Termination", "Monotonicity", "Optimality",
        }

    def test_threshold_five_keeps_unanimous_only(self):
        report = intersect(five_pathways(), threshold=5)
        assert report.common_concepts == ("Correctness",)

    def test_robust_carrier_is_lexicographically_first(self):
        groups = {
            "a": [cand("zeta_correct", "theorem zeta_correct : A", "a", ["Correctness"])],
            "b": [cand("alpha_correct", "theorem alpha_correct : B", "b", ["Correctness"])],
        }
        report = intersect(groups, threshold=2)
        assert report.robust[0].name == "alpha_correct"
        assert report.robust[0].statement == "theorem alpha_correct : B"

    def test_pathway_specific_lists_unique_categories(self):
        report = intersect(five_pathways(), threshold=3)
        specific = dict(report.pathway_specific)
        assert specific["type-guided"] == ("Monotonicity",)
        assert specific["termination"] == ("Optimality",)
        assert specific["natural-language"] == ()

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            intersect({}, threshold=0)

    def test_empty_groups(self):
        report = intersect({}, threshold=3)
        assert report.common_concepts == ()
        assert report.robust == ()


class TestMetaAnalysis:
    def test_emit_parse_round_trip(self):
        report = intersect(five_pathways(), threshold=3)
        impl = "import Std\n\ndef solve (n : Int) : Int := n"
        text = emit_meta_analysis(report, impl)
        obj = json.loads(text)
        inner = obj["intersection_analysis"]
        assert inner["common_concepts"] == ["Bounds", "Correctness"]
        assert inner["robust_theorems"] == {
            "Bounds": "solve_upper",
            "Correctness": "solve_correct",
        }
        assert inner["pathway_specific_insights"]["type-guided"] == ["Monotonicity"]

    def test_selection_descriptions_verbatim(self):
        report = intersect(five_pathways(), threshold=1)
        obj = json.loads(emit_meta_analysis(report, "def f : Int := 1"))
        sel = obj["final_theorem_selection"]
        assert sel["solution_correctness"] == "Essential functional correctness property"
        assert sel["solution_bounds"] == "Mathematical bounds and constraint verification"
        assert sel["solution_termination"] == "Computational termination guarantees"

    def test_selection_limited_to_common_concepts(self):
        report = intersect(five_pathways(), threshold=5)
        obj = json.loads(emit_meta_analysis(report, "def f : Int := 1"))
        assert list(obj["final_theorem_selection"]) == ["solution_correctness"]

    def test_lean_file_composition(self):
        report = intersect(five_pathways(), threshold=3)
        impl = "import Std\n\ndef solve (n : Int) : Int := n"
        obj = json.loads(emit_meta_analysis(report, impl))
        lean_file = obj["complete_Lean_file"]
        assert lean_file.startswith("import Std\nimport Mathlib\n")
        # the implementation's own import line must not duplicate
        assert lean_file.count("import Std") == 1
        assert "def solve (n : Int) : Int := n" in lean_file
        assert "theorem solve_correct : True := by sorry" in lean_file

    def test_composed_file_extracts_back(self):
        report = intersect(five_pathways(), threshold=3)
        obj = json.loads(
            emit_meta_analysis(report, "def solve (n : Int) : Int := n")
        )
        cands = extract_theorems(obj["complete_Lean_file"], "meta")
        names = {c.name for c in cands}
        assert names == {"solve_correct", "solve_upper"}
        assert all(c.has_sorry for c in cands)
