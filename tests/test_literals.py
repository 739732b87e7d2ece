from pathlib import Path

import pytest

from bridge.corpus import Problem, UnitTest, load_manifest, validate_problem
from bridge.errors import CorpusError
from bridge.literals import (
    encode_lean,
    encode_text,
    format_type,
    matches_type,
    parse_literal,
    parse_type,
)


class TestParseLiteral:
    def test_scalars(self):
        assert parse_literal("42") == 42
        assert parse_literal("-7") == -7
        assert parse_literal("true") is True
        assert parse_literal("false") is False
        assert parse_literal('"hello"') == "hello"
        assert parse_literal('""') == ""

    def test_lists(self):
        assert parse_literal("[1,2,3]") == [1, 2, 3]
        assert parse_literal("[]") == []
        assert parse_literal("[[0,1],[2,3]]") == [[0, 1], [2, 3]]

    @pytest.mark.parametrize(
        "bad", ["1.5", "null", "{}", "NaN", "Infinity", "'single'", "[1,", "1e3"]
    )
    def test_rejected_forms(self, bad):
        with pytest.raises(CorpusError):
            parse_literal(bad)

    def test_round_trip(self):
        for value in [0, -3, True, "a b", [1, [2, 3]], []]:
            assert parse_literal(encode_text(value)) == value


class TestTypes:
    def test_parse_and_format(self):
        for text in ["Int", "Nat", "Bool", "String", "List Int", "List (List Int)"]:
            assert format_type(parse_type(text)) == text

    def test_matches(self):
        assert matches_type(5, parse_type("Int"))
        assert matches_type(0, parse_type("Nat"))
        assert not matches_type(-1, parse_type("Nat"))
        assert not matches_type(True, parse_type("Int"))  # bools are not ints here
        assert matches_type(True, parse_type("Bool"))
        assert matches_type([[1], []], parse_type("List (List Int)"))
        assert not matches_type([1], parse_type("List (List Int)"))

    def test_unknown_type(self):
        with pytest.raises(CorpusError):
            parse_type("Float")


class TestEncodeLean:
    def test_scalars(self):
        assert encode_lean(5, parse_type("Int")) == "5"
        assert encode_lean(-5, parse_type("Int")) == "(-5)"
        assert encode_lean(True, parse_type("Bool")) == "true"
        assert encode_lean("ab", parse_type("String")) == '"ab"'

    def test_lists(self):
        assert encode_lean([1, -2], parse_type("List Int")) == "[1, (-2)]"
        assert encode_lean([], parse_type("List Int")) == "([] : List Int)"


class TestCorpus:
    def test_fixture_loads(self, corpus):
        assert len(corpus) == 12
        assert corpus.by_id("climbing-stairs").function_name == "climbStairs"

    def test_duplicate_ids_rejected(self, tmp_path):
        corpus_text = Path("fixtures/corpus.jsonl").read_text(encoding="utf-8")
        first = corpus_text.splitlines()[0]
        path = tmp_path / "dup.jsonl"
        path.write_text(f"{first}\n{first}\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="duplicate"):
            load_manifest(path)

    def test_validate_flags_bad_problem(self):
        problem = Problem(
            id="Bad Id",
            title="t",
            statement="s",
            function_name="1fn",
            params=(("nums", "List Int"),),
            return_type="Int",
            tests=(UnitTest(inputs=("[1]",), expected='"x"'),),
            category="arrays-hashing",
        )
        issues = validate_problem(problem)
        assert any("id" in v for v in issues)
        assert any("function" in v for v in issues)
        assert any("expected" in v or "type" in v for v in issues)
