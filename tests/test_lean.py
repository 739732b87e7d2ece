import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

from bridge.errors import CorpusError
from bridge.lean import (
    Diagnostic,
    ErrorClass,
    LeanVerifier,
    VerifyStatus,
    build_source,
    classify,
    count_sorries,
    parse_diagnostics,
    source_digest,
)


class TestParseDiagnostics:
    def test_single_record(self):
        out = "Candidate.lean:3:7: error: unexpected token '=>'; expected term\n"
        diags = parse_diagnostics(out)
        assert len(diags) == 1
        d = diags[0]
        assert (d.file, d.line, d.column, d.severity) == ("Candidate.lean", 3, 7, "error")
        assert d.message == "unexpected token '=>'; expected term"

    def test_continuation_lines_fold_into_message(self):
        out = (
            "Candidate.lean:4:2: error: type mismatch\n"
            "  foo n\n"
            "has type\n"
            "  Nat : Type\n"
            "but is expected to have type\n"
            "  Int : Type\n"
            "Candidate.lean:9:0: warning: declaration uses 'sorry'\n"
        )
        diags = parse_diagnostics(out)
        assert len(diags) == 2
        assert "but is expected to have type" in diags[0].message
        assert diags[0].message.startswith("type mismatch\n")
        assert diags[1].severity == "warning"

    def test_leading_noise_dropped(self):
        out = "some build banner\nCandidate.lean:1:0: error: oops\n"
        diags = parse_diagnostics(out)
        assert len(diags) == 1 and diags[0].message == "oops"

    def test_empty(self):
        assert parse_diagnostics("") == []


class TestCountSorries:
    def test_standalone_token_only(self):
        assert count_sorries("def f : Int := by sorry") == 1
        assert count_sorries("theorem t : True := sorryAx _") == 0
        assert count_sorries("-- no placeholders here") == 0
        assert count_sorries("by sorry\nexact sorry") == 2

    @pytest.mark.parametrize("source, expected", [
        ("/- outer /- sorry -/ still a comment: sorry -/\ndef f := 1", 0),
        ("/-- doc: sorry is not used -/\ndef f : Int := 1", 0),
        ('def s := "-- not a comment" ++ sorry', 1),
        ("def g := f c' '\"'\ntheorem t : True := sorry\ndef s := \"done\"", 1),
        ("theorem t (h' : a = b) : b = a := by exact h'.symm.trans sorry", 1),
        ("def f := 1\n/- left open, sorry", 0),
        ('def s := r#"x"sorry"#', 0),
        ('def s := r"no escape\\" ++ sorry', 1),
        ('def s := s!"{sorry}"', 1),
        ('def s := m!"{sorry}"', 1),
        ('def s := s!"sorry {x}"', 0),
        ('def s := "{sorry}"', 0),
        ('def s := s!"{f {x := 1} "}"} \\{sorry}" ++ sorry', 1),
        ('def m := IO.println "Hi!"\ntheorem t : True := sorry', 1),
        ('-- wow!"\ntheorem t : True := sorry', 1),
        ('def x : Nat := dbg_trace "{sorry}"; 0', 1),
        ('def m : MetaM Unit := throwError "bad {sorry}"', 1),
        ('def m : IO Unit := println! "{sorry}"', 1),
        ('def m : MetaM Unit := trace[Meta.debug] "{sorry}"', 1),
        ('def m : MetaM Unit := throwError "sorry"', 0),
        ('def mythrowError := "{sorry}"', 0),
    ], ids=["nested-block", "doc-comment", "dashes-in-string", "quote-char",
            "primed-identifier", "unterminated-block", "raw-string",
            "raw-string-backslash", "interpolated", "interpolated-message",
            "interpolated-text", "plain-braces", "interpolated-nesting",
            "string-ends-in-bang", "comment-ends-in-bang", "dbg-trace",
            "throw-error", "println", "trace-class", "throw-error-text",
            "keyword-in-identifier"])
    def test_comments_and_literals_do_not_count(self, source, expected):
        assert count_sorries(source) == expected


def diag(message, severity="error"):
    return Diagnostic("Candidate.lean", 1, 0, severity, message)


class TestClassify:
    CASES = [
        ("unexpected token '=>'; expected term", ErrorClass.SYNTAX),
        ("unknown constant parseInt", ErrorClass.SYNTAX),
        ("type mismatch\n  has type Nat : Type", ErrorClass.TYPE),
        ("expected type must not contain metavariables", ErrorClass.TYPE),
        ("fail to show termination for\n  solve", ErrorClass.TERMINATION),
        ("structural recursion cannot be used", ErrorClass.TERMINATION),
        ("unknown identifier 'helperStep'", ErrorClass.UNKNOWN_IDENTIFIER),
        ("declaration uses 'sorry'", ErrorClass.SORRY_PRESENT),
        ("maximum recursion depth has been reached", ErrorClass.OTHER),
    ]

    def test_rule_table(self):
        for message, expected in self.CASES:
            got = classify([diag(message)], 0)
            assert got == frozenset({expected}), f"{message!r} -> {got}"

    def test_first_rule_wins_within_one_message(self):
        msg = "unexpected token; later the type mismatch appears"
        assert classify([diag(msg)], 0) == frozenset({ErrorClass.SYNTAX})

    def test_source_sorry_added_regardless_of_diagnostics(self):
        got = classify([], count_sorries("def f : Int := by sorry"))
        assert got == frozenset({ErrorClass.SORRY_PRESENT})
        got = classify([diag("type mismatch")], 1)
        assert got == frozenset({ErrorClass.TYPE, ErrorClass.SORRY_PRESENT})

    def test_multi_diagnostic_union(self):
        diags = [diag("unexpected token 'def'"), diag("unknown identifier 'x'")]
        got = classify(diags, 0)
        assert got == frozenset({ErrorClass.SYNTAX, ErrorClass.UNKNOWN_IDENTIFIER})

    def test_empty_clean(self):
        assert classify([], 0) == frozenset()


class TestBuildSource:
    def test_guard_lines(self, by_id):
        problem = by_id["climbing-stairs"]
        src = build_source("def climbStairs (n : Int) : Int := n", problem)
        assert src.startswith("import Std\n")
        assert "#guard climbStairs 2 == 2 -- test 0" in src
        assert "#guard climbStairs 3 == 3 -- test 1" in src
        assert src.endswith("\n")

    def test_list_arguments_bracketed(self, by_id):
        problem = by_id["majority-element"]
        src = build_source("def majorityElement (nums : List Int) : Int := 0", problem)
        assert "#guard majorityElement [3, 2, 3] == 3 -- test 0" in src

    def test_import_not_duplicated(self, by_id):
        problem = by_id["climbing-stairs"]
        body = "import Std\n\ndef climbStairs (n : Int) : Int := n"
        src = build_source(body, problem)
        assert src.count("import Std") == 1

    def test_mathlib_header(self):
        src = build_source("def f : Int := 1", None, include_tests=False, mathlib=True)
        assert "import Mathlib" in src

    def test_without_tests(self, by_id):
        problem = by_id["climbing-stairs"]
        src = build_source("def f : Int := 1", problem, include_tests=False)
        assert "#guard" not in src

    def test_unencodable_literal_names_the_test(self, by_id):
        problem = by_id["climbing-stairs"]
        bad = problem.tests[0].__class__(inputs=("1.5",), expected="2")
        broken = problem._replace(tests=(bad,))
        # guard blocks are cached per problem; the failure must not be
        for _ in range(2):
            with pytest.raises(CorpusError) as err:
                build_source("def f : Int := 1", broken)
            assert "climbing-stairs" in str(err.value) and "test 0" in str(err.value)


def make_runner(returncode=0, stdout="", stderr="", raise_timeout=False):
    calls = []

    def runner(argv, cwd=None, capture_output=None, text=None, timeout=None):
        staged = (Path(cwd) / argv[-1]).read_text(encoding="utf-8")
        calls.append({"argv": argv, "cwd": cwd, "timeout": timeout, "source": staged})
        if raise_timeout:
            raise subprocess.TimeoutExpired(argv, timeout, output=b"partial out")
        return SimpleNamespace(returncode=returncode, stdout=stdout, stderr=stderr)

    runner.calls = calls
    return runner


class TestVerifierRealPath:
    def test_verified_on_clean_run(self, tmp_path):
        runner = make_runner(returncode=0, stdout="")
        v = LeanVerifier(command=["true"], runner=runner,
                         workdir_factory=lambda: tmp_path / "w1")
        project = v.scaffold("def f : Int := 1", None, include_tests=False)
        outcome = v.check(project)
        assert outcome.status is VerifyStatus.VERIFIED
        assert outcome.error_classes == frozenset()
        assert outcome.sorry_count == 0
        assert runner.calls[0]["cwd"] == str(tmp_path / "w1")
        assert runner.calls[0]["source"] == project.source_text
        assert not (tmp_path / "w1").exists()

    def test_error_output_classified(self, tmp_path):
        out = "Candidate.lean:2:4: error: unknown identifier 'mystery'\n"
        runner = make_runner(returncode=1, stdout=out)
        v = LeanVerifier(command=["true"], runner=runner,
                         workdir_factory=lambda: tmp_path / "w2")
        project = v.scaffold("def f : Int := mystery", None, include_tests=False)
        outcome = v.check(project)
        assert outcome.status is VerifyStatus.COMPILE_FAILED
        assert ErrorClass.UNKNOWN_IDENTIFIER in outcome.error_classes
        assert outcome.diagnostics[0].line == 2

    def test_sorry_source_never_verifies(self, tmp_path):
        # exit 0 plus warning diagnostics: the sorry still blocks Verified
        out = "Candidate.lean:3:0: warning: declaration uses 'sorry'\n"
        runner = make_runner(returncode=0, stdout=out)
        v = LeanVerifier(command=["true"], runner=runner,
                         workdir_factory=lambda: tmp_path / "w3")
        project = v.scaffold("def f : Int := by sorry", None, include_tests=False)
        outcome = v.check(project)
        assert outcome.status is VerifyStatus.COMPILE_FAILED
        assert outcome.sorry_count == 1
        assert ErrorClass.SORRY_PRESENT in outcome.error_classes

    def test_timeout_maps_to_timeout_status(self, tmp_path):
        runner = make_runner(raise_timeout=True)
        v = LeanVerifier(command=["true"], runner=runner, timeout=0.5,
                         workdir_factory=lambda: tmp_path / "w4")
        project = v.scaffold("def f : Int := 1", None, include_tests=False)
        outcome = v.check(project)
        assert outcome.status is VerifyStatus.TIMEOUT
        assert ErrorClass.TIMEOUT in outcome.error_classes
        assert runner.calls[0]["timeout"] == 0.5
        assert not (tmp_path / "w4").exists()

    def test_missing_toolchain_reports_tool_missing(self, tmp_path):
        v = LeanVerifier(command=["definitely-not-a-real-binary-7q"],
                         workdir_factory=lambda: tmp_path / "w5")
        project = v.scaffold("def f : Int := 1", None, include_tests=False)
        outcome = v.check(project)
        assert outcome.status is VerifyStatus.TOOL_MISSING


class TestVerifierTranscripts:
    def build(self, tmp_path, body, entry):
        v0 = LeanVerifier(command=["true"], workdir_factory=lambda: tmp_path / "t0")
        project = v0.scaffold(body, None, include_tests=False)
        v = LeanVerifier(
            transcripts={project.digest: entry},
            workdir_factory=lambda: tmp_path / "t1",
        )
        return v, v.scaffold(body, None, include_tests=False)

    def test_transcript_verified(self, tmp_path):
        v, project = self.build(tmp_path, "def f : Int := 1",
                                {"returncode": 0, "output": ""})
        outcome = v.check(project)
        assert outcome.status is VerifyStatus.VERIFIED

    def test_sorry_in_comment_still_verified(self, tmp_path):
        v, project = self.build(tmp_path, "def f : Int := 1 -- no sorry needed",
                                {"returncode": 0, "output": ""})
        outcome = v.check(project)
        assert outcome.status is VerifyStatus.VERIFIED
        assert outcome.sorry_count == 0

    def test_reported_sorry_never_verifies(self, tmp_path):
        # the compiler saw a sorry that the source count did not
        out = "Candidate.lean:3:0: warning: declaration uses 'sorry'\n"
        v, project = self.build(tmp_path, "def f : Int := 1",
                                {"returncode": 0, "output": out})
        outcome = v.check(project)
        assert outcome.status is VerifyStatus.COMPILE_FAILED
        assert outcome.error_classes == frozenset({ErrorClass.SORRY_PRESENT})

    def test_interpolated_sorry_never_verifies(self, tmp_path):
        # a transcript that lacks the sorry warning cannot hide this one
        v, project = self.build(tmp_path, 'def s : String := s!"{sorry}"',
                                {"returncode": 0, "output": ""})
        outcome = v.check(project)
        assert outcome.status is not VerifyStatus.VERIFIED
        assert outcome.sorry_count == 1

    def test_transcript_failure_classified(self, tmp_path):
        out = (
            "Candidate.lean:5:2: error: fail to show termination for\n"
            "  f\n"
            "with errors\n"
        )
        v, project = self.build(tmp_path, "def f : Int := 1",
                                {"returncode": 1, "output": out})
        outcome = v.check(project)
        assert outcome.status is VerifyStatus.COMPILE_FAILED
        assert outcome.error_classes == frozenset({ErrorClass.TERMINATION})

    def test_transcript_miss_is_tool_missing(self, tmp_path):
        v = LeanVerifier(transcripts={},
                         workdir_factory=lambda: tmp_path / "t2")
        project = v.scaffold("def f : Int := 1", None, include_tests=False)
        outcome = v.check(project)
        assert outcome.status is VerifyStatus.TOOL_MISSING

    def test_transcripts_take_precedence_over_toolchain(self, tmp_path):
        # command resolves to a real executable, yet the transcript answers
        runner = make_runner(returncode=0, stdout="")
        v0 = LeanVerifier(command=["true"], workdir_factory=lambda: tmp_path / "p0")
        project0 = v0.scaffold("def f : Int := 1", None, include_tests=False)
        entry = {
            "returncode": 1,
            "output": "Candidate.lean:1:0: error: unexpected token 'def'\n",
        }
        v = LeanVerifier(command=["true"], runner=runner,
                         transcripts={project0.digest: entry},
                         workdir_factory=lambda: tmp_path / "p1")
        project = v.scaffold("def f : Int := 1", None, include_tests=False)
        outcome = v.check(project)
        assert outcome.status is VerifyStatus.COMPILE_FAILED
        assert runner.calls == []

    def test_live_checks_are_never_reused(self, tmp_path):
        runner = make_runner(returncode=0, stdout="")
        v = LeanVerifier(command=["true"], runner=runner,
                         workdir_factory=lambda: tmp_path / "r0")
        project = v.scaffold("def f : Int := 1", None, include_tests=False)
        v.check(project)
        v.check(project)
        assert len(runner.calls) == 2

    def test_transcripts_loaded_from_file(self, tmp_path):
        import json

        v0 = LeanVerifier(command=["true"], workdir_factory=lambda: tmp_path / "f0")
        project0 = v0.scaffold("def g : Int := 2", None, include_tests=False)
        bank = tmp_path / "bank.json"
        bank.write_text(
            json.dumps({project0.digest: {"returncode": 0, "output": ""}}),
            encoding="utf-8",
        )
        v = LeanVerifier(transcripts=bank, workdir_factory=lambda: tmp_path / "f1")
        project = v.scaffold("def g : Int := 2", None, include_tests=False)
        assert v.check(project).status is VerifyStatus.VERIFIED


class TestOutcomeSerialization:
    def test_to_obj_shape(self, tmp_path):
        out = "Candidate.lean:1:0: error: type mismatch\n"
        runner = make_runner(returncode=1, stdout=out)
        v = LeanVerifier(command=["true"], runner=runner,
                         workdir_factory=lambda: tmp_path / "s0")
        project = v.scaffold("def f : Int := by sorry", None, include_tests=False)
        obj = v.check(project).to_obj()
        assert obj["type"] == "lean"
        assert obj["status"] == "CompileFailed"
        assert obj["error_classes"] == ["SorryPresent", "Type"]
        assert obj["sorry_count"] == 1
        assert obj["diagnostics"][0]["severity"] == "error"


class TestDigest:
    def test_source_digest_is_content_hash(self):
        import hashlib

        text = "import Std\n\ndef f : Int := 1\n"
        assert source_digest(text) == hashlib.sha256(text.encode()).hexdigest()
