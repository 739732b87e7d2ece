"""Lean verification backend.

Two interchangeable paths: a real toolchain invoked as a child process, and
a recorded-transcript fixture backend keyed by the digest of the scaffolded
source. The transcript path makes every Lean-dependent test runnable on
machines without Lean installed.
"""

from __future__ import annotations

import functools
import hashlib
import re
import shutil
import subprocess
import tempfile
import time
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from . import literals
from .corpus import Problem
from .errors import BackendMissingError, CorpusError, read_json

DEFAULT_TIMEOUT = 120.0
SOURCE_NAME = "Candidate.lean"


class VerifyStatus(Enum):
    VERIFIED = "Verified"
    COMPILE_FAILED = "CompileFailed"
    TIMEOUT = "Timeout"
    TOOL_MISSING = "ToolMissing"


class ErrorClass(Enum):
    SYNTAX = "Syntax"
    TYPE = "Type"
    TERMINATION = "Termination"
    UNKNOWN_IDENTIFIER = "UnknownIdentifier"
    SORRY_PRESENT = "SorryPresent"
    TIMEOUT = "Timeout"
    OTHER = "Other"


class Diagnostic(NamedTuple):
    file: str
    line: int
    column: int
    severity: str  # error, warning, or info
    message: str

    def to_obj(self) -> dict:
        return self._asdict()


class VerificationOutcome(NamedTuple):
    status: VerifyStatus
    diagnostics: Tuple[Diagnostic, ...]
    error_classes: frozenset
    sorry_count: int
    elapsed: float

    def to_obj(self) -> dict:
        return {"type": "lean", **self._asdict(), "status": self.status.value,
                "diagnostics": [d.to_obj() for d in self.diagnostics],
                "error_classes": sorted(c.value for c in self.error_classes)}


class LeanProject(NamedTuple):
    source_text: str
    digest: str


_DIAG_LINE = re.compile(r"^([^:\n]+):(\d+):(\d+): (error|warning|info): (.*)$")
_SORRY_TOKEN = re.compile(r"\bsorry\b")
# what can hide a sorry: a block comment's start (they nest, so its end is
# found by counting), a line comment, a raw string (no escapes), the start of
# an interpolated string (s!, m! or f!, or a plain string right after
# throwError, dbg_trace, println! or trace[...]), a char literal, whose quote
# cannot follow an identifier character as the prime of h' does, and a string
_HIDERS = (
    r"""/-|--[^\n]*|(?<![\w'])(?:r(#*)"[\s\S]*?"\1|(?P<interpolated>[smf]!"|"""
    r"""(?:throwError|dbg_trace|println!|trace\[[^\]\n]*\])\s*")"""
    r"""|'(?:\\.[^'\n]*|[^\\'\n])')|"(?:\\[\s\S]|[^"\\])*"?"""
)
_NOT_CODE = re.compile(_HIDERS)
# inside a {code} part, braces are counted to find where it ends
_NOT_CODE_OR_BRACE = re.compile(_HIDERS + "|[{}]")
_BLOCK_EDGE = re.compile(r"/-|-/")
# an interpolated string's text up to its end or its next {code} part
_INTERPOLATED_TEXT = re.compile(r'(?:\\[\s\S]?|[^"\\{])*("|\{)?')

# Ordered classification rules: first matching pattern set wins per
# diagnostic; unmatched diagnostics fall through to Other.
_MESSAGE_RULES: List[Tuple[ErrorClass, Tuple[str, ...]]] = [
    (ErrorClass.SYNTAX, ("unexpected token", "unknown constant parse")),
    (ErrorClass.TYPE, ("type mismatch", "expected type")),
    (
        ErrorClass.TERMINATION,
        ("fail to show termination", "structural recursion cannot"),
    ),
    (ErrorClass.UNKNOWN_IDENTIFIER, ("unknown identifier",)),
    (ErrorClass.SORRY_PRESENT, ("declaration uses 'sorry'",)),
]


def parse_diagnostics(output: str) -> List[Diagnostic]:
    """Parse file:line:col: severity: message records from tool output.

    Lines that do not start a new record are treated as continuations of
    the current message; leading noise before the first record is dropped.
    """
    heads: List[Tuple[str, int, int, str]] = []
    messages: List[List[str]] = []
    for line in output.splitlines():
        match = _DIAG_LINE.match(line)
        if match:
            file, line_no, column, severity, message = match.groups()
            heads.append((file, int(line_no), int(column), severity))
            messages.append([message])
        elif messages:
            messages[-1].append(line)
    return [
        Diagnostic(*head, "\n".join(lines).rstrip("\n"))
        for head, lines in zip(heads, messages)
    ]


def _lean_code(source: str) -> str:
    """The source with each comment and string or char literal made a space.

    The {code} parts of an s!, m! or f! string stay code.  Block comments
    nest, doc comments included; one left open, like an unclosed string,
    runs to the end of the source.
    """
    kept, pos, opened = [], 0, []  # open braces inside each {code} part
    while (found := (_NOT_CODE_OR_BRACE if opened else _NOT_CODE).search(source, pos)):
        token = found.group()
        kept.append(source[pos:found.start()])
        pos = found.end()
        if token == "{" or token == "}" and opened[-1]:
            kept.append(token)
            opened[-1] += 1 if token == "{" else -1
            continue
        kept.append(" ")
        if token == "}":  # a {code} part ends and its string goes on
            opened.pop()
        if token == "}" or found.group("interpolated"):
            text = _INTERPOLATED_TEXT.match(source, pos)
            pos = text.end()
            if text.group(1) == "{":
                opened.append(0)
            continue
        depth = int(token == "/-")
        while depth:
            edge = _BLOCK_EDGE.search(source, pos)
            if edge is None:
                pos, depth = len(source), 0
            else:
                pos, depth = edge.end(), depth + (1 if edge.group() == "/-" else -1)
    kept.append(source[pos:])
    return "".join(kept)


def count_sorries(source: str) -> int:
    """Occurrences of the standalone token sorry in the code of the source."""
    return len(_SORRY_TOKEN.findall(_lean_code(source)))


def classify(diagnostics: Sequence[Diagnostic], sorries: int) -> frozenset:
    """Each diagnostic's error class (Other when no rule matches), plus
    SorryPresent when the source's code has any sorry."""
    classes = set()
    for diag in diagnostics:
        matched = False
        for cls, patterns in _MESSAGE_RULES:
            if any(p in diag.message for p in patterns):
                classes.add(cls)
                matched = True
                break
        if not matched:
            classes.add(ErrorClass.OTHER)
    if sorries:
        classes.add(ErrorClass.SORRY_PRESENT)
    return frozenset(classes)


def build_source(
    artifact_body: str,
    problem: Optional[Problem],
    include_tests: bool = True,
    mathlib: bool = False,
) -> str:
    """Assemble the complete Lean file: imports, artifact body, #guard tests.

    Imports already present in the body are not duplicated. Guard lines
    encode each unit test; an unencodable literal raises CorpusError naming
    the test.
    """
    imports = ["import Std"]
    if mathlib:
        imports.append("import Mathlib")
    body_lines = {line.strip() for line in artifact_body.splitlines()}
    header = [imp for imp in imports if imp not in body_lines]
    parts = []
    if header:
        parts.append("\n".join(header))
    parts.append(artifact_body.rstrip("\n"))
    if include_tests and problem is not None:
        parts.append(_guard_block(problem))
    return "\n\n".join(parts) + "\n"


@functools.lru_cache(maxsize=1024)
def _guard_block(problem: Problem) -> str:
    """The #guard lines encoding every unit test of one problem.

    Cached per problem. One lean-replay benchmark experiment scaffolds its
    12 problems 96 times, and one encoding takes about 70 µs (2-vCPU VM,
    Python 3.11), so the cache saves 84 encodings per experiment. The bound
    keeps a long-lived process that loads many corpora from growing without
    limit. A CorpusError is not cached, so it is raised on every call.
    """
    guards = []
    param_nodes = [literals.parse_type(t) for _, t in problem.params]
    return_node = literals.parse_type(problem.return_type)
    for index, test in enumerate(problem.tests):
        try:
            args = " ".join(
                _guarded(literals.encode_lean(literals.parse_literal(text), node))
                for text, node in zip(test.inputs, param_nodes)
            )
            expected = literals.encode_lean(
                literals.parse_literal(test.expected), return_node
            )
        except CorpusError as exc:
            raise CorpusError(
                f"problem {problem.id} test {index} is not Lean-encodable: {exc}"
            ) from None
        guards.append(
            f"#guard {problem.function_name} {args} == {expected} -- test {index}"
        )
    return "\n".join(guards)


def _guarded(expr: str) -> str:
    # Bare function arguments must be atomic; literals already parenthesize
    # negatives and bracket lists, so only multi-token survivors need wrapping.
    if expr.startswith(("(", "[", '"')) or " " not in expr:
        return expr
    return f"({expr})"


def source_digest(source_text: str) -> str:
    return hashlib.sha256(source_text.encode("utf-8")).hexdigest()


class LeanVerifier:
    """Scaffolds candidate files and checks them with Lean or transcripts."""

    def __init__(
        self,
        *,
        command: Optional[Sequence[str]] = None,
        mathlib: bool = False,
        timeout: float = DEFAULT_TIMEOUT,
        transcripts: Union[None, str, Path, Mapping[str, Mapping]] = None,
        workdir_factory: Optional[Callable[[], Path]] = None,
        runner: Callable = subprocess.run,
    ) -> None:
        self.command = list(command) if command else ["lean"]
        self.mathlib = mathlib
        self.timeout = timeout
        self._workdir_factory = workdir_factory or (
            lambda: Path(tempfile.mkdtemp(prefix="bridge-lean-"))
        )
        self._runner = runner
        self._transcripts: Optional[Dict[str, Mapping]] = None
        if isinstance(transcripts, (str, Path)):
            self._transcripts = read_json(transcripts, BackendMissingError, "transcript bank")
        elif transcripts is not None:
            self._transcripts = dict(transcripts)

    @property
    def replays(self) -> bool:
        """Whether checks are answered from transcripts, never by a compile."""
        return self._transcripts is not None

    def toolchain_available(self) -> bool:
        return shutil.which(self.command[0]) is not None

    def scaffold(
        self,
        artifact_body: str,
        problem: Optional[Problem],
        include_tests: bool = True,
    ) -> LeanProject:
        """Assemble the candidate file's source and its digest; no disk I/O."""
        source = build_source(artifact_body, problem, include_tests, self.mathlib)
        return LeanProject(source, source_digest(source))

    def check(self, project: LeanProject) -> VerificationOutcome:
        """Run the toolchain (or look up a transcript) and interpret output.

        Verified requires: tool exit success, zero error diagnostics, and
        zero sorries. Explicitly configured transcripts take precedence
        over a live toolchain so canned runs stay canned. A transcript
        miss or absent toolchain yields ToolMissing rather than an
        exception.
        """
        if self.replays:
            return self._check_transcript(project)
        if self.toolchain_available():
            return self._check_real(project)
        return _tool_missing(project)

    def _check_real(self, project: LeanProject) -> VerificationOutcome:
        """Compile the source in a fresh work directory, removed afterwards."""
        root = Path(self._workdir_factory())
        try:
            root.mkdir(parents=True, exist_ok=True)
            (root / SOURCE_NAME).write_text(project.source_text, encoding="utf-8")
            start = time.monotonic()
            proc = self._runner(
                self.command + [SOURCE_NAME],
                cwd=str(root),
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
            elapsed = time.monotonic() - start
        except subprocess.TimeoutExpired as exc:
            elapsed = time.monotonic() - start
            return self._interpret(
                project, None, _expired_output(exc), elapsed, timed_out=True
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return self._interpret(
            project, proc.returncode, (proc.stdout or "") + (proc.stderr or ""), elapsed
        )

    def _check_transcript(self, project: LeanProject) -> VerificationOutcome:
        entry = self._transcripts.get(project.digest)
        if entry is None:
            return _tool_missing(project)
        return self._interpret(
            project,
            int(entry.get("returncode", 1)),
            entry.get("output", ""),
            float(entry.get("elapsed", 0.0)),
        )

    def _interpret(
        self,
        project: LeanProject,
        returncode: Optional[int],
        output: str,
        elapsed: float,
        timed_out: bool = False,
    ) -> VerificationOutcome:
        diags = tuple(parse_diagnostics(output))
        sorries = count_sorries(project.source_text)
        classes = classify(diags, sorries)
        has_errors = any(d.severity == "error" for d in diags)
        # a sorry the compiler reports counts even where the source count missed it
        sorry_free = ErrorClass.SORRY_PRESENT not in classes
        if timed_out:
            status = VerifyStatus.TIMEOUT
            classes = classes | {ErrorClass.TIMEOUT}
        elif returncode == 0 and not has_errors and sorry_free:
            status = VerifyStatus.VERIFIED
        else:
            status = VerifyStatus.COMPILE_FAILED
        return VerificationOutcome(status, diags, classes, sorries, elapsed)


def _tool_missing(project: LeanProject) -> VerificationOutcome:
    sorries = count_sorries(project.source_text)
    return VerificationOutcome(VerifyStatus.TOOL_MISSING, (), frozenset(), sorries, 0.0)


def _expired_output(exc: subprocess.TimeoutExpired) -> str:
    parts = []
    for chunk in (exc.stdout, exc.stderr):
        if not chunk:
            continue
        parts.append(chunk.decode("utf-8", "replace") if isinstance(chunk, bytes) else chunk)
    return "".join(parts)
