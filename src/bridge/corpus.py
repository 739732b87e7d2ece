"""Problem corpus: manifest loading and validation.

A manifest is UTF-8 JSONL, one problem object per line. Test inputs and
expected outputs are stored as literal text in the grammar implemented by
bridge.literals so they stay exact and Lean-encodable.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from . import literals
from .errors import CorpusError

CATEGORIES = (
    "arrays",
    "strings",
    "graphs",
    "dynamic-programming",
    "numerical",
    "trees",
)

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_PROBLEM_ID = re.compile(r"^[a-z0-9][a-z0-9-]*$")


@dataclass(frozen=True)
class UnitTest:
    """One input/output example. Inputs and expected are literal text."""

    inputs: Tuple[str, ...]
    expected: str
    order_insensitive: bool = False

    def parsed_inputs(self) -> List[object]:
        return [literals.parse_literal(t) for t in self.inputs]

    def parsed_expected(self) -> object:
        return literals.parse_literal(self.expected)


@dataclass(frozen=True)
class Problem:
    id: str
    title: str
    statement: str
    function_name: str
    params: Tuple[Tuple[str, str], ...]  # (name, semantic type) pairs
    return_type: str
    tests: Tuple[UnitTest, ...]
    category: str
    difficulty: Optional[str] = None

    def param_names(self) -> List[str]:
        return [name for name, _ in self.params]


@dataclass(frozen=True)
class ProblemSet:
    problems: Tuple[Problem, ...]

    def __len__(self) -> int:
        return len(self.problems)

    def __iter__(self) -> Iterator[Problem]:
        return iter(self.problems)

    def by_id(self, problem_id: str) -> Problem:
        for problem in self.problems:
            if problem.id == problem_id:
                return problem
        raise CorpusError(f"no problem with id {problem_id!r}")


def validate_problem(problem: Problem) -> List[str]:
    """Return a list of violation messages. Empty means valid. Pure."""
    issues: List[str] = []
    if not problem.id or not _PROBLEM_ID.match(problem.id):
        issues.append(f"id {problem.id!r} is not a lowercase slug")
    if not problem.title.strip():
        issues.append("title is empty")
    if not problem.statement.strip():
        issues.append("statement is empty")
    if not _IDENT.match(problem.function_name):
        issues.append(f"function_name {problem.function_name!r} is not a valid identifier")
    if problem.category not in CATEGORIES:
        issues.append(f"category {problem.category!r} is not one of {', '.join(CATEGORIES)}")
    if not problem.params:
        issues.append("params is empty")
    seen_params = set()
    param_nodes = []
    for name, type_text in problem.params:
        if not _IDENT.match(name):
            issues.append(f"param name {name!r} is not a valid identifier")
        if name in seen_params:
            issues.append(f"duplicate param name {name!r}")
        seen_params.add(name)
        try:
            param_nodes.append(literals.parse_type(type_text))
        except CorpusError as exc:
            issues.append(f"param {name!r}: {exc}")
            param_nodes.append(None)
    try:
        return_node = literals.parse_type(problem.return_type)
    except CorpusError as exc:
        issues.append(f"return_type: {exc}")
        return_node = None
    if not problem.tests:
        issues.append("tests is empty")
    for index, test in enumerate(problem.tests):
        if len(test.inputs) != len(problem.params):
            issues.append(
                f"test {index}: arity {len(test.inputs)} does not match "
                f"{len(problem.params)} params"
            )
            continue
        for pos, text in enumerate(test.inputs):
            try:
                value = literals.parse_literal(text)
            except CorpusError as exc:
                issues.append(f"test {index} input {pos}: {exc}")
                continue
            node = param_nodes[pos]
            if node is not None and not literals.matches_type(value, node):
                issues.append(
                    f"test {index} input {pos}: {text} does not match type "
                    f"{problem.params[pos][1]}"
                )
        try:
            expected = literals.parse_literal(test.expected)
        except CorpusError as exc:
            issues.append(f"test {index} expected: {exc}")
            continue
        if return_node is not None and not literals.matches_type(expected, return_node):
            issues.append(
                f"test {index} expected: {test.expected} does not match type "
                f"{problem.return_type}"
            )
    return issues


def _problem_from_obj(obj: dict, where: str) -> Problem:
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: expected an object, got {type(obj).__name__}")
    known = {
        "id",
        "title",
        "statement",
        "function_name",
        "params",
        "return_type",
        "tests",
        "category",
        "difficulty",
    }
    unknown = sorted(set(obj) - known)
    if unknown:
        raise CorpusError(f"{where}: unknown fields {', '.join(unknown)}")
    missing = sorted(known - {"difficulty"} - set(obj))
    if missing:
        raise CorpusError(f"{where}: missing fields {', '.join(missing)}")
    try:
        params = tuple((str(n), str(t)) for n, t in obj["params"])
    except (TypeError, ValueError):
        raise CorpusError(f"{where}: params must be [name, type] pairs") from None
    tests = []
    if not isinstance(obj["tests"], list):
        raise CorpusError(f"{where}: tests must be a list")
    for index, t in enumerate(obj["tests"]):
        if not isinstance(t, dict) or "inputs" not in t or "expected" not in t:
            raise CorpusError(f"{where}: test {index} needs inputs and expected")
        extra = sorted(set(t) - {"inputs", "expected", "order_insensitive"})
        if extra:
            raise CorpusError(f"{where}: test {index} unknown fields {', '.join(extra)}")
        if not isinstance(t["inputs"], list) or not all(
            isinstance(i, str) for i in t["inputs"]
        ):
            raise CorpusError(f"{where}: test {index} inputs must be literal text")
        if not isinstance(t["expected"], str):
            raise CorpusError(f"{where}: test {index} expected must be literal text")
        tests.append(
            UnitTest(
                inputs=tuple(t["inputs"]),
                expected=t["expected"],
                order_insensitive=bool(t.get("order_insensitive", False)),
            )
        )
    return Problem(
        id=str(obj["id"]),
        title=str(obj["title"]),
        statement=str(obj["statement"]),
        function_name=str(obj["function_name"]),
        params=params,
        return_type=str(obj["return_type"]),
        tests=tuple(tests),
        category=str(obj["category"]),
        difficulty=obj.get("difficulty"),
    )


def load_manifest(path: Union[str, Path]) -> ProblemSet:
    """Load and validate a JSONL manifest.

    Any malformed line, validation violation, or duplicate id raises
    CorpusError naming the offending problem.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read manifest {path}: {exc}") from None
    problems: List[Problem] = []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path.name}:{lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{where}: malformed JSON: {exc}") from None
        problem = _problem_from_obj(obj, where)
        issues = validate_problem(problem)
        if issues:
            detail = "; ".join(issues)
            raise CorpusError(f"{where}: problem {problem.id!r} invalid: {detail}")
        if problem.id in seen:
            raise CorpusError(f"{where}: duplicate problem id {problem.id!r}")
        seen.add(problem.id)
        problems.append(problem)
    return ProblemSet(problems=tuple(problems))
