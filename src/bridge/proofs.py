"""Theorem extraction, categorization, and multi-pathway intersection.

Each proof pathway produces Lean source containing theorem declarations.
Theorems are bucketed into property categories; properties proposed by
enough independent pathways are treated as robust and survive into the
final meta-analysis document.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

DEFAULT_THRESHOLD = 3

_THEOREM_DECL = re.compile(r"(?m)^theorem\s+([A-Za-z_][A-Za-z0-9_'!?]*)")
_TOP_LEVEL = re.compile(
    r"(?m)^(?:def|theorem|lemma|example|instance|structure|inductive|abbrev|"
    r"#guard|#eval|@\[|end\b|/--|--|import)"
)


class TheoremCandidate(NamedTuple):
    name: str
    statement: str
    pathway: str
    categories: frozenset
    has_sorry: bool

    def to_obj(self) -> Dict[str, object]:
        return {**self._asdict(), "categories": sorted(self.categories)}


class RobustTheorem(NamedTuple):
    category: str
    name: str
    statement: str


class IntersectionReport(NamedTuple):
    threshold: int
    pathways: Tuple[str, ...]
    common_concepts: Tuple[str, ...]
    robust: Tuple[RobustTheorem, ...]
    pathway_specific: Tuple[Tuple[str, Tuple[str, ...]], ...]

    @property
    def shared_properties(self) -> Tuple[str, ...]:
        return tuple(r.statement for r in self.robust)


def _decl_end(source: str, start: int) -> int:
    nxt = _TOP_LEVEL.search(source, pos=start + 1)
    return nxt.start() if nxt else len(source)


def _split_statement(decl: str) -> Tuple[str, str]:
    """Split a theorem declaration into (statement, proof body).

    The statement runs from the theorem keyword up to the first ':=' or a
    trailing 'by' tactic entry, whichever comes first.
    """
    assign = decl.find(":=")
    by = re.search(r"(?<![A-Za-z0-9_])by(?![A-Za-z0-9_])", decl)
    cut = None
    if assign != -1:
        cut = assign
    if by is not None and (cut is None or by.start() < cut):
        cut = by.start()
    if cut is None:
        return decl.strip(), ""
    return decl[:cut].strip(), decl[cut:].strip()


def _body_is_sorry(body: str) -> bool:
    tokens = body.replace(":=", " ").split()
    while tokens and tokens[0] == "by":
        tokens = tokens[1:]
    return tokens == ["sorry"]


def extract_theorems(source: str, pathway: str) -> List[TheoremCandidate]:
    """Collect top-level theorem declarations from Lean source."""
    candidates: List[TheoremCandidate] = []
    for match in _THEOREM_DECL.finditer(source):
        decl = source[match.start():_decl_end(source, match.start())].strip()
        statement, body = _split_statement(decl)
        name = match.group(1)
        candidates.append(
            TheoremCandidate(
                name=name,
                statement=statement,
                pathway=pathway,
                categories=frozenset(categorize(name, statement)),
                has_sorry=_body_is_sorry(body),
            )
        )
    return candidates


_CATEGORY_RULES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("Bounds", ("_upper", "_bound", "≤", "≥", "<=", ">=")),
    ("Monotonicity", ("monotone",)),
    ("InvariantPreservation", ("invariant",)),
    ("Optimality", ("optimal",)),
    ("Termination", ("terminates", "WellFounded", "∃ output")),
    ("Correctness", ("_correct", "correctness")),
)
# needles matched as written; every other needle ignores case
_CASE_SENSITIVE = ("WellFounded", "∃ output")


def categorize(name: str, statement: str) -> List[str]:
    """Assign property categories; a theorem may land in several."""
    haystack = f"{name} {statement}"
    lowered = haystack.lower()
    found: List[str] = []
    for category, needles in _CATEGORY_RULES:
        if any(
            needle in haystack if needle in _CASE_SENSITIVE else needle.lower() in lowered
            for needle in needles
        ):
            found.append(category)
    return found if found else ["Other"]


def intersect(
    groups: Mapping[str, Sequence[TheoremCandidate]],
    threshold: int = DEFAULT_THRESHOLD,
) -> IntersectionReport:
    """Keep property categories proposed by at least `threshold` pathways."""
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    pathways = tuple(sorted(groups))
    by_category: Dict[str, set] = {}
    for pathway, candidates in groups.items():
        for cand in candidates:
            for cat in cand.categories:
                by_category.setdefault(cat, set()).add(pathway)

    common = tuple(
        sorted(cat for cat, owners in by_category.items() if len(owners) >= threshold)
    )

    robust: List[RobustTheorem] = []
    for cat in common:
        carriers = sorted(
            (c for cs in groups.values() for c in cs if cat in c.categories),
            key=lambda c: (c.name, c.pathway),
        )
        first = carriers[0]
        robust.append(RobustTheorem(category=cat, name=first.name, statement=first.statement))

    specific: List[Tuple[str, Tuple[str, ...]]] = []
    for pathway in pathways:
        unique = tuple(
            sorted(
                cat
                for cat, owners in by_category.items()
                if owners == {pathway}
            )
        )
        specific.append((pathway, unique))

    return IntersectionReport(
        threshold=threshold,
        pathways=pathways,
        common_concepts=common,
        robust=tuple(robust),
        pathway_specific=tuple(specific),
    )


_SELECTION_TEXT = (
    ("Correctness", "solution_correctness", "Essential functional correctness property"),
    ("Bounds", "solution_bounds", "Mathematical bounds and constraint verification"),
    ("Termination", "solution_termination", "Computational termination guarantees"),
)

_IMPORT_LINE = re.compile(r"(?m)^import\s+\S+\s*$")


def _compose_lean_file(implementation: str, robust: Sequence[RobustTheorem]) -> str:
    body_lines = [
        line for line in implementation.strip().splitlines()
        if not _IMPORT_LINE.match(line)
    ]
    blocks = ["import Std\nimport Mathlib"]
    body = "\n".join(body_lines).strip()
    if body:
        blocks.append(body)
    for theorem in robust:
        blocks.append(f"{theorem.statement} := by sorry")
    return "\n\n".join(blocks) + "\n"


def emit_meta_analysis(report: IntersectionReport, implementation: str) -> str:
    """Render the cross-pathway analysis as a canonical JSON document."""
    selection = {}
    for category, key, description in _SELECTION_TEXT:
        if category in report.common_concepts:
            selection[key] = description
    obj = {
        "intersection_analysis": {
            "common_concepts": list(report.common_concepts),
            "shared_properties": list(report.shared_properties),
            "robust_theorems": {r.category: r.name for r in report.robust},
            "pathway_specific_insights": {
                pathway: list(cats) for pathway, cats in report.pathway_specific
            },
        },
        "final_theorem_selection": selection,
        "complete_Lean_file": _compose_lean_file(implementation, report.robust),
    }
    return json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True)
