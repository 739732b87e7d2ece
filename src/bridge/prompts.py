"""Strategy taxonomy, prompt template catalog, and artifact extraction.

Templates are data files under templates/<domain>/<strategy>.tmpl with two
placeholder syntaxes: {{ name }} for problem-derived values and [SWAP:NAME]
for strategy-specific content resolved from templates/swaps.json. Swap
values may themselves contain {{ name }} placeholders; substitution runs
swaps first, then values, and any survivor of either syntax is an error.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .corpus import Problem
from .errors import NoArtifactError, TemplateError

DOMAINS = ("code", "spec", "proof")

STRATEGIES: Dict[str, Tuple[str, ...]] = {
    "code": (
        "direct",
        "python-bridge",
        "haskell-functional",
        "ocaml-type-guided",
        "double-lean",
        "cpp-imperative",
        "literate-tutorial",
        "literate-proof",
        "literate-mathematical",
    ),
    "spec": (
        "direct",
        "design-by-contract",
        "dafny-style",
        "property-based",
        "functional-programming",
        "defensive-programming",
        "algorithmic-thinking",
        "test-driven",
    ),
    "proof": (
        "natural-language",
        "unit-tests",
        "code-analysis",
        "type-guided",
        "termination",
    ),
}


@dataclass(frozen=True, order=True)
class StrategyId:
    domain: str
    name: str

    def __post_init__(self) -> None:
        if self.domain not in STRATEGIES:
            raise TemplateError(f"unknown domain {self.domain!r}")
        if self.name not in STRATEGIES[self.domain]:
            raise TemplateError(f"unknown strategy {self.domain}/{self.name}")

    @property
    def key(self) -> str:
        return f"{self.domain}/{self.name}"

    @staticmethod
    def parse(text: str) -> "StrategyId":
        if "/" not in text:
            raise TemplateError(f"strategy must look like domain/name, got {text!r}")
        domain, name = text.split("/", 1)
        return StrategyId(domain=domain, name=name)


def list_strategies() -> List[StrategyId]:
    """All strategies in declaration order."""
    return [StrategyId(domain, name) for domain in DOMAINS for name in STRATEGIES[domain]]


@dataclass(frozen=True)
class ExtractedArtifact:
    kind: str  # LeanSource or PythonSource
    body: str
    span: Tuple[int, int]  # character offsets into the completion


_PLACEHOLDER = re.compile(r"\{\{\s*([A-Za-z_][A-Za-z0-9_]*)\s*\}\}")
_SWAP = re.compile(r"\[SWAP:([A-Za-z_][A-Za-z0-9_]*)\]")
_LEFTOVER = ("{{", "}}", "[SWAP:")

_DEFAULT_ROOT = Path(__file__).parent / "templates"


def problem_values(problem: Problem) -> Dict[str, str]:
    """Placeholder values derived from a Problem."""
    binders = " ".join(f"({n} : {t})" for n, t in problem.params)
    names = " ".join(problem.param_names())
    csv_names = ", ".join(problem.param_names())
    test_lines = []
    for test in problem.tests:
        args = ", ".join(test.inputs)
        test_lines.append(f"- {problem.function_name}({args}) == {test.expected}")
    return {
        "title": problem.title,
        "problem_statement": problem.statement,
        "function_name": problem.function_name,
        "function_params": binders,
        "function_signature": f"{problem.function_name} {binders} : {problem.return_type}",
        "python_signature": f"{problem.function_name}({csv_names})",
        "param_names": names,
        "param_names_csv": csv_names,
        "input_type": problem.params[0][1],
        "return_type": problem.return_type,
        "category": problem.category,
        "unit_tests": "\n".join(test_lines),
    }


def _substitute(text: str, values: Mapping[str, str], where: str) -> str:
    def repl(match: "re.Match[str]") -> str:
        name = match.group(1)
        if name not in values:
            raise TemplateError(f"{where}: no value for placeholder {name!r}")
        return str(values[name])

    return _PLACEHOLDER.sub(repl, text)


def _check_leftovers(text: str, where: str) -> None:
    for marker in _LEFTOVER:
        pos = text.find(marker)
        if pos != -1:
            snippet = text[pos : pos + 40].splitlines()[0]
            raise TemplateError(
                f"{where}: unresolved placeholder near offset {pos}: {snippet!r}"
            )


class TemplateCatalog:
    """Loads templates and swap tables from a directory tree."""

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else _DEFAULT_ROOT
        self._swaps: Optional[Dict[str, Dict[str, str]]] = None
        self._cache: Dict[str, str] = {}

    def _load_swaps(self) -> Dict[str, Dict[str, str]]:
        if self._swaps is None:
            path = self.root / "swaps.json"
            try:
                self._swaps = json.loads(path.read_text(encoding="utf-8"))
            except OSError as exc:
                raise TemplateError(f"cannot read swap table {path}: {exc}") from None
        return self._swaps

    def _template_text(self, relative: str) -> str:
        if relative not in self._cache:
            path = self.root / relative
            try:
                self._cache[relative] = path.read_text(encoding="utf-8")
            except OSError as exc:
                raise TemplateError(f"cannot read template {path}: {exc}") from None
        return self._cache[relative]

    def render(self, strategy: StrategyId, problem: Problem) -> str:
        """Render the initial-generation prompt for a strategy and problem.

        Byte-deterministic; raises TemplateError if any placeholder of
        either syntax survives.
        """
        where = strategy.key
        body = self._template_text(f"{strategy.domain}/{strategy.name}.tmpl")
        swaps = self._load_swaps().get(strategy.key, {})

        def swap_repl(match: "re.Match[str]") -> str:
            name = match.group(1)
            if name not in swaps:
                raise TemplateError(f"{where}: no swap value for {name!r}")
            return swaps[name]

        body = _SWAP.sub(swap_repl, body)
        values = problem_values(problem)
        values["lean_context"] = ""
        rendered = _substitute(body, values, where)
        _check_leftovers(rendered, where)
        return rendered.rstrip("\n") + "\n"

    def render_feedback(self, name: str, values: Mapping[str, str]) -> str:
        """Render one of the feedback templates (retry, translation, ...)."""
        body = self._template_text(f"feedback/{name}.tmpl")
        rendered = _substitute(body, values, f"feedback/{name}")
        _check_leftovers(rendered, f"feedback/{name}")
        return rendered.rstrip("\n") + "\n"

    def render_retry(
        self,
        previous_artifact: str,
        errors: Sequence[str],
        round_index: int,
        max_rounds: int,
        *,
        lean_feedback: Optional[str] = None,
    ) -> str:
        """Render the error-feedback retry prompt; with lean_feedback, the
        lean-refinement prompt that also shows a Lean translation's verdict.

        round_index is 1-based and must not exceed max_rounds. An empty
        error list renders an explicit no-diagnostics marker.
        """
        if max_rounds < 1:
            raise TemplateError(f"max_rounds must be >= 1, got {max_rounds}")
        if not 1 <= round_index <= max_rounds:
            raise TemplateError(
                f"retry round {round_index} out of range 1..{max_rounds}"
            )
        if errors:
            feedback = "\n".join(f"- {e}" for e in errors)
        else:
            feedback = "(no diagnostics captured)"
        values = {
            "retry_attempt": str(round_index),
            "max_retries": str(max_rounds),
            "previous_code": previous_artifact,
            "error_feedback": feedback,
        }
        if lean_feedback is None:
            return self.render_feedback("retry", values)
        values["lean_feedback"] = lean_feedback
        return self.render_feedback("lean-refinement", values)


# --- artifact extraction ----------------------------------------------------

_FENCE = re.compile(r"(?m)^```[^\n]*\n((?:[^\n]*\n)*?)```[ \t]*$")
_PYTHON_BLOCK = re.compile(r"<python>(.*?)</python>", re.S)
_IMPORT_STD = re.compile(r"(?m)^import Std\b")


def _trim_block(body: str, start: int) -> Tuple[str, int, int]:
    """Strip one leading and one trailing newline, adjusting the span."""
    end = start + len(body)
    if body.startswith("\n"):
        body = body[1:]
        start += 1
    if body.endswith("\n"):
        body = body[:-1]
        end -= 1
    return body, start, end


def extract_artifacts(completion: str, domain: str) -> ExtractedArtifact:
    """Pull the verifiable artifact out of a model completion.

    Spec domain: the last non-empty region between <python> and </python>.
    Code and proof domains: the last complete fenced code block, falling
    back to the region starting at the first line beginning with
    `import Std`. Theorems inside a proof are read by
    proofs.extract_theorems.

    Raises NoArtifactError when nothing extractable is present.
    """
    if domain not in DOMAINS:
        raise TemplateError(f"unknown domain {domain!r}")

    if domain == "spec":
        for match in reversed(list(_PYTHON_BLOCK.finditer(completion))):
            body, start, end = _trim_block(match.group(1), match.start(1))
            if body.strip():
                return ExtractedArtifact(kind="PythonSource", body=body, span=(start, end))
        raise NoArtifactError("no <python> block found in completion")

    lean_body: Optional[str] = None
    base = 0
    fenced = [m for m in _FENCE.finditer(completion) if m.group(1).strip()]
    if fenced:
        match = fenced[-1]
        body = match.group(1)
        start = match.start(1)
        if body.endswith("\n"):
            body = body[:-1]
        lean_body = body
        base = start
    else:
        std = _IMPORT_STD.search(completion)
        if std:
            lean_body = completion[std.start() :].rstrip("\n")
            base = std.start()
    if lean_body is None or not lean_body.strip():
        raise NoArtifactError(
            "no fenced code block or import Std region found in completion"
        )
    return ExtractedArtifact(
        kind="LeanSource", body=lean_body, span=(base, base + len(lean_body))
    )
