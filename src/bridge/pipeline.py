"""Run orchestration: cells, attempt chains, retries, and evaluation.

A run crosses problems, strategies, and models into cells.  Each cell
draws n initial completions; every completion starts an attempt chain
that is extracted, judged, and retried with error feedback until success
or the round budget runs out.

Each domain maps to one backend check that returns a Verdict: spec
artifacts run against the unit tests in the Python sandbox; code and proof
artifacts are scaffolded and checked by Lean, as is the Lean translation
that cross-feedback asks for, compiled without the unit tests.  After the
chain ends, spec chains that succeeded get the contract and vacuity checks,
and proof chains get their theorems extracted.

Serialized chain schema (one JSON object per line in chains.jsonl):

    {"problem", "strategy", "model", "sample_index", "final_status",
     "rounds": [{"round", "prompt_digest",
                 "completion": {"text", "reported_tokens", "latency"},
                 "artifact": {"kind", "body", "span"} | null,
                 "words", "tokens", "outcome": {...} | null, ...}],
     "annotations": {...}}

final_status is Success, Failure, or NoArtifact (the last round yielded
nothing evaluable).  Output trees are deterministic: no timestamps, no
machine identifiers, canonical ordering throughout.

A run does each distinct piece of work once.  A completion text is judged
once per (domain, problem, text), and its artifact and outcome dicts are
built with its verdict.  When the gateway answers by digest, the rounds
after a failed round depend only on (domain, problem, model, failed text,
round number), and a whole chain only on its domain, problem and first
record, so they are run once and every chain that reaches them holds the
same round objects; chains.jsonl encodes each of those once.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import re
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import MISSING, dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple
from typing import Union

from . import __version__, lean, metrics, proofs, pyexec
from .corpus import Problem, load_manifest
from .errors import ConfigError, NoArtifactError
from .gateway import MODES as GATEWAY_MODES
from .gateway import CompletionRecord, DecodingParams, ModelGateway, count_tokens
from .lean import LeanVerifier, VerificationOutcome, VerifyStatus
from .prompts import ExtractedArtifact, StrategyId, TemplateCatalog
from .prompts import extract_artifacts, list_strategies, problem_values

RUN_MODES = ("ParallelOnly", "RetryOnly", "ParallelPlusRetry")
SUCCESS_PREDICATES = ("compile+guards", "compile-only")

_NO_ARTIFACT_MESSAGE = "no artifact could be extracted from the completion"


def _section(**defaults) -> dataclasses.Field:
    """A config object whose keys, and their defaults, are the ones given."""
    return dataclasses.field(default_factory=lambda: dict(defaults))


_KIND_NAMES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
               dict: "an object"}


@dataclass(frozen=True)
class _Rule:
    """What one config value must be.  kind is its JSON kind (int an integer,
    float a number, dict an object, [kind] an array of that kind); among lists
    the allowed values, least and most bound it and it must exceed above, all
    per item for an array; filled refuses an empty array or string; repeats
    lets an array repeat an item;
    entries rules the keys of each entry of an object, a missing key as null.
    Values are checked, never converted, so an int temperature keeps its bytes
    in the manifest and the run id."""

    kind: object
    null: bool = False
    among: Tuple = ()
    least: Optional[int] = None
    most: Optional[int] = None
    above: Optional[int] = None
    filled: bool = False
    repeats: bool = False
    entries: Optional[Mapping[str, "_Rule"]] = None

    def check(self, name: str, value) -> None:
        """Refuse a value that breaks the rule; true is no integer."""
        if value is None and self.null:
            return
        kind, items = self.kind, [value]
        if isinstance(kind, list):
            kind, items = kind[0], value
            if not isinstance(value, (list, tuple)) or (self.filled and not value):
                _refuse(name, value, "a non-empty array" if self.filled else "an array")
        elif self.filled and value == "":
            _refuse(name, value, "a non-empty string")
        for item in items:
            if type(item) not in ((int, float) if kind is float else (kind,)):
                _refuse(name, item, _KIND_NAMES[kind])
            if self.among and item not in self.among:
                _refuse(name, item, f"one of {json.dumps(self.among)}")
            if self.least is not None and item < self.least:
                _refuse(name, item, f"at least {self.least}")
            if self.most is not None and item > self.most:
                _refuse(name, item, f"at most {self.most}")
            if self.above is not None and item <= self.above:
                _refuse(name, item, f"more than {self.above}")
        if isinstance(self.kind, list) and not self.repeats and len(set(items)) < len(items):
            _refuse(name, value, "an array with no repeated item")
        for key, entry in (value.items() if self.entries else ()):
            _Rule(dict).check(f"{name}.{key}", entry)
            for field in {**self.entries, **entry}:  # the rule's keys, then any other
                if field not in self.entries:
                    raise ConfigError(f"unknown config key {name}.{key}.{field}")
                self.entries[field].check(f"{name}.{key}.{field}", entry.get(field))


def _refuse(name: str, value, expected: str) -> None:
    shown = json.dumps(value, default=repr)
    raise ConfigError(f"bad value for {name}: {shown}; expected {expected}")


# one rule for every config key, a section's keys dotted; RunConfig.from_obj
# checks them all, in this order, so a section is an object before its keys
_RULES = {
    "corpus": _Rule(str),
    "models": _Rule([str], filled=True),
    "strategies": _Rule([str], among=tuple(s.key for s in list_strategies()), filled=True),
    "problems": _Rule([str]),
    "decoding": _Rule(dict),
    "decoding.temperature": _Rule(float, least=0, most=2),
    "decoding.max_tokens": _Rule(int, least=1),
    "decoding.n_samples": _Rule(int, least=1),
    "decoding.seed": _Rule(int, null=True),
    "mode": _Rule(str, among=RUN_MODES),
    "max_retries": _Rule(int, least=0),
    "temperature_grid": _Rule([float], least=0, most=2, repeats=True),
    "parallelism": _Rule(int, least=1),
    "seed": _Rule(int),
    "gateway": _Rule(dict),
    "gateway.mode": _Rule(str, among=GATEWAY_MODES),
    "gateway.script": _Rule(str, null=True),
    "gateway.archive_dir": _Rule(str, null=True),
    "gateway.providers": _Rule(dict, entries={
        "provider": _Rule(str, filled=True),
        "endpoint": _Rule(str, filled=True),
        "batch_limit": _Rule(int, null=True, least=1),
    }),
    "lean": _Rule(dict),
    "lean.command": _Rule([str], null=True, filled=True, repeats=True),
    "lean.mathlib": _Rule(bool),
    "lean.timeout": _Rule(float, above=0),
    "lean.transcripts": _Rule(str, null=True),
    "python": _Rule(dict),
    "python.timeout": _Rule(float, above=0),
    "success": _Rule(dict),
    "success.lean": _Rule(str, among=SUCCESS_PREDICATES),
    "spec_checks": _Rule(dict),
    "spec_checks.contracts": _Rule(bool),
    "spec_checks.vacuity": _Rule(bool),
    "spec_checks.cross_feedback": _Rule(bool),
    "spec_checks.trials": _Rule(int, least=1),
    "spec_checks.random_trials": _Rule(int, least=0),
    "intersection_threshold": _Rule(int, least=1),
    "runs_root": _Rule(str),
    "k_ladder": _Rule([int], least=1, filled=True),
}


@dataclass(frozen=True)
class RunConfig:
    corpus: str
    models: Tuple[str, ...]
    strategies: Tuple[str, ...]
    problems: Tuple[str, ...] = ()
    decoding: Mapping = _section(temperature=0.7, max_tokens=4096, n_samples=1, seed=None)
    mode: str = "ParallelPlusRetry"
    max_retries: int = 3
    temperature_grid: Tuple[float, ...] = ()
    parallelism: int = 4
    seed: int = 0
    gateway: Mapping = _section(mode="mock", script=None, archive_dir=None, providers={})
    lean: Mapping = _section(
        command=None, mathlib=False, timeout=lean.DEFAULT_TIMEOUT, transcripts=None
    )
    python: Mapping = _section(timeout=pyexec.DEFAULT_TIMEOUT)
    success: Mapping = _section(lean="compile+guards")
    spec_checks: Mapping = _section(
        contracts=False,
        vacuity=False,
        cross_feedback=False,
        trials=pyexec.DEFAULT_TRIALS,
        random_trials=pyexec.DEFAULT_RANDOM_TRIALS,
    )
    intersection_threshold: int = proofs.DEFAULT_THRESHOLD
    runs_root: str = "runs"
    k_ladder: Tuple[int, ...] = metrics.DEFAULT_K_LADDER

    @classmethod
    def from_obj(
        cls, obj: Mapping, overrides: Optional[Mapping[str, str]] = None
    ) -> "RunConfig":
        """Resolve a config object; dotted `overrides` apply to a copy of it.

        A section's keys merge over its defaults; then every value, given or
        default, must pass its rule in _RULES, so a bad config is refused
        before anything runs.
        """
        if overrides:
            obj = copy.deepcopy(dict(obj))
            for dotted, raw in overrides.items():
                _apply_override(obj, dotted, raw)
        fields = {field.name: field for field in dataclasses.fields(cls)}
        given = {}
        for key, value in obj.items():
            if key not in fields:
                raise ConfigError(f"unknown config key {key}")
            section = fields[key].default_factory
            if section is not MISSING and isinstance(value, dict):
                defaults = section()
                for name in value:
                    if name not in defaults:
                        raise ConfigError(f"unknown config key {key}.{name}")
                value = {**defaults, **value}
            given[key] = tuple(value) if isinstance(value, list) else value
        for key, field in fields.items():
            if key not in given and field.default is field.default_factory is MISSING:
                raise ConfigError(f"config is missing required key {key}")
        config = cls(**given)
        for name, rule in _RULES.items():
            section, _, key = name.partition(".")
            value = getattr(config, section)
            rule.check(name, value[key] if key else value)
        return config

    @classmethod
    def from_file(
        cls, path, overrides: Optional[Mapping[str, str]] = None
    ) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        return cls.from_obj(obj, overrides)

    def to_obj(self) -> Dict:
        out = dataclasses.asdict(self)
        return {key: list(v) if isinstance(v, tuple) else v for key, v in out.items()}

    @property
    def decoding_seed(self) -> int:
        """The sampling seed: decoding.seed, or the run's seed when that is null."""
        seed = self.decoding["seed"]
        return self.seed if seed is None else seed

    def decoding_params(self) -> DecodingParams:
        """A cell's first request; RetryOnly draws one sample per cell."""
        dec = self.decoding
        return DecodingParams(
            temperature=float(dec["temperature"]),
            max_tokens=dec["max_tokens"],
            n_samples=1 if self.mode == "RetryOnly" else dec["n_samples"],
            seed=self.decoding_seed,
        )

    def points(self) -> List[Tuple[str, "RunConfig"]]:
        """(run-id suffix, config) of each run this config asks for.

        An empty temperature_grid asks for one run of the config itself.
        Otherwise grid entry i gets its own run, suffixed -t<i>, at that
        temperature with seed decoding_seed ^ i and an empty grid.
        """
        if not self.temperature_grid:
            return [("", self)]
        points = []
        for index, temperature in enumerate(self.temperature_grid):
            seed = self.decoding_seed ^ index
            decoding = {**self.decoding, "temperature": temperature, "seed": seed}
            point = dataclasses.replace(self, decoding=decoding, temperature_grid=())
            points.append((f"-t{index}", point))
        return points


def _apply_override(obj: Dict, dotted: str, raw: str) -> None:
    parts = dotted.split(".")
    node = obj
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override {dotted} descends through non-object {part}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node[parts[-1]] = value


def _digest_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _digest_templates(root: Path) -> str:
    hasher = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            hasher.update(str(path.relative_to(root)).encode("utf-8"))
            hasher.update(b"\x00")
            hasher.update(path.read_bytes())
            hasher.update(b"\x00")
    return hasher.hexdigest()


def compute_run_id(config: RunConfig, corpus_digest: str, templates_digest: str) -> str:
    blob = json.dumps(
        {
            "config": config.to_obj(),
            "corpus": corpus_digest,
            "templates": templates_digest,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return "run-" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _claim_run_dir(root: Path, run_id: str) -> Path:
    """Existing run directories are never overwritten."""
    root.mkdir(parents=True, exist_ok=True)
    candidate = root / run_id
    suffix = 2
    while candidate.exists():
        candidate = root / f"{run_id}-{suffix}"
        suffix += 1
    candidate.mkdir()
    return candidate


@dataclass(frozen=True)
class RunResult:
    """A finished run.  Its chains are read-only: chains that reach the same
    judgement or the same retry rounds hold the same dicts."""

    run_id: str
    run_dir: Path
    chains: Tuple[Dict, ...]
    manifest: Dict


class Verdict(NamedTuple):
    """One backend's judgement of one artifact.

    stop means the backend could not judge at all (no Lean toolchain or
    transcript), which ends the chain; errors feed the retry prompt.
    reusable means the same artifact would get the same verdict again, so
    the run keeps it.
    """

    success: bool
    stop: bool
    errors: Tuple[str, ...]
    outcome: Union[None, pyexec.TestOutcome, VerificationOutcome]
    reusable: bool


_NO_ARTIFACT = Verdict(False, False, (_NO_ARTIFACT_MESSAGE,), None, reusable=True)


class _Judgement(NamedTuple):
    """A completion text's verdict, with the artifact and outcome dicts that
    every round of that text writes."""

    artifact: Optional[Dict]
    verdict: Verdict
    outcome: Optional[Dict]


class _Rounds(NamedTuple):
    """A chain from one round on: its rounds, its final status, the
    annotation flags they and the retry before them set, and whether every
    verdict in them is reusable.  cross_feedback, when set, belongs to the
    round before."""

    rounds: Tuple[Dict, ...]
    status: str
    flags: Mapping[str, bool]
    reusable: bool
    cross_feedback: Optional[Dict] = None


def _completion_obj(record: CompletionRecord) -> Dict:
    return {
        "text": record.text,
        "reported_tokens": record.reported_tokens,
        "latency": record.latency,
    }


def _artifact_obj(artifact: ExtractedArtifact) -> Dict:
    return {"kind": artifact.kind, "body": artifact.body, "span": list(artifact.span)}


def _round_obj(round_no: int, record: CompletionRecord, judged: _Judgement) -> Dict:
    words, tokens = count_tokens(record)
    return {
        "round": round_no,
        "prompt_digest": record.prompt_digest,
        "completion": _completion_obj(record),
        "artifact": judged.artifact,
        "words": words,
        "tokens": tokens,
        "outcome": judged.outcome,
    }


# the bytes json.dumps(obj, sort_keys=True, separators=(",", ":")) gives,
# without building an encoder per call
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _chain_line(chain: Dict, encode_round: Callable[[Dict], str]) -> str:
    """The chain's canonical JSON, its rounds encoded by encode_round and
    spliced in where "rounds" sorts among its keys."""
    keys = sorted(chain)
    at = keys.index("rounds")
    rounds = '"rounds":[' + ",".join(map(encode_round, chain["rounds"])) + "]"
    parts = [
        _canonical({key: chain[key] for key in keys[:at]})[1:-1],
        rounds,
        _canonical({key: chain[key] for key in keys[at + 1:]})[1:-1],
    ]
    return "{" + ",".join(part for part in parts if part) + "}"


# the end of a canonical chain line: its top-level sample_index and strategy
_LINE_END = re.compile(rb',"sample_index":(0|[1-9]\d{0,17}),"strategy":"(?:[^"\\]|\\.)*"\}\n?')


def _read_chains(path: Path) -> Iterator[Dict]:
    """The chains of a chains.jsonl, in file order: the inverse of _chain_line.

    A line is decoded only if no earlier line of its (problem, strategy,
    model) cell is the same but for its top-level sample_index; a repeat
    yields a shallow copy with its own sample_index, so the chains of a cell
    share nested objects, read-only, as a run's chains do.  The file is
    sorted by cell, so only the current cell's lines are kept.  The
    sample_index member is found from the end of the line: `,"` never occurs
    inside a JSON string, whose quotes are escaped.  A line that does not end
    in the canonical form is decoded as it is.  A line that is not a chain
    raises ConfigError naming it.
    """
    seen: Dict[Tuple[bytes, bytes], Dict] = {}
    cell = None
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            at = line.rfind(b',"sample_index":')
            end = _LINE_END.fullmatch(line, at) if at >= 0 else None
            if end is not None:
                key = (line[:at], line[end.end(1):])
                first = seen.get(key)
                if first is not None:
                    chain = dict(first)
                    chain["sample_index"] = int(end.group(1))
                    yield chain
                    continue
            try:
                chain = json.loads(line)
            except ValueError as exc:
                raise ConfigError(f"{path}:{number}: not a JSON line ({exc})") from None
            if not isinstance(chain, dict):
                raise ConfigError(f"{path}:{number}: not a JSON object")
            for name in ("problem", "strategy", "model", "final_status"):
                if not isinstance(chain.get(name), str):
                    raise ConfigError(f"{path}:{number}: {name} is missing or not a string")
            rounds = chain.get("rounds")
            if not isinstance(rounds, list) or not all(isinstance(r, dict) for r in rounds):
                raise ConfigError(f"{path}:{number}: rounds is missing or not a list of objects")
            if (chain["problem"], chain["strategy"], chain["model"]) != cell:
                cell = (chain["problem"], chain["strategy"], chain["model"])
                seen.clear()
            if end is not None:
                seen[key] = chain
            yield chain


def _diagnostic_lines(outcome: VerificationOutcome, fallback: str) -> List[str]:
    """Lean diagnostics as retry-prompt lines; `fallback status` when none."""
    lines = [
        f"{d.line}:{d.column}: {d.severity}: {d.message}" for d in outcome.diagnostics
    ]
    return lines or [f"{fallback} {outcome.status.value}"]


def _final_artifact(chain: Dict) -> Optional[Dict]:
    """The artifact of the chain's last round that yielded one."""
    for round_obj in reversed(chain["rounds"]):
        if round_obj.get("artifact"):
            return round_obj["artifact"]
    return None


def _claim(table: Dict, key: tuple) -> Tuple[Optional[Future], object]:
    """(claim, None) when this worker is the first to miss table[key], which
    it then makes and settles; else (None, the value), waiting on a claim
    for its value, kept or not.

    The claim is a dict.setdefault, which is atomic, so of two workers that
    miss at once exactly one claims; a lock around it made the workers queue
    on each other at every lookup, a thread switch each time.
    """
    claim = None
    found = table.get(key)
    if found is None:
        claim = Future()
        found = table.setdefault(key, claim)
    if found is claim:
        return claim, None
    return None, found.result() if isinstance(found, Future) else found


def _settle(table: Dict, key: tuple, claim: Future, value=None, *, keep: bool = False,
            error: Optional[BaseException] = None) -> None:
    """Give a claim's waiters its value, or its error; the value stays in the
    table when keep, else the claim is dropped and a later miss makes it again."""
    if keep:
        table[key] = value
    else:
        del table[key]
    if error is not None:
        claim.set_exception(error)
    else:
        claim.set_result(value)


class Orchestrator:
    """Executes one configured run against injectable backends."""

    def __init__(
        self,
        config: RunConfig,
        *,
        gateway: Optional[ModelGateway] = None,
        verifier: Optional[LeanVerifier] = None,
    ) -> None:
        if config.temperature_grid:
            raise ConfigError("a config with a temperature_grid runs through execute()")
        self.config = config
        self.catalog = TemplateCatalog()
        self.gateway = gateway if gateway is not None else ModelGateway(**config.gateway)
        self.verifier = verifier if verifier is not None else LeanVerifier(**config.lean)
        # (backend, problem id, completion text) -> its reusable judgement, or
        # the Future of a worker's claim while it judges the text
        self._judged: Dict[tuple, Union[Future, _Judgement]] = {}
        # when the gateway answers by digest, the key of the rounds from a round
        # on (see _chain_rounds) -> those rounds, or the Future of a claim
        self._tails: Dict[tuple, Union[Future, _Rounds]] = {}
        self._shares_tails = getattr(self.gateway, "answers_by_digest", False)
        # (body, pathway) -> the encoded theorems of a proof chain's final
        # artifact, one list that every such chain holds read-only
        self._theorem_sets: Dict[tuple, List[Dict]] = {}
        self._cell_params = config.decoding_params()
        self._single_params = dataclasses.replace(self._cell_params, n_samples=1)
        self._max_rounds = 1 if config.mode == "ParallelOnly" else 1 + config.max_retries
        lean_source = partial(extract_artifacts, domain="code")
        python_source = partial(extract_artifacts, domain="spec")
        guards = config.success["lean"] == "compile+guards"
        check_lean = partial(self._check_lean, guards=guards)
        # a domain, or the Lean translation of a spec round that cross-feedback
        # asks for -> (artifact extraction, check, after-chain step)
        self._backends = {
            "code": (lean_source, check_lean, None),
            "spec": (python_source, self._check_python, self._spec_checks),
            "proof": (lean_source, check_lean, self._theorems),
            "translation": (lean_source, partial(self._check_lean, guards=False), None),
        }
        problems = load_manifest(config.corpus)
        if config.problems:
            missing = set(config.problems) - {p.id for p in problems}
            if missing:
                raise ConfigError(f"config selects unknown problems: {sorted(missing)}")
            problems = [p for p in problems if p.id in config.problems]
        self.problems = list(problems)
        if not self.problems:
            raise ConfigError("no problems selected for the run")

    # --- cell and chain execution ------------------------------------

    def cells(self) -> List[Tuple[Problem, StrategyId, str]]:
        # cells of one problem share completion texts, so workers that run
        # side by side take different problems and rarely wait on a claim
        problems = sorted(self.problems, key=lambda problem: problem.id)
        return [
            (problem, StrategyId.parse(raw), model)
            for model in sorted(self.config.models)
            for raw in sorted(self.config.strategies)
            for problem in problems
        ]

    def _run_cell(self, problem: Problem, strategy: StrategyId, model: str) -> List[Dict]:
        prompt = self.catalog.render(strategy, problem)
        records = self.gateway.complete_n(model, prompt, self._cell_params)
        return [
            self._run_chain(problem, strategy, model, record) for record in records
        ]

    def _run_chain(
        self,
        problem: Problem,
        strategy: StrategyId,
        model: str,
        first_record: CompletionRecord,
    ) -> Dict:
        domain = strategy.domain
        _, _, after = self._backends[domain]
        chain_rounds = self._chain_rounds(domain, problem, model, first_record)
        chain = {
            "problem": problem.id,
            "strategy": strategy.key,
            "model": model,
            "sample_index": first_record.sample_index,
            "final_status": chain_rounds.status,
            "rounds": list(chain_rounds.rounds),
            "annotations": dict(chain_rounds.flags),
        }
        if after is not None:
            after(chain, problem, strategy)
        return chain

    def _chain_rounds(self, domain: str, problem: Problem, model: str,
                      record: CompletionRecord) -> _Rounds:
        """A chain's rounds: each is judged and, if it failed with budget
        left, retried with its errors.

        When the gateway answers by digest, the rounds from a round on depend
        only on a key: for the first round, (domain, problem id) and its
        record but for the sample index; after a failed round whose verdict
        is reusable, (domain, problem id, model, failed text, round number).
        The first worker to reach a key claims it and makes those rounds,
        kept while every verdict in them is reusable; a chain that reaches a
        claimed key takes its rounds as they are, so chains share round
        objects.  A live gateway draws afresh for each request, so there each
        chain makes its own.  The walk is a loop, so no max_retries is too
        deep for it.
        """
        # per round made here: the (key, claim) of the rounds from it on, if
        # claimed; the round; its flags and reusability with those of the
        # retry that led to it; and that retry's cross_feedback, which belongs
        # to the round before
        made: List[Tuple[Optional[Tuple[tuple, Future]], Dict, Dict[str, bool], bool,
                         Optional[Dict]]] = []
        claims: List[Tuple[tuple, Future]] = []  # dropped, with the error, if the walk raises
        key = None
        if self._shares_tails:
            key = (domain, problem.id, dataclasses.replace(record, sample_index=0))
        flags: Dict[str, bool] = {}
        reusable, cross_feedback, round_no, failed = True, None, 1, None
        try:
            while True:
                claimed = None
                if key is not None:
                    claim, rest = _claim(self._tails, key)
                    if claim is None:
                        break
                    claimed = (key, claim)
                    claims.append(claimed)
                if failed is not None:
                    flags, reusable, cross_feedback, prompt = self._retry(
                        domain, problem, model, round_no, *failed)
                    record = self.gateway.complete_n(model, prompt, self._single_params)[0]
                    round_no += 1
                judged = self._judge(domain, problem, record.text)
                verdict = judged.verdict
                if verdict.stop:
                    flags["lean_unavailable"] = True
                made.append((claimed, _round_obj(round_no, record, judged), flags,
                             reusable and verdict.reusable, cross_feedback))
                if verdict.success or verdict.stop or round_no == self._max_rounds:
                    status = ("Success" if verdict.success
                              else "Failure" if judged.artifact is not None else "NoArtifact")
                    rest = _Rounds((), status, {}, True)
                    break
                # a verdict that is not kept may differ next time, and so its retry
                shared = self._shares_tails and verdict.reusable
                key = (domain, problem.id, model, record.text, round_no) if shared else None
                failed = (record.text, judged)
        except BaseException as exc:
            for key, claim in claims:
                _settle(self._tails, key, claim, error=exc)
            raise
        rounds = [round_obj for _, round_obj, *_ in made] + list(rest.rounds)
        status, flags, reusable = rest.status, rest.flags, rest.reusable
        after = rest.cross_feedback
        for at in range(len(made) - 1, -1, -1):
            claimed, round_obj, own_flags, own_reusable, cross_feedback = made[at]
            if after is not None:
                round_obj["cross_feedback"] = after
            flags, reusable = {**own_flags, **flags}, own_reusable and reusable
            after = cross_feedback
            if claimed is not None:
                value = _Rounds(tuple(rounds[at:]), status, flags, reusable, after)
                _settle(self._tails, *claimed, value, keep=reusable)
        return _Rounds(tuple(rounds), status, flags, reusable)

    def _retry(self, domain: str, problem: Problem, model: str, round_no: int, text: str,
               judged: _Judgement) -> Tuple[Dict[str, bool], bool, Optional[Dict], str]:
        """What a failed round's retry sets: its annotation flags, whether the
        cross-feedback verdict is reusable, the failed round's cross_feedback
        record, and the retry prompt.  All depend only on (domain, problem,
        model, failed text, round number)."""
        flags: Dict[str, bool] = {}
        lean_feedback, cross_feedback, reusable = None, None, True
        if domain == "spec" and self.config.spec_checks["cross_feedback"] and judged.artifact:
            lean_feedback, cross_feedback, reusable = self._lean_feedback(
                problem, model, judged.artifact["body"], flags
            )
        prompt = self.catalog.render_retry(
            judged.artifact["body"] if judged.artifact else text,
            judged.verdict.errors,
            round_index=round_no,
            max_rounds=self.config.max_retries,
            lean_feedback=lean_feedback,
        )
        return flags, reusable, cross_feedback, prompt

    # --- backends ------------------------------------------------------

    def _judge(self, backend: str, problem: Problem, text: str) -> _Judgement:
        """The judgement of a completion text: its artifact and verdict.

        This is the run's only verdict cache: a judgement is kept for the
        rest of the run when its verdict is reusable, so a repeated text
        (another sample, model or strategy of the domain, a retry that
        repeats an answer, or a repeated translation) is judged once, and
        every round of it holds the same artifact and outcome dicts.
        """
        key = (backend, problem.id, text)
        claim, judged = _claim(self._judged, key)
        if claim is not None:
            try:
                judged = self._judgement(backend, problem, text)
            except BaseException as exc:
                _settle(self._judged, key, claim, error=exc)
                raise
            _settle(self._judged, key, claim, judged, keep=judged.verdict.reusable)
        return judged

    def _judgement(self, backend: str, problem: Problem, text: str) -> _Judgement:
        extract, check, _ = self._backends[backend]
        try:
            artifact = extract(text)
        except NoArtifactError:
            return _Judgement(None, _NO_ARTIFACT, None)
        verdict = check(artifact.body, problem)
        return _Judgement(_artifact_obj(artifact), verdict, verdict.outcome.to_obj())

    def _check_python(self, body: str, problem: Problem) -> Verdict:
        outcome = pyexec.run_tests(body, problem, timeout=self.config.python["timeout"])
        # Timeout and Crash may be the host's fault
        reusable = outcome.fault not in ("Timeout", "Crash")
        errors = []
        for failure in outcome.failures:
            index = failure.get("index")
            reason = failure.get("reason")
            if reason == "mismatch":
                errors.append(
                    f"test {index}: expected {failure.get('expected')}, "
                    f"observed {failure.get('observed')}"
                )
            elif reason == "exception":
                errors.append(f"test {index}: raised {failure.get('error')}")
            elif reason == "crash":
                errors.append(f"candidate failed to load: {failure.get('error')}")
                break
            else:
                errors.append(f"test {index}: {reason}")
        if outcome.fault and outcome.fault != "RuntimeError":
            errors.append(f"execution fault: {outcome.fault}")
        return Verdict(outcome.all_passed, False, tuple(errors), outcome, reusable)

    def _check_lean(self, body: str, problem: Problem, *, guards: bool) -> Verdict:
        project = self.verifier.scaffold(body, problem, include_tests=guards)
        outcome = self.verifier.check(project)
        return Verdict(
            success=outcome.status is VerifyStatus.VERIFIED,
            stop=outcome.status is VerifyStatus.TOOL_MISSING,
            errors=tuple(_diagnostic_lines(outcome, "verification ended with status")),
            outcome=outcome,
            # a live compile can time out where another of the same source would not
            reusable=self.verifier.replays and outcome.status is not VerifyStatus.TIMEOUT,
        )

    def _spec_checks(self, chain: Dict, problem: Problem, strategy: StrategyId) -> None:
        """Contract fuzzing and the vacuity check for a passing specification."""
        if chain["final_status"] != "Success":
            return
        checks = self.config.spec_checks
        body = _final_artifact(chain)["body"]
        timeout = self.config.python["timeout"]
        if checks["contracts"]:
            report = pyexec.check_contracts(
                body,
                problem,
                trials=checks["trials"],
                seed=self.config.seed,
                timeout=timeout,
            )
            chain["annotations"]["contracts"] = report.to_obj()
        if checks["vacuity"]:
            # the passing judgement is kept, so this finds its test outcome,
            # which vacuity_check need not run again as its reference
            text = chain["rounds"][-1]["completion"]["text"]
            reference = self._judge("spec", problem, text).verdict.outcome
            try:
                vacuity = pyexec.vacuity_check(
                    body,
                    problem,
                    seed=self.config.seed,
                    random_trials=checks["random_trials"],
                    timeout=timeout,
                    reference=reference,
                ).to_obj()
            except pyexec.MutantError as exc:
                vacuity = {"type": "vacuity", "verdict": "NoMutants", "error": str(exc)}
            chain["annotations"]["vacuity"] = vacuity

    def _theorems(self, chain: Dict, problem: Problem, strategy: StrategyId) -> None:
        artifact = _final_artifact(chain)
        if artifact is not None:
            key = (artifact["body"], strategy.name)
            theorems = self._theorem_sets.get(key)
            if theorems is None:
                theorems = [c.to_obj() for c in proofs.extract_theorems(*key)]
                self._theorem_sets[key] = theorems
            chain["annotations"]["theorems"] = theorems

    # --- retries ---------------------------------------------------------

    def _lean_feedback(
        self, problem: Problem, model: str, body: str, flags: Dict[str, bool]
    ) -> Tuple[Optional[str], Optional[Dict], bool]:
        """Second-stage translation check: the feedback for the retry prompt,
        the failed round's cross_feedback record, and whether the
        translation's verdict is reusable.  The feedback is None, with a flag
        saying why, when Lean cannot weigh in."""
        values = dict(problem_values(problem))
        values["python_source"] = body
        prompt = self.catalog.render_feedback("lean-translation", values)
        record = self.gateway.complete_n(model, prompt, self._single_params)[0]
        judged = self._judge("translation", problem, record.text)
        reusable = judged.verdict.reusable
        if judged.artifact is None:
            flags["cross_feedback_no_artifact"] = True
            return None, None, reusable
        # each retry's record is its own; a shared tail makes it once
        cross_feedback = {
            "prompt_digest": record.prompt_digest,
            "completion": _completion_obj(record),
            "artifact": judged.artifact,
            "outcome": judged.outcome,
        }
        if judged.verdict.stop:
            flags["lean_unavailable"] = True
            return None, cross_feedback, reusable
        lines = _diagnostic_lines(judged.verdict.outcome, "Lean verification status:")
        return "\n".join(lines), cross_feedback, reusable

    # --- run assembly --------------------------------------------------

    def run(self, suffix: str = "") -> RunResult:
        """Run every cell and write the run directory; `suffix` ends its id."""
        config = self.config
        cell_list = self.cells()
        try:
            with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
                nested = list(pool.map(lambda c: self._run_cell(*c), cell_list))
        finally:
            # reaped servers put the sandbox's CPU time in RUSAGE_CHILDREN
            pyexec.shutdown()
        chains = [chain for group in nested for chain in group]
        chains.sort(
            key=lambda c: (c["problem"], c["strategy"], c["model"], c["sample_index"])
        )

        corpus_digest = _digest_file(config.corpus)
        templates_digest = _digest_templates(self.catalog.root)
        run_id = compute_run_id(config, corpus_digest, templates_digest) + suffix
        run_dir = _claim_run_dir(Path(config.runs_root), run_id)

        manifest = {
            "version": __version__,
            "config": config.to_obj(),
            "corpus_digest": corpus_digest,
            "templates_digest": templates_digest,
            "problem_ids": [p.id for p in self.problems],
            "cell_count": len(cell_list),
            "chain_count": len(chains),
        }
        with open(run_dir / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        # chains that share rounds share their objects, each encoded once
        encoded: Dict[int, str] = {}

        def encode_round(round_obj: Dict) -> str:
            text = encoded.get(id(round_obj))
            if text is None:
                text = encoded[id(round_obj)] = _canonical(round_obj)
            return text

        with open(run_dir / "chains.jsonl", "w", encoding="utf-8") as fh:
            for chain in chains:
                fh.write(_chain_line(chain, encode_round))
                fh.write("\n")
        self._emit_meta(run_dir, chains)
        return RunResult(
            run_id=run_id,
            run_dir=run_dir,
            chains=tuple(chains),
            manifest=manifest,
        )

    def _emit_meta(self, run_dir: Path, chains: Sequence[Dict]) -> None:
        """Intersect proof-pathway theorems per problem."""
        by_problem: Dict[str, List[Dict]] = {}
        for chain in chains:
            if chain["strategy"].startswith("proof/"):
                by_problem.setdefault(chain["problem"], []).append(chain)
        if not by_problem:
            return
        meta_dir = run_dir / "meta"
        meta_dir.mkdir(exist_ok=True)
        for problem_id in sorted(by_problem):
            groups: Dict[str, List[proofs.TheoremCandidate]] = {}
            for chain in by_problem[problem_id]:
                pathway = chain["strategy"].split("/", 1)[1]
                for item in chain["annotations"].get("theorems", ()):
                    categories = frozenset(item["categories"])
                    groups.setdefault(pathway, []).append(
                        proofs.TheoremCandidate(**{**item, "categories": categories})
                    )
            if not groups:
                continue
            # a passing chain's implementation first, else any chain's
            group = by_problem[problem_id]
            passing = [c for c in group if c["final_status"] == "Success"]
            implementation = next(
                (a["body"] for a in map(_final_artifact, passing + group) if a), ""
            )
            report = proofs.intersect(
                groups, threshold=self.config.intersection_threshold
            )
            document = proofs.emit_meta_analysis(report, implementation)
            with open(meta_dir / f"{problem_id}.json", "w", encoding="utf-8") as fh:
                fh.write(document)
                fh.write("\n")


def execute(
    config: RunConfig,
    *,
    gateway: Optional[ModelGateway] = None,
    verifier: Optional[LeanVerifier] = None,
) -> Iterator[RunResult]:
    """Run each point of the config (see RunConfig.points) in grid order.

    The points share one gateway, built from the config when none is given,
    so a replay archive is read once for the whole sweep.
    """
    if gateway is None:
        gateway = ModelGateway(**config.gateway)
    for suffix, point in config.points():
        yield Orchestrator(point, gateway=gateway, verifier=verifier).run(suffix)


def read_manifest(run_dir: Path) -> Dict:
    """The manifest.json of a run directory, which holds a `config` object;
    ConfigError naming the file when it is missing or damaged."""
    path = Path(run_dir) / "manifest.json"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{run_dir} has no manifest.json") from None
    except ValueError as exc:  # not UTF-8 or not JSON
        raise ConfigError(f"{path}: not a JSON document: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise ConfigError(f"{path}: not an object with a config object")
    return manifest


def write_report(run_dir: Path) -> Path:
    """Build the metrics report for an existing run directory, streaming its
    chains.jsonl."""
    chains_path = Path(run_dir) / "chains.jsonl"
    if not chains_path.exists():
        raise ConfigError(f"{run_dir} does not look like a run directory")
    config = read_manifest(run_dir)["config"]
    ladder = config.get("k_ladder") or metrics.DEFAULT_K_LADDER
    report_dir = Path(run_dir) / "report"
    metrics.emit_report(_read_chains(chains_path), config, report_dir, k_ladder=ladder)
    return report_dir
