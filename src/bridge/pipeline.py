"""Run orchestration: cells, attempt chains, retries, and evaluation.

A run crosses problems, strategies, and models into cells.  Each cell
draws n initial completions; every completion starts an attempt chain
that is extracted, judged, and retried with error feedback until success
or the round budget runs out.

Each domain maps to one backend check that returns a Verdict: spec
artifacts run against the unit tests in the Python sandbox; code and proof
artifacts are scaffolded and checked by Lean.  After the chain ends, spec
chains that succeeded get the contract and vacuity checks, and proof
chains get their theorems extracted.

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
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from . import __version__, metrics, proofs, pyexec
from .corpus import Problem, ProblemSet, load_manifest
from .errors import ConfigError, NoArtifactError
from .gateway import CompletionRecord, DecodingParams, ModelGateway, count_tokens
from .lean import LeanVerifier, VerificationOutcome, VerifyStatus
from .prompts import ExtractedArtifact, StrategyId, TemplateCatalog
from .prompts import extract_artifacts, problem_values

RUN_MODES = ("ParallelOnly", "RetryOnly", "ParallelPlusRetry")
SUCCESS_PREDICATES = ("compile+guards", "compile-only")

_NO_ARTIFACT_MESSAGE = "no artifact could be extracted from the completion"


def _merged(defaults: Mapping, given: Optional[Mapping], section: str) -> Dict:
    out = dict(defaults)
    if given is None:
        return out
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown key {section}.{key}")
        out[key] = value
    return out


@dataclass(frozen=True)
class RunConfig:
    corpus: str
    models: Tuple[str, ...]
    strategies: Tuple[str, ...]
    problems: Tuple[str, ...] = ()
    decoding: Mapping = dataclasses.field(default_factory=dict)
    mode: str = "ParallelPlusRetry"
    max_retries: int = 3
    temperature_grid: Tuple[float, ...] = ()
    parallelism: int = 4
    seed: int = 0
    gateway: Mapping = dataclasses.field(default_factory=dict)
    lean: Mapping = dataclasses.field(default_factory=dict)
    python: Mapping = dataclasses.field(default_factory=dict)
    success: Mapping = dataclasses.field(default_factory=dict)
    spec_checks: Mapping = dataclasses.field(default_factory=dict)
    intersection_threshold: int = 3
    runs_root: str = "runs"
    k_ladder: Tuple[int, ...] = metrics.DEFAULT_K_LADDER

    _DECODING = {"temperature": 0.7, "max_tokens": 4096, "n_samples": 1, "seed": None}
    _GATEWAY = {"mode": "mock", "script": None, "archive_dir": None, "providers": {}}
    _LEAN = {"command": None, "mathlib": False, "timeout": 120.0, "transcripts": None}
    _PYTHON = {"timeout": 5.0}
    _SUCCESS = {"lean": "compile+guards"}
    _SPEC_CHECKS = {
        "contracts": False,
        "vacuity": False,
        "cross_feedback": False,
        "trials": pyexec.DEFAULT_TRIALS,
        "random_trials": pyexec.DEFAULT_RANDOM_TRIALS,
    }

    @classmethod
    def from_obj(cls, obj: Mapping) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        for key in obj:
            if key not in known:
                raise ConfigError(f"unknown config key {key}")
        for key in ("corpus", "models", "strategies"):
            if key not in obj:
                raise ConfigError(f"config is missing required key {key}")

        strategies = tuple(obj["strategies"])
        for raw in strategies:
            try:
                StrategyId.parse(raw)
            except Exception as exc:
                raise ConfigError(f"bad strategy key {raw!r}: {exc}") from exc

        mode = obj.get("mode", "ParallelPlusRetry")
        if mode not in RUN_MODES:
            raise ConfigError(f"unknown run mode {mode}; expected one of {RUN_MODES}")

        config = cls(
            corpus=str(obj["corpus"]),
            models=tuple(obj["models"]),
            strategies=strategies,
            problems=tuple(obj.get("problems", ())),
            decoding=_merged(cls._DECODING, obj.get("decoding"), "decoding"),
            mode=mode,
            max_retries=int(obj.get("max_retries", 3)),
            temperature_grid=tuple(obj.get("temperature_grid", ())),
            parallelism=int(obj.get("parallelism", 4)),
            seed=int(obj.get("seed", 0)),
            gateway=_merged(cls._GATEWAY, obj.get("gateway"), "gateway"),
            lean=_merged(cls._LEAN, obj.get("lean"), "lean"),
            python=_merged(cls._PYTHON, obj.get("python"), "python"),
            success=_merged(cls._SUCCESS, obj.get("success"), "success"),
            spec_checks=_merged(cls._SPEC_CHECKS, obj.get("spec_checks"), "spec_checks"),
            intersection_threshold=int(obj.get("intersection_threshold", 3)),
            runs_root=str(obj.get("runs_root", "runs")),
            k_ladder=tuple(obj.get("k_ladder", metrics.DEFAULT_K_LADDER)),
        )
        if config.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        if config.parallelism < 1:
            raise ConfigError("parallelism must be at least 1")
        if config.success["lean"] not in SUCCESS_PREDICATES:
            raise ConfigError(
                f"unknown success predicate {config.success['lean']}; "
                f"expected one of {SUCCESS_PREDICATES}"
            )
        if not config.models:
            raise ConfigError("config lists no models")
        if not config.strategies:
            raise ConfigError("config lists no strategies")
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
        if overrides:
            for dotted, raw in overrides.items():
                _apply_override(obj, dotted, raw)
        return cls.from_obj(obj)

    def to_obj(self) -> Dict:
        out = dataclasses.asdict(self)
        for key, value in out.items():
            if isinstance(value, tuple):
                out[key] = list(value)
        return out


def _apply_override(obj: Dict, dotted: str, raw: str) -> None:
    parts = dotted.split(".")
    node = obj
    for part in parts[:-1]:
        nxt = node.get(part)
        if nxt is None:
            nxt = {}
            node[part] = nxt
        if not isinstance(nxt, dict):
            raise ConfigError(f"override {dotted} descends through non-object {part}")
        node = nxt
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node[parts[-1]] = value


def build_gateway(config: RunConfig) -> ModelGateway:
    gw = config.gateway
    return ModelGateway(
        gw["mode"],
        providers=gw["providers"] or None,
        script=gw["script"],
        archive_dir=gw["archive_dir"],
    )


def build_verifier(config: RunConfig) -> LeanVerifier:
    ln = config.lean
    return LeanVerifier(
        command=ln["command"],
        mathlib=bool(ln["mathlib"]),
        timeout=float(ln["timeout"]),
        transcripts=ln["transcripts"],
    )


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
    run_id: str
    run_dir: Path
    chains: Tuple[Dict, ...]
    manifest: Dict


@dataclass(frozen=True)
class Verdict:
    """One backend's judgement of one artifact.

    stop means the backend could not judge at all (no Lean toolchain or
    transcript), which ends the chain; errors feed the retry prompt.
    """

    success: bool
    stop: bool
    errors: Tuple[str, ...]
    outcome: Optional[Dict]


_NO_ARTIFACT = Verdict(False, False, (_NO_ARTIFACT_MESSAGE,), None)


def _pick(domain: str, index: int) -> Callable[[str], ExtractedArtifact]:
    return lambda completion: extract_artifacts(completion, domain)[index]


def _completion_obj(record: CompletionRecord) -> Dict:
    return {
        "text": record.text,
        "reported_tokens": record.reported_tokens,
        "latency": record.latency,
    }


def _artifact_obj(artifact: Optional[ExtractedArtifact]) -> Optional[Dict]:
    if artifact is None:
        return None
    return {"kind": artifact.kind, "body": artifact.body, "span": list(artifact.span)}


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


class Orchestrator:
    """Executes one configured run against injectable backends."""

    def __init__(
        self,
        config: RunConfig,
        *,
        gateway: Optional[ModelGateway] = None,
        verifier: Optional[LeanVerifier] = None,
        problems: Optional[ProblemSet] = None,
    ) -> None:
        self.config = config
        self.catalog = TemplateCatalog()
        self.gateway = gateway if gateway is not None else build_gateway(config)
        self.verifier = verifier if verifier is not None else build_verifier(config)
        # (problem id, body) -> outcome; Timeout and Crash may be the host's fault
        self._python_outcomes: Dict[Tuple[str, str], pyexec.TestOutcome] = {}
        # domain -> (artifact pick, check, after-chain step)
        self._backends = {
            "code": (_pick("code", 0), self._check_lean, None),
            "spec": (_pick("spec", -1), self._check_python, self._spec_checks),
            "proof": (_pick("proof", 0), self._check_lean, self._theorems),
        }
        if problems is None:
            problems = load_manifest(config.corpus)
            if config.problems:
                missing = set(config.problems) - {p.id for p in problems}
                if missing:
                    raise ConfigError(
                        f"config selects unknown problems: {sorted(missing)}"
                    )
                problems = [p for p in problems if p.id in config.problems]
        self.problems = list(problems)
        if not self.problems:
            raise ConfigError("no problems selected for the run")

    # --- cell and chain execution ------------------------------------

    def cells(self) -> List[Tuple[Problem, StrategyId, str]]:
        out = []
        for problem in self.problems:
            for raw in self.config.strategies:
                strategy = StrategyId.parse(raw)
                for model in self.config.models:
                    out.append((problem, strategy, model))
        out.sort(key=lambda cell: (cell[0].id, cell[1].key, cell[2]))
        return out

    def _decoding_params(self, n_samples: int) -> DecodingParams:
        dec = self.config.decoding
        seed = dec["seed"]
        if seed is None:
            seed = self.config.seed
        return DecodingParams(
            temperature=float(dec["temperature"]),
            max_tokens=int(dec["max_tokens"]),
            n_samples=n_samples,
            seed=seed,
        )

    def _run_cell(self, problem: Problem, strategy: StrategyId, model: str) -> List[Dict]:
        config = self.config
        n = int(config.decoding["n_samples"])
        if config.mode == "RetryOnly":
            n = 1
        prompt = self.catalog.render(strategy, problem)
        records = self.gateway.complete_n(model, prompt, self._decoding_params(n))
        return [
            self._run_chain(problem, strategy, model, record) for record in records
        ]

    def _max_rounds(self) -> int:
        if self.config.mode == "ParallelOnly":
            return 1
        return 1 + self.config.max_retries

    def _run_chain(
        self,
        problem: Problem,
        strategy: StrategyId,
        model: str,
        first_record: CompletionRecord,
    ) -> Dict:
        pick, check, after = self._backends[strategy.domain]
        max_rounds = self._max_rounds()
        annotations: Dict[str, object] = {}
        rounds: List[Dict] = []
        record = first_record
        final_status = "Failure"

        for round_no in range(1, max_rounds + 1):
            try:
                artifact = pick(record.text)
            except NoArtifactError:
                artifact, verdict = None, _NO_ARTIFACT
            else:
                verdict = check(artifact.body, problem)
            words, tokens = count_tokens(record)
            round_obj: Dict[str, object] = {
                "round": round_no,
                "prompt_digest": record.prompt_digest,
                "completion": _completion_obj(record),
                "artifact": _artifact_obj(artifact),
                "words": words,
                "tokens": tokens,
                "outcome": verdict.outcome,
            }
            if verdict.stop:
                annotations["lean_unavailable"] = True
            rounds.append(round_obj)

            if verdict.success:
                final_status = "Success"
                break
            if verdict.stop or round_no == max_rounds:
                final_status = "Failure" if artifact is not None else "NoArtifact"
                break

            retry_prompt = self._retry_prompt(
                problem, strategy, model, round_obj, verdict.errors, round_no, annotations
            )
            record = self.gateway.complete_n(
                model, retry_prompt, self._decoding_params(1)
            )[0]

        chain = {
            "problem": problem.id,
            "strategy": strategy.key,
            "model": model,
            "sample_index": first_record.sample_index,
            "final_status": final_status,
            "rounds": rounds,
            "annotations": annotations,
        }
        if after is not None:
            after(chain, problem, strategy)
        return chain

    # --- backends ------------------------------------------------------

    def _check_python(self, body: str, problem: Problem) -> Verdict:
        key = (problem.id, body)
        outcome = self._python_outcomes.get(key)
        if outcome is None:
            outcome = pyexec.run_tests(
                body, problem, timeout=float(self.config.python["timeout"])
            )
            if outcome.fault not in ("Timeout", "Crash"):
                self._python_outcomes[key] = outcome
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
        return Verdict(outcome.all_passed, False, tuple(errors), outcome.to_obj())

    def _check_lean(self, body: str, problem: Problem) -> Verdict:
        include_tests = self.config.success["lean"] == "compile+guards"
        project = self.verifier.scaffold(body, problem, include_tests=include_tests)
        outcome = self.verifier.check(project)
        return Verdict(
            success=outcome.status is VerifyStatus.VERIFIED,
            stop=outcome.status is VerifyStatus.TOOL_MISSING,
            errors=tuple(_diagnostic_lines(outcome, "verification ended with status")),
            outcome=outcome.to_obj(),
        )

    def _spec_checks(self, chain: Dict, problem: Problem, strategy: StrategyId) -> None:
        """Contract fuzzing and the vacuity check for a passing specification."""
        if chain["final_status"] != "Success":
            return
        checks = self.config.spec_checks
        body = _final_artifact(chain)["body"]
        timeout = float(self.config.python["timeout"])
        if checks["contracts"]:
            report = pyexec.check_contracts(
                body,
                problem,
                trials=int(checks["trials"]),
                seed=self.config.seed,
                timeout=timeout,
            )
            chain["annotations"]["contracts"] = report.to_obj()
        if checks["vacuity"]:
            try:
                vacuity = pyexec.vacuity_check(
                    body,
                    problem,
                    seed=self.config.seed,
                    random_trials=int(checks["random_trials"]),
                    timeout=timeout,
                ).to_obj()
            except pyexec.MutantError as exc:
                vacuity = {"type": "vacuity", "verdict": "NoMutants", "error": str(exc)}
            chain["annotations"]["vacuity"] = vacuity

    def _theorems(self, chain: Dict, problem: Problem, strategy: StrategyId) -> None:
        artifact = _final_artifact(chain)
        if artifact is not None:
            candidates = proofs.extract_theorems(artifact["body"], strategy.name)
            chain["annotations"]["theorems"] = [c.to_obj() for c in candidates]

    # --- retries ---------------------------------------------------------

    def _retry_prompt(
        self,
        problem: Problem,
        strategy: StrategyId,
        model: str,
        round_obj: Dict,
        errors: Sequence[str],
        round_no: int,
        annotations: Dict[str, object],
    ) -> str:
        artifact = round_obj.get("artifact")
        previous = artifact["body"] if artifact else round_obj["completion"]["text"]
        if (
            strategy.domain == "spec"
            and self.config.spec_checks["cross_feedback"]
            and artifact is not None
        ):
            lean_feedback = self._lean_feedback(
                problem, model, round_obj, annotations
            )
            if lean_feedback is not None:
                return self.catalog.render_feedback(
                    "lean-refinement",
                    {
                        "retry_attempt": str(round_no),
                        "max_retries": str(self.config.max_retries),
                        "previous_code": previous,
                        "error_feedback": "\n".join(f"- {e}" for e in errors)
                        or "(no diagnostics captured)",
                        "lean_feedback": lean_feedback,
                    },
                )
        return self.catalog.render_retry(
            previous, errors, round_index=round_no, max_rounds=self.config.max_retries
        )

    def _lean_feedback(
        self, problem: Problem, model: str, round_obj: Dict, annotations: Dict
    ) -> Optional[str]:
        """Second-stage translation check; None, with an annotation saying
        why, when Lean cannot weigh in."""
        values = dict(problem_values(problem))
        values["python_source"] = round_obj["artifact"]["body"]
        prompt = self.catalog.render_feedback("lean-translation", values)
        record = self.gateway.complete_n(model, prompt, self._decoding_params(1))[0]
        try:
            artifact = extract_artifacts(record.text, "code")[0]
        except NoArtifactError:
            annotations["cross_feedback_no_artifact"] = True
            return None
        project = self.verifier.scaffold(artifact.body, problem, include_tests=False)
        outcome = self.verifier.check(project)
        round_obj["cross_feedback"] = {
            "prompt_digest": record.prompt_digest,
            "completion": _completion_obj(record),
            "artifact": _artifact_obj(artifact),
            "outcome": outcome.to_obj(),
        }
        if outcome.status is VerifyStatus.TOOL_MISSING:
            annotations["lean_unavailable"] = True
            return None
        return "\n".join(_diagnostic_lines(outcome, "Lean verification status:"))

    # --- run assembly --------------------------------------------------

    def run(self) -> RunResult:
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
        run_id = compute_run_id(config, corpus_digest, templates_digest)
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
        with open(run_dir / "chains.jsonl", "w", encoding="utf-8") as fh:
            for chain in chains:
                fh.write(json.dumps(chain, sort_keys=True, separators=(",", ":")))
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


def run_sweep(
    config: RunConfig,
    *,
    gateway: Optional[ModelGateway] = None,
    verifier: Optional[LeanVerifier] = None,
    problems: Optional[ProblemSet] = None,
) -> List[Tuple[float, RunResult]]:
    """One run per temperature grid point, each with a derived seed."""
    if not config.temperature_grid:
        raise ConfigError("temperature sweep requested but temperature_grid is empty")
    results = []
    for index, temperature in enumerate(config.temperature_grid):
        decoding = dict(config.decoding)
        decoding["temperature"] = temperature
        base_seed = decoding.get("seed")
        if base_seed is None:
            base_seed = config.seed
        decoding["seed"] = base_seed ^ index
        point = dataclasses.replace(config, decoding=decoding, temperature_grid=())
        orchestrator = Orchestrator(
            point, gateway=gateway, verifier=verifier, problems=problems
        )
        result = orchestrator.run()
        renamed = _rename_run(result, f"{result.run_id}-t{index}")
        results.append((temperature, renamed))
    return results


def _rename_run(result: RunResult, new_id: str) -> RunResult:
    target = result.run_dir.parent / new_id
    suffix = 2
    while target.exists():
        target = result.run_dir.parent / f"{new_id}-{suffix}"
        suffix += 1
    os.rename(result.run_dir, target)
    return RunResult(
        run_id=new_id,
        run_dir=target,
        chains=result.chains,
        manifest=result.manifest,
    )


def write_report(run_dir: Path, k_ladder: Optional[Sequence[int]] = None) -> Path:
    """Build the metrics report for an existing run directory."""
    chains_path = Path(run_dir) / "chains.jsonl"
    manifest_path = Path(run_dir) / "manifest.json"
    if not chains_path.exists() or not manifest_path.exists():
        raise ConfigError(f"{run_dir} does not look like a run directory")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    chains = []
    with open(chains_path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                chains.append(json.loads(line))
    config = manifest["config"]
    ladder = tuple(k_ladder) if k_ladder else tuple(config.get("k_ladder", ()))
    if not ladder:
        ladder = metrics.DEFAULT_K_LADDER
    report_dir = Path(run_dir) / "report"
    metrics.emit_report(chains, config, report_dir, k_ladder=ladder)
    return report_dir
