"""The benchmark's workloads and the seeded inputs each one runs on.

Every workload turns a seed into a directory of inputs (a run config plus
the gateway script or archive, the Lean transcript bank and the corpus it
names) and returns the path of the config.  The program only ever sees
these files.  The amount of work is the same for every seed: a seed
permutes which sample of a cell draws which variant, and changes the
decoding and fuzzing seeds, but never the multiset of variants in a cell.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "fixtures" / "corpus.jsonl"
E2E_CONFIG = ROOT / "fixtures" / "configs" / "e2e.json"
MAKE_FIXTURES = ROOT / "tools" / "make_fixtures.py"

# Every file the workloads read from the repository; run.py refuses to start
# without them.
REQUIRED = (
    ROOT / "src" / "bridge" / "pipeline.py",
    CORPUS,
    E2E_CONFIG,
    MAKE_FIXTURES,
)

# Variants whose completion passes its backend (see tools/make_fixtures.py;
# yensure is the benchmark's own contracted Python candidate).
GOOD_VARIANTS = frozenset({"lgood", "pgood", "ygood", "yensure"})


def parallelism(configured: int = 4) -> int:
    """Worker threads for a run: the configured count, capped at nproc."""
    return max(1, min(configured, os.cpu_count() or 1))


def _fixtures():
    """tools/make_fixtures.py, imported unchanged for its variant banks."""
    if str(MAKE_FIXTURES.parent) not in sys.path:
        sys.path.insert(0, str(MAKE_FIXTURES.parent))
    import make_fixtures

    return make_fixtures


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _corpus_subset(dest: Path, problem_ids: Sequence[str], rng: random.Random) -> Path:
    """Copy the selected corpus lines in a seeded order; order must not matter."""
    lines = [
        line
        for line in CORPUS.read_text(encoding="utf-8").splitlines()
        if line.strip() and json.loads(line)["id"] in problem_ids
    ]
    rng.shuffle(lines)
    path = dest / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _seeded_tables(
    rng: random.Random, cells: Sequence[tuple], base: Callable[[tuple], List[str]]
) -> Dict[tuple, List[str]]:
    """One seeded permutation of each cell's fixed variant multiset."""
    tables = {}
    for cell in cells:
        table = list(base(cell))
        rng.shuffle(table)
        tables[cell] = table
    return tables


# --- e2e-mock -----------------------------------------------------------------


def e2e_mock(dest: Path, seed: int, quick: bool) -> Path:
    """fixtures/configs/e2e.json as committed, parallelism capped at nproc.

    The seed only shuffles the corpus lines and the mock-script entries;
    the run's outputs must not depend on either order.
    """
    rng = random.Random(seed)
    config = json.loads(E2E_CONFIG.read_text(encoding="utf-8"))
    problem_ids = [
        json.loads(line)["id"]
        for line in CORPUS.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    if quick:
        problem_ids = problem_ids[:2]
        config["problems"] = problem_ids
    script_path = ROOT / config["gateway"]["script"]
    script = json.loads(script_path.read_text(encoding="utf-8"))
    rng.shuffle(script["entries"])
    config["corpus"] = str(_corpus_subset(dest, problem_ids, rng))
    config["gateway"]["script"] = str(_write_json(dest / "script.json", script))
    config["lean"]["transcripts"] = str(ROOT / config["lean"]["transcripts"])
    config["parallelism"] = parallelism(config["parallelism"])
    config["runs_root"] = "runs"
    return _write_json(dest / "config.json", config)


# --- authoring runs ------------------------------------------------------------


def _author(config_obj: dict, gateway, verifier, scratch: Path) -> None:
    """Run the pipeline once against a policy gateway to record its answers.

    Scratch files of the authoring run go to a private directory, which is
    removed with the rest of the run's work directory after timing ends.
    """
    from bridge.pipeline import Orchestrator, RunConfig

    scratch.mkdir()
    saved = tempfile.tempdir
    tempfile.tempdir = str(scratch)
    try:
        config = RunConfig.from_obj({**config_obj, "runs_root": str(scratch / "runs")})
        Orchestrator(config, gateway=gateway, verifier=verifier).run()
    finally:
        tempfile.tempdir = saved


def _policy_gateway(fx, problems, tables, retry_next, texts=None):
    """make_fixtures.PolicyGateway answering first rounds from `tables`.

    `tables` maps (model, strategy, problem id) to the variant of each
    sample; retries follow `retry_next` as in make_fixtures.  `texts`
    replaces the completion text of chosen (problem id, variant) pairs.  A
    lock makes the gateway safe under the orchestrator's thread pool.
    """
    from bridge.prompts import StrategyId, TemplateCatalog

    catalog = TemplateCatalog()
    strategies = sorted({strategy for _, strategy, _ in tables})
    first_rounds = {
        catalog.render(StrategyId.parse(strategy), problem): (strategy, problem)
        for strategy in strategies
        for problem in problems
    }
    texts = texts or {}

    class Gateway(fx.PolicyGateway):
        def __init__(self):
            super().__init__(problems, None, retry_next)
            self._lock = threading.Lock()

        def complete_n(self, model_id, prompt, params):
            with self._lock:
                return super().complete_n(model_id, prompt, params)

        def _pick_text(self, model_id, prompt, sample_index):
            if prompt not in first_rounds:
                return super()._pick_text(model_id, prompt, sample_index)
            strategy, problem = first_rounds[prompt]
            variant = tables[(model_id, strategy, problem.id)][sample_index]
            return texts.get((problem.id, variant)) or fx.completion_text(problem, variant)

    return Gateway()


# --- lean-replay -----------------------------------------------------------------

LEAN_MODELS = ("replay-a", "replay-b", "replay-c", "replay-d")
LEAN_STRATEGIES = (
    "code/direct",
    "code/haskell-functional",
    "code/ocaml-type-guided",
    "proof/natural-language",
    "proof/type-guided",
    "proof/unit-tests",
)
# per model: (code table, proof table); n = 8 samples per cell
LEAN_TABLES = {
    "replay-a": (
        ["lgood", "lgood", "lgood", "lsyntax", "ltype", "lsorry", "lterm", "prose"],
        ["pgood", "pgood", "pgood", "psorry", "psorry", "psorry", "psorry", "prose"],
    ),
    "replay-b": (
        ["lgood", "lsyntax", "lsyntax", "ltype", "lunknown", "lsorry", "lterm", "lterm"],
        ["pgood", "pgood", "psorry", "psorry", "psorry", "psorry", "psorry", "psorry"],
    ),
    "replay-c": (
        ["lgood", "lgood", "lgood", "lgood", "lsyntax", "lunknown", "lsorry", "prose"],
        ["pgood", "pgood", "pgood", "pgood", "pgood", "psorry", "psorry", "psorry"],
    ),
    "replay-d": (
        ["lsyntax", "ltype", "ltype", "lunknown", "lunknown", "lsorry", "lterm", "prose"],
        ["pgood", "psorry", "psorry", "psorry", "psorry", "psorry", "prose", "prose"],
    ),
}
# two retries: ltype -> lsyntax -> lgood succeeds in round 3, lunknown never does
LEAN_RETRY_NEXT = {
    "lsyntax": "lgood",
    "ltype": "lsyntax",
    "lunknown": "ltype",
    "lsorry": "lsorry",
    "lterm": "lterm",
    "psorry": "psorry",
    "prose": "prose",
}


def lean_transcripts(fx, problems) -> Dict[str, dict]:
    """Transcripts for every Lean and proof variant of every problem."""
    from bridge import lean

    bank = {}
    for problem in problems:
        for variant in fx.LEAN_VARIANTS + fx.PROOF_VARIANTS:
            if variant.startswith("p"):
                body = fx.proof_body(problem, variant)
            else:
                body = fx.lean_body(problem, variant)
            source = lean.build_source(body, problem, include_tests=True)
            returncode, output = fx.TRANSCRIPT_SHAPES[variant]
            bank[lean.source_digest(source)] = {
                "returncode": returncode,
                "output": output.format(fn=problem.function_name),
            }
    return bank


def lean_replay(dest: Path, seed: int, quick: bool) -> Path:
    """Code and proof strategies served by a replay archive built here."""
    fx = _fixtures()
    from bridge.corpus import load_manifest
    from bridge.lean import LeanVerifier

    rng = random.Random(seed)
    problems = list(load_manifest(CORPUS))
    if quick:
        problems = problems[:2]
    ids = [p.id for p in problems]
    cells = [(model, strategy, pid) for model in LEAN_MODELS for strategy in LEAN_STRATEGIES for pid in ids]
    tables = _seeded_tables(
        rng, cells, lambda cell: LEAN_TABLES[cell[0]][cell[1].startswith("proof/")]
    )
    transcripts = _write_json(dest / "transcripts.json", lean_transcripts(fx, problems))
    config = {
        "corpus": str(_corpus_subset(dest, ids, rng)),
        "models": list(LEAN_MODELS),
        "strategies": list(LEAN_STRATEGIES),
        "decoding": {"temperature": 0.7, "max_tokens": 2048, "n_samples": 8, "seed": seed},
        "mode": "ParallelPlusRetry",
        "max_retries": 2,
        "parallelism": parallelism(),
        "seed": seed,
        "gateway": {"mode": "replay", "archive_dir": str(dest / "archive")},
        "lean": {"transcripts": str(transcripts)},
        "k_ladder": [1, 2, 4, 8],
        "runs_root": "runs",
    }
    gateway = _policy_gateway(fx, problems, tables, LEAN_RETRY_NEXT)
    # transcript checks read the scaffold's source from memory, so one
    # directory serves every scaffold of the authoring run
    scaffold = dest / "author-scaffold"
    verifier = LeanVerifier(transcripts=str(transcripts), workdir_factory=lambda: scaffold)
    _author(config, gateway, verifier, dest / "author")
    archive = dest / "archive"
    archive.mkdir()
    for digest, payload in sorted(gateway.archive().items()):
        _write_json(archive / f"{digest}.json", payload)
    return _write_json(dest / "config.json", config)


# --- spec-vacuity ----------------------------------------------------------------

SPEC_PROBLEMS = (
    "majority-element",
    "max-subarray-sum",
    "minimum-key-pushes",
    "valid-palindrome",
    "happy-number",
    "count-leaves",
    "subtree-size",
)
# n = 2 per cell: the contract strategy draws an exact-contract candidate and one
# that never loads; the direct strategy a bare candidate and one with no code
SPEC_TABLES = {
    "spec/design-by-contract": ["yensure", "ycrash"],
    "spec/direct": ["ygood", "prose"],
}
SPEC_RETRY_NEXT = {"ycrash": "ycrash", "prose": "prose"}


def ensure_candidate(fx, problem) -> str:
    """The reference solution guarded by an exact deal.ensure.

    The post-condition compares the result, type included, with a renamed
    copy of the same reference, so it holds for the candidate and rejects
    any mutant whose output differs on a probe input.
    """
    fn = problem.function_name
    reference = fx.PY_GOOD[problem.id].replace(f"def {fn}(", "def _reference(", 1)
    return (
        f"# v:{problem.id}:yensure\n"
        "import deal\n\n\n"
        f"{reference}\n\n"
        "def _exact(*args, result):\n"
        "    expected = _reference(*args)\n"
        "    return type(result) is type(expected) and result == expected\n\n\n"
        "@deal.ensure(_exact)\n"
        f"{fx.PY_GOOD[problem.id]}"
    )


def spec_vacuity(dest: Path, seed: int, quick: bool) -> Path:
    """spec/* strategies with contract fuzzing and the vacuity check on."""
    fx = _fixtures()
    from bridge.corpus import load_manifest

    rng = random.Random(seed)
    ids = list(SPEC_PROBLEMS[:2] if quick else SPEC_PROBLEMS)
    problems = [p for p in load_manifest(CORPUS) if p.id in ids]
    cells = [("mock-spec", strategy, pid) for strategy in SPEC_TABLES for pid in ids]
    tables = _seeded_tables(rng, cells, lambda cell: SPEC_TABLES[cell[1]])
    texts = {
        (p.id, "yensure"): (
            "Here is my reasoning followed by the implementation.\n\n"
            f"<python>\n{ensure_candidate(fx, p)}</python>\n"
        )
        for p in problems
    }
    config = {
        "corpus": str(_corpus_subset(dest, ids, rng)),
        "models": ["mock-spec"],
        "strategies": list(SPEC_TABLES),
        "decoding": {"temperature": 0.7, "max_tokens": 2048, "n_samples": 2, "seed": seed},
        "mode": "ParallelPlusRetry",
        "max_retries": 1,
        "parallelism": parallelism(),
        "seed": seed,
        "python": {"timeout": 10.0},
        "spec_checks": {"contracts": True, "vacuity": True, "trials": 20, "random_trials": 10},
        "k_ladder": [1, 2],
        "runs_root": "runs",
    }
    gateway = _policy_gateway(fx, problems, tables, SPEC_RETRY_NEXT, texts)
    # the spec checks never change a prompt, so the authoring run skips them
    authoring = {**config, "spec_checks": {"contracts": False, "vacuity": False}}
    _author(authoring, gateway, None, dest / "author")
    config["gateway"] = {
        "mode": "mock",
        "script": str(_write_json(dest / "script.json", gateway.script())),
    }
    return _write_json(dest / "config.json", config)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[Path, int, bool], Path]


WORKLOADS = (
    Workload(
        "e2e-mock",
        "the paper's full loop on the committed e2e config; the Python sandbox "
        "takes nearly all busy time, so sandbox work shows here",
        e2e_mock,
    ),
    Workload(
        "lean-replay",
        "code and proof chains from a replay archive: scaffold/check, replay "
        "reads, render/extract, theorem intersection and report carry the run; "
        "no sandbox",
        lean_replay,
    ),
    Workload(
        "spec-vacuity",
        "spec chains with contract fuzzing and mutant vacuity checks: about 8 "
        "sandbox interpreters per passing chain, so batching or reuse shows here",
        spec_vacuity,
    ),
)
BY_NAME = {w.name: w for w in WORKLOADS}
