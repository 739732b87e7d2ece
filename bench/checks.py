"""Output checks made apart from the program.

Each check reads the run directory and the benchmark's own generated
config, and predicts what the program must have written from the
`v:<problem>:<variant>` markers every generated completion carries.  None
of it calls into bridge.  A chain that fails any check counts as one
failed operation; a failed group-level check (a pass@k row, a meta
document) fails every chain of its group.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import GOOD_VARIANTS

MARKER = re.compile(r"v:([a-z0-9-]+):([a-z0-9]+)")
THEOREM = re.compile(r"(?m)^theorem\s+([^\s:({\[]+)")
DEFAULT_K_LADDER = (1, 5, 16, 64, 128)
DEFAULT_TRIALS = 50

Key = Tuple[str, str, str, int]


@dataclass
class Outcome:
    attempted: int
    failed: int
    reasons: List[str] = field(default_factory=list)


def output_digest(run_dir: Path) -> str:
    """Digest of chains.jsonl and report/, which must repeat byte for byte."""
    hasher = hashlib.sha256((run_dir / "chains.jsonl").read_bytes())
    for path in sorted((run_dir / "report").iterdir()):
        hasher.update(path.name.encode("utf-8") + b"\x00" + path.read_bytes())
    return hasher.hexdigest()


def _expected_keys(config: dict) -> set:
    if config.get("problems"):
        problems = list(config["problems"])
    else:
        lines = Path(config["corpus"]).read_text(encoding="utf-8").splitlines()
        problems = [json.loads(line)["id"] for line in lines if line.strip()]
    n = 1 if config.get("mode") == "RetryOnly" else int(config["decoding"]["n_samples"])
    return {
        (problem, strategy, model, index)
        for problem in problems
        for strategy in config["strategies"]
        for model in config["models"]
        for index in range(n)
    }


def _check_chain(chain: dict, config: dict) -> Optional[str]:
    if config.get("mode") == "ParallelOnly":
        max_rounds = 1
    else:
        max_rounds = 1 + int(config.get("max_retries", 3))
    rounds = chain["rounds"]
    if not 1 <= len(rounds) <= max_rounds:
        return f"{len(rounds)} rounds, budget {max_rounds}"
    variants = []
    for round_obj in rounds:
        marker = MARKER.search(round_obj["completion"]["text"])
        if marker is None or marker.group(1) != chain["problem"]:
            return "completion without this problem's variant marker"
        variants.append(marker.group(2))
    if any(v in GOOD_VARIANTS for v in variants[:-1]):
        return "a round follows a passing completion"
    if variants[-1] in GOOD_VARIANTS:
        expected = "Success"
    elif variants[-1] == "prose":
        expected = "NoArtifact"
    else:
        expected = "Failure"
    if chain["final_status"] != expected:
        return f"status {chain['final_status']}, expected {expected}"
    if expected != "Success" and len(rounds) != max_rounds:
        return f"gave up after {len(rounds)} of {max_rounds} rounds"
    annotations = chain["annotations"]
    if "lean_unavailable" in annotations:
        return "a Lean check found no transcript"
    domain = chain["strategy"].split("/", 1)[0]
    if domain == "proof":
        return _check_theorems(rounds, annotations)
    if "theorems" in annotations:
        return "theorems on a non-proof chain"
    if domain == "spec":
        return _check_spec(expected == "Success", variants[-1], annotations, config)
    return None


def _check_theorems(rounds: List[dict], annotations: dict) -> Optional[str]:
    with_artifact = [r for r in rounds if r.get("artifact")]
    if not with_artifact:
        return "theorems without an artifact" if "theorems" in annotations else None
    final = with_artifact[-1]
    body = final["artifact"]["body"]
    if body not in final["completion"]["text"]:
        return "artifact is not part of its completion"
    named = [t["name"] for t in annotations.get("theorems", [])]
    if named != THEOREM.findall(body):
        return f"theorems {named}, expected {THEOREM.findall(body)}"
    return None


def _check_spec(success: bool, variant: str, annotations: dict, config: dict) -> Optional[str]:
    checks = config.get("spec_checks", {})
    if not success or not checks.get("contracts"):
        if "contracts" in annotations:
            return "contract report on a chain that should have none"
    else:
        report = annotations.get("contracts")
        trials = int(checks.get("trials", DEFAULT_TRIALS))
        if report is None or report["trials"] != trials:
            return f"contract report {report} for {trials} trials"
        fired = (
            report["precondition_rejections"]
            + report["postcondition_violations"]
            + report["invariant_violations"]
        )
        if fired or report["faults"] > trials:
            # both candidate kinds are correct and carry no precondition
            return f"contract report {report} for a correct candidate"
    if not success or not checks.get("vacuity"):
        if "vacuity" in annotations:
            return "vacuity report on a chain that should have none"
        return None
    expected = "NonVacuous" if variant == "yensure" else "Vacuous"
    verdict = annotations.get("vacuity", {}).get("verdict")
    if verdict != expected:
        return f"vacuity verdict {verdict}, expected {expected}"
    return None


def pass_at_k(n: int, c: int, k: int) -> Fraction:
    return 1 - Fraction(comb(n - c, k), comb(n, k))


def _check_report(run_dir: Path, chains: List[dict], config: dict) -> Dict[Tuple[str, str], str]:
    """pass@k per (model, strategy), macro-averaged over problems."""
    ladder = tuple(config.get("k_ladder") or DEFAULT_K_LADDER)
    with open(run_dir / "report" / "rows.csv", encoding="utf-8", newline="") as fh:
        rows = {(r["model"], r["strategy"]): r for r in csv.DictReader(fh)}
    curves = {}
    for line in (run_dir / "report" / "curves.jsonl").read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        curves[(obj["model"], obj["strategy"])] = obj["points"]
    groups: Dict[Tuple[str, str], Dict[str, List[bool]]] = {}
    for chain in chains:
        by_problem = groups.setdefault((chain["model"], chain["strategy"]), {})
        by_problem.setdefault(chain["problem"], []).append(chain["final_status"] == "Success")
    bad = {}
    for group, by_problem in groups.items():
        n = min(len(v) for v in by_problem.values())
        values = {
            k: sum((pass_at_k(len(v), sum(v), k) for v in by_problem.values()), Fraction(0))
            / len(by_problem)
            for k in ladder
            if k <= n
        }
        row = rows.get(group)
        cells = [row.get(f"pass@{k}") for k in ladder] if row else None
        wanted = [f"{float(values[k]):.4f}" if k in values else "" for k in ladder]
        points = [{"k": k, "pass_at_k": round(float(v), 4)} for k, v in sorted(values.items())]
        if cells != wanted or curves.get(group) != points:
            bad[group] = f"pass@k {cells} / {curves.get(group)}, expected {wanted}"
    return bad


def _check_meta(run_dir: Path, chains: List[dict]) -> Dict[str, str]:
    """One meta-analysis document per problem whose proof chains named theorems."""
    proof = [c for c in chains if c["strategy"].startswith("proof/")]
    wanted = {c["problem"] for c in proof if c["annotations"].get("theorems")}
    meta = run_dir / "meta"
    written = {p.stem for p in meta.glob("*.json")} if meta.is_dir() else set()
    bad = {}
    for problem in wanted ^ written:
        bad[problem] = "meta document missing" if problem in wanted else "stray meta document"
    for problem in wanted & written:
        try:
            json.loads((meta / f"{problem}.json").read_text(encoding="utf-8"))
        except ValueError:
            bad[problem] = "meta document is not JSON"
    return bad


def check_run(run_dir: Path, config: dict) -> Outcome:
    """Check one finished, reported run against its generated inputs."""
    chains = [
        json.loads(line)
        for line in (run_dir / "chains.jsonl").read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    found: Dict[Key, dict] = {
        (c["problem"], c["strategy"], c["model"], c["sample_index"]): c for c in chains
    }
    expected = _expected_keys(config)
    failures: Dict[Key, str] = {}
    for key in expected - found.keys():
        failures[key] = "chain missing"
    for key in found.keys() - expected:
        failures[key] = "unexpected chain"
    for key, chain in found.items():
        reason = _check_chain(chain, config)
        if reason is not None:
            failures.setdefault(key, reason)
    for group, reason in _check_report(run_dir, chains, config).items():
        for key in found:
            if (key[2], key[1]) == group:
                failures.setdefault(key, reason)
    for problem, reason in _check_meta(run_dir, chains).items():
        for key in found:
            if key[0] == problem and key[1].startswith("proof/"):
                failures.setdefault(key, reason)
    reasons = [f"{'/'.join(map(str, k))}: {r}" for k, r in sorted(failures.items())]
    return Outcome(attempted=len(expected | found.keys()), failed=len(failures), reasons=reasons[:5])
