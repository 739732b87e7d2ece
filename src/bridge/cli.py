"""Command line interface.

Exit codes: 0 success, 2 configuration or usage error, 3 corpus error,
4 missing backend, 5 replay miss, 1 any other pipeline error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .corpus import load_manifest
from .errors import (
    BackendMissingError,
    BridgeError,
    ConfigError,
    CorpusError,
    ReplayMissError,
)
from .pipeline import Orchestrator, RunConfig, RunResult, run_sweep, write_report
from .prompts import list_strategies


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridge",
        description="Verified-synthesis pipeline runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a problem manifest")
    p_validate.add_argument("manifest", help="path to a JSONL problem manifest")

    sub.add_parser("strategies", help="list strategy keys")

    def add_run_args(p):
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted config override, repeatable",
        )
        p.add_argument("--runs-root", default=None, help="output directory override")

    p_run = sub.add_parser("run", help="execute a configured run")
    add_run_args(p_run)
    p_run.add_argument(
        "--sweep",
        action="store_true",
        help="run once per temperature_grid entry",
    )

    p_record = sub.add_parser("record", help="run live and archive completions")
    add_run_args(p_record)

    p_replay = sub.add_parser("replay", help="re-execute a run from its archive")
    p_replay.add_argument("--run", required=True, help="run id under the runs root")
    p_replay.add_argument("--runs-root", default="runs")

    p_report = sub.add_parser("report", help="write metrics for a finished run")
    p_report.add_argument("--run", required=True, help="run id under the runs root")
    p_report.add_argument("--runs-root", default="runs")

    return parser


def _parse_overrides(pairs: List[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must look like key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value
    return overrides


def _load_config(args, forced_mode: Optional[str] = None) -> RunConfig:
    overrides = _parse_overrides(args.override)
    if args.runs_root:
        overrides["runs_root"] = args.runs_root
    if forced_mode:
        overrides["gateway.mode"] = forced_mode
    return RunConfig.from_file(args.config, overrides)


def _cmd_validate(args) -> int:
    problems = load_manifest(args.manifest)
    print(f"{len(problems)} problems ok")
    return 0


def _cmd_strategies(_args) -> int:
    for strategy in list_strategies():
        print(strategy.key)
    return 0


def _warn_unverified(result: RunResult) -> None:
    """One stderr line when some chains could not be checked by Lean."""
    missing = sum(
        1 for chain in result.chains if chain["annotations"].get("lean_unavailable")
    )
    if missing:
        print(
            f"warning: {missing} of {len(result.chains)} chains had no Lean "
            "verdict (no Lean toolchain or transcript)",
            file=sys.stderr,
        )


def _cmd_run(args, forced_mode: Optional[str] = None) -> int:
    config = _load_config(args, forced_mode)
    if getattr(args, "sweep", False):
        for temperature, result in run_sweep(config):
            print(f"{result.run_id} temperature={temperature} dir={result.run_dir}")
            _warn_unverified(result)
        return 0
    result = Orchestrator(config).run()
    print(f"{result.run_id} chains={len(result.chains)} dir={result.run_dir}")
    _warn_unverified(result)
    return 0


def _run_dir(args) -> Path:
    run_dir = Path(args.runs_root) / args.run
    if not run_dir.is_dir():
        raise ConfigError(f"run directory not found: {run_dir}")
    return run_dir


def _cmd_replay(args) -> int:
    run_dir = _run_dir(args)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"{run_dir} has no manifest.json")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    obj = dict(manifest["config"])
    obj["gateway"] = dict(obj.get("gateway", {}))
    obj["gateway"]["mode"] = "replay"
    obj["runs_root"] = args.runs_root
    config = RunConfig.from_obj(obj)
    result = Orchestrator(config).run()
    print(f"{result.run_id} chains={len(result.chains)} dir={result.run_dir}")
    _warn_unverified(result)
    return 0


def _cmd_report(args) -> int:
    report_dir = write_report(_run_dir(args))
    print(f"report written to {report_dir}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "strategies":
            return _cmd_strategies(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "record":
            return _cmd_run(args, forced_mode="record")
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "report":
            return _cmd_report(args)
        parser.error(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BackendMissingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ReplayMissError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except BridgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
