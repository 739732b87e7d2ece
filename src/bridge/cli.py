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
from .pipeline import RunConfig, RunResult, execute, read_manifest, write_report
from .prompts import list_strategies

# an error exits with the code of the first class it is an instance of
_EXIT_CODES = (
    (ConfigError, 2),
    (CorpusError, 3),
    (BackendMissingError, 4),
    (ReplayMissError, 5),
    (BridgeError, 1),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridge",
        description="Verified-synthesis pipeline runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a problem manifest")
    p_validate.add_argument("manifest", help="path to a JSONL problem manifest")
    p_validate.set_defaults(handler=_cmd_validate)

    p_strategies = sub.add_parser("strategies", help="list strategy keys")
    p_strategies.set_defaults(handler=_cmd_strategies)

    for name, gateway_mode, help_text in (
        ("run", None, "execute a configured run, one per temperature_grid entry"),
        ("record", "record", "run live and archive completions"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted config override, repeatable",
        )
        p.add_argument("--runs-root", default=None, help="output directory override")
        p.set_defaults(handler=_cmd_run, gateway_mode=gateway_mode)

    p_replay = sub.add_parser("replay", help="re-execute a run from its archive")
    p_replay.add_argument("--run", required=True, help="run id under the runs root")
    p_replay.add_argument("--runs-root", default="runs")
    p_replay.set_defaults(handler=_cmd_replay)

    p_report = sub.add_parser("report", help="write metrics for a finished run")
    p_report.add_argument("--run", required=True, help="run id under the runs root")
    p_report.add_argument("--runs-root", default="runs")
    p_report.set_defaults(handler=_cmd_report)

    return parser


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


def _run_and_print(config: RunConfig) -> int:
    for result in execute(config):
        print(f"{result.run_id} chains={len(result.chains)} dir={result.run_dir}")
        _warn_unverified(result)
    return 0


def _cmd_run(args) -> int:
    overrides = {}
    for pair in args.override:
        if "=" not in pair:
            raise ConfigError(f"override must look like key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value
    if args.runs_root:
        # quoted, so a path such as `true` or `1` stays the string it is
        overrides["runs_root"] = json.dumps(args.runs_root)
    if args.gateway_mode:
        overrides["gateway.mode"] = args.gateway_mode
    return _run_and_print(RunConfig.from_file(args.config, overrides))


def _cmd_replay(args) -> int:
    config = read_manifest(Path(args.runs_root) / args.run)["config"]
    overrides = {"gateway.mode": "replay", "runs_root": json.dumps(args.runs_root)}
    return _run_and_print(RunConfig.from_obj(config, overrides))


def _cmd_report(args) -> int:
    report_dir = write_report(Path(args.runs_root) / args.run)
    print(f"report written to {report_dir}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BridgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
