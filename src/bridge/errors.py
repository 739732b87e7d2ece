"""Exception hierarchy shared across the pipeline, and the one input reader.

Each failure domain gets its own class so the CLI can map errors to exit
codes without string matching; an input file that cannot be used raises its
domain's class, naming the file.
"""

import json
from pathlib import Path


class BridgeError(Exception):
    """Base class for all package errors."""


class ConfigError(BridgeError):
    """Bad run configuration: unknown keys, invalid values, missing credentials."""


class CorpusError(BridgeError):
    """Malformed problem manifest or a problem that fails validation."""


class TemplateError(BridgeError):
    """Unknown strategy, missing placeholder value, or a surviving placeholder."""


class NoArtifactError(BridgeError):
    """A completion contained no extractable artifact."""


class GatewayError(BridgeError):
    """Model gateway failure that is not a replay miss (transport, mock miss)."""


class TransportError(GatewayError):
    """Network-level failure talking to a provider. Retried with backoff."""


class ReplayMissError(GatewayError):
    """Replay or mock mode has too few stored completions for a prompt digest."""


class BackendMissingError(BridgeError):
    """A required verification backend is unavailable and no fixture covers it."""


class SandboxError(BridgeError):
    """A sandboxed child process broke containment or could not be launched."""


class MutantError(BridgeError):
    """Vacuity check could not construct any mutant for the artifact."""


def read_text(path, error: type, what: str) -> str:
    """A UTF-8 file's text; `error` naming the file when it is missing (its
    __cause__ the FileNotFoundError), cannot be read or is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise error(f"{what} not found: {path}") from exc
    except (OSError, ValueError) as exc:  # a UnicodeDecodeError is a ValueError
        raise error(f"{path}: cannot read {what}: {getattr(exc, 'strerror', exc)}") from None


def read_json(path, error: type, what: str) -> dict:
    """The JSON object a file holds; `error` as read_text raises it, or when
    the file holds no JSON object."""
    try:
        obj = json.loads(read_text(path, error, what))
    except ValueError as exc:
        raise error(f"{path}: {what} is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise error(f"{path}: {what} is not a JSON object")
    return obj
