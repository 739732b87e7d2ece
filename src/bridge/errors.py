"""Exception hierarchy shared across the pipeline.

Each failure domain gets its own class so the CLI can map errors to exit
codes without string matching.
"""


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
