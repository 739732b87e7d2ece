"""Model gateway: one entry point for completions in four modes.

live    talk to a configured HTTP provider
record  live, but persist every completion keyed by prompt digest
replay  serve only from a recorded archive; a miss is a hard error
mock    serve from a scripted table; used by tests and fixtures

The mode is fixed per gateway instance. Prompt digests are a pure function
of (model_id, prompt, temperature, max_tokens, seed), so identical requests
hit identical archive entries regardless of mode. A mock script is indexed
once into the same table a replay archive fills, so mock and replay share
one lookup: the first n records stored for the digest, or `ReplayMissError`.
A replay gateway fills that table with one pass over its archive directory
at its first request, holding the stored records of every file there.  The
gateway never reads the prompt beyond digesting it.  Every mode but live
answers a request by its digest alone: the same digest always gets the same
records, which `answers_by_digest` states.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from . import metrics
from .errors import ConfigError, GatewayError, ReplayMissError, TransportError

MODES = ("live", "record", "replay", "mock")
# transport attempts per batch, and the first backoff, doubled per retry
_MAX_ATTEMPTS = 3
_BACKOFF_BASE = 0.5


class DecodingParams(NamedTuple):
    temperature: float = 0.7
    max_tokens: int = 4096
    n_samples: int = 1
    seed: Optional[int] = None


class CompletionRecord(NamedTuple):
    model_id: str
    prompt_digest: str
    sample_index: int
    text: str
    reported_tokens: Optional[int] = None
    latency: float = 0.0


def prompt_digest(model_id: str, prompt: str, params: DecodingParams) -> str:
    """Content digest identifying a completion request.

    Depends on exactly: model id, prompt text, temperature, max_tokens,
    and seed. Sample count is excluded so archives can serve any n up to
    what they hold.
    """
    material = "\x1f".join(
        [
            model_id,
            prompt,
            repr(float(params.temperature)),
            str(params.max_tokens),
            str(params.seed),
        ]
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def count_tokens(record: CompletionRecord) -> Tuple[int, int]:
    """(words, tokens) for a completion.

    Words are whitespace-separated; tokens come from the provider when
    reported, otherwise from the word-count estimator.
    """
    words = len(record.text.split())
    tokens = (
        record.reported_tokens
        if record.reported_tokens is not None
        else metrics.estimate_tokens(words)
    )
    return words, tokens


def _completions(
    model_id: str, digest: str, stored: Sequence[Mapping]
) -> List[CompletionRecord]:
    """Completion records from stored records, numbered in stored order."""
    return [
        CompletionRecord(model_id, digest, i, rec["text"], rec.get("reported_tokens"),
                         float(rec.get("latency", 0.0)))
        for i, rec in enumerate(stored)
    ]


def _script_table(script: Mapping) -> Dict[str, List[Mapping]]:
    """A mock script's entries as stored records, indexed once by digest.

    Every entry needs a digest, a sample_index and a text, and each digest's
    indices must run 0..m-1 with no gap and no repeat.
    """
    groups: Dict[str, List[Tuple[int, Mapping]]] = {}
    for number, entry in enumerate(script.get("entries", [])):
        missing = [k for k in ("digest", "sample_index", "text") if k not in entry]
        if missing:
            raise ConfigError(f"mock script entry {number} lacks {', '.join(missing)}")
        groups.setdefault(entry["digest"], []).append((number, entry))
    table = {}
    for digest, group in groups.items():
        records: Dict[int, Mapping] = {}
        for number, entry in group:
            index = entry["sample_index"]
            if index not in range(len(group)) or index in records:
                raise ConfigError(
                    f"mock script entry {number} has sample_index {index!r}, a repeat "
                    f"or a gap in 0..{len(group) - 1} for digest {digest[:12]}"
                )
            records[index] = entry
        table[digest] = [records[i] for i in range(len(group))]
    return table


def _file_records(text: str) -> List[dict]:
    """The stored records of an archive file's text."""
    return json.loads(text).get("records", [])


def _default_transport(
    endpoint: str,
    api_key: str,
    model_id: str,
    prompt: str,
    params: DecodingParams,
    n: int,
) -> List[Tuple[str, Optional[int]]]:
    """POST an OpenAI-style chat completion request."""
    import requests  # only live and record modes reach the network

    payload = {
        "model": model_id,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": params.temperature,
        "max_tokens": params.max_tokens,
        "n": n,
    }
    if params.seed is not None:
        payload["seed"] = params.seed
    try:
        resp = requests.post(
            endpoint,
            json=payload,
            headers={"Authorization": f"Bearer {api_key}"},
            timeout=120,
        )
    except requests.RequestException as exc:
        raise TransportError(f"request to {endpoint} failed: {exc}") from None
    if resp.status_code == 429 or resp.status_code >= 500:
        raise TransportError(f"{endpoint} returned HTTP {resp.status_code}")
    if resp.status_code != 200:
        raise GatewayError(
            f"{endpoint} returned HTTP {resp.status_code}: {resp.text[:200]}"
        )
    try:
        body = resp.json()
        choices = body["choices"]  # a TypeError when the body is no object
        usage = body.get("usage") or {}
        per_choice = None
        if usage.get("completion_tokens") is not None and choices:
            per_choice = int(usage["completion_tokens"]) // len(choices)
        return [(choice["message"]["content"], per_choice) for choice in choices]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise GatewayError(f"malformed completion response: {exc}") from None


class ModelGateway:
    """Completion source with caching, replay, and scripted mock modes."""

    def __init__(
        self,
        mode: str,
        *,
        providers: Optional[Mapping[str, Mapping]] = None,
        script: Union[None, str, Path, Mapping] = None,
        archive_dir: Union[None, str, Path] = None,
        transport: Optional[Callable] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if mode not in MODES:
            raise ConfigError(f"gateway mode must be one of {MODES}, got {mode!r}")
        self.mode = mode
        self.providers = dict(providers or {})
        self.archive_dir = Path(archive_dir) if archive_dir else None
        self.transport = transport or _default_transport
        self._sleep = sleep
        self._digest_locks: Dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        # stored records by digest: of files read or written, or of the mock
        # script; the rest of an archive file is never read back
        self._archive: Dict[str, List[Mapping]] = {}
        self._archive_read = False  # whether a replay gateway has read every file
        if mode == "mock":
            if script is None:
                raise ConfigError("mock mode requires a script")
            if isinstance(script, (str, Path)):
                try:
                    script = json.loads(Path(script).read_text(encoding="utf-8"))
                except FileNotFoundError:
                    raise ConfigError(f"mock script not found: {script}") from None
            self._archive = _script_table(script)
        if mode in ("record", "replay") and self.archive_dir is None:
            raise ConfigError(f"{mode} mode requires an archive directory")

    # -- public API ----------------------------------------------------------

    @property
    def answers_by_digest(self) -> bool:
        """Whether a repeated request gets the records it got before: true in
        mock and replay, and in record, which serves a digest it has recorded
        from its archive; a live provider draws afresh each time."""
        return self.mode != "live"

    def complete_n(
        self, model_id: str, prompt: str, params: DecodingParams
    ) -> List[CompletionRecord]:
        """Fetch params.n_samples completions for one prompt."""
        digest = prompt_digest(model_id, prompt, params)
        if self.mode == "live":
            stored = self._live(model_id, prompt, params)
        elif self.mode == "record":
            stored = self._record(model_id, prompt, digest, params)
        else:
            stored = self._stored(model_id, digest, params.n_samples)
        return _completions(model_id, digest, stored)

    # -- archive: replay files, record files and mock scripts -----------------

    def _archive_path(self, digest: str) -> Path:
        return self.archive_dir / f"{digest}.json"

    def _records(self, digest: str) -> Optional[List[Mapping]]:
        """The stored records for a digest, read from disk at most once.

        A replay gateway reads every file of its archive at its first
        request; a digest still missing after that is tried as its own file.
        Misses are not cached, so an entry recorded later is still found.
        A mock gateway holds its whole table and never reads the disk.
        """
        records = self._archive.get(digest)
        if records is not None or self.mode == "mock":
            return records
        if self.mode == "replay" and not self._archive_read:
            self._read_archive()
            records = self._archive.get(digest)
            if records is not None:
                return records
        try:
            text = self._archive_path(digest).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        records = self._archive[digest] = _file_records(text)
        return records

    def _read_archive(self) -> None:
        """Read every entry file of the archive directory, once per gateway.

        One pass by one worker replaces a read per request, each of which
        hands the interpreter lock to another worker.  The pass reads and
        holds the records of every file, also of files the run never asks
        for: an archive shared by several configs costs all of their reads.
        A file that does not read or parse is left to the single-file read,
        which fails as it always did if that digest is ever requested.
        """
        with self._locks_guard:
            if self._archive_read:
                return
            table = {}
            for path in self.archive_dir.glob("*.json"):
                try:
                    table[path.stem] = _file_records(path.read_text(encoding="utf-8"))
                except (OSError, ValueError, AttributeError):
                    continue
            # published at once, so no worker runs on a half-read archive
            # while this one waits on the disk
            self._archive.update(table)
            self._archive_read = True

    def _stored(self, model_id: str, digest: str, n: int) -> List[Mapping]:
        """The first n stored records for a digest; too few is a miss."""
        stored = self._records(digest)
        if stored is None:
            raise ReplayMissError(
                f"no {self.mode} completions for digest {digest} (model {model_id})"
            )
        if len(stored) < n:
            raise ReplayMissError(
                f"digest {digest} has {len(stored)} {self.mode} samples, requested {n}"
            )
        return stored[:n]

    def _digest_lock(self, digest: str) -> threading.Lock:
        with self._locks_guard:
            return self._digest_locks.setdefault(digest, threading.Lock())

    def _record(
        self, model_id: str, prompt: str, digest: str, params: DecodingParams
    ) -> List[Mapping]:
        with self._digest_lock(digest):
            stored = self._records(digest)
            if stored is not None and len(stored) >= params.n_samples:
                return stored[: params.n_samples]
            payload = {
                "model_id": model_id,
                "prompt": prompt,
                "temperature": params.temperature,
                "max_tokens": params.max_tokens,
                "seed": params.seed,
                "records": self._live(model_id, prompt, params),
            }
            self.archive_dir.mkdir(parents=True, exist_ok=True)
            tmp = self._archive_path(digest).with_suffix(".tmp")
            tmp.write_text(
                json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=1),
                encoding="utf-8",
            )
            os.replace(tmp, self._archive_path(digest))
            self._archive[digest] = payload["records"]
            return payload["records"]

    # -- live -----------------------------------------------------------------

    def _provider_for(self, model_id: str) -> Mapping:
        cfg = self.providers.get(model_id)
        if cfg is None:
            raise ConfigError(f"no provider configured for model {model_id!r}")
        return cfg

    def _api_key(self, provider: str) -> str:
        var = f"BRIDGE_{provider.upper()}_KEY"
        key = os.environ.get(var)
        if not key:
            raise ConfigError(f"missing credential: set {var}")
        return key

    def _call_with_retry(self, *request) -> List[Tuple[str, Optional[int]]]:
        """The transport's answer to one request; transport failures are retried."""
        last: Optional[Exception] = None
        for attempt in range(_MAX_ATTEMPTS):
            try:
                return self.transport(*request)
            except TransportError as exc:
                last = exc
                if attempt + 1 < _MAX_ATTEMPTS:
                    self._sleep(_BACKOFF_BASE * (2 ** attempt))
        raise TransportError(f"transport failed after {_MAX_ATTEMPTS} attempts: {last}")

    def _live(self, model_id: str, prompt: str, params: DecodingParams) -> List[dict]:
        """Fresh completions from the provider, as stored records."""
        cfg = self._provider_for(model_id)
        endpoint, api_key = cfg["endpoint"], self._api_key(cfg["provider"])
        batch_limit = cfg.get("batch_limit") or 8
        records: List[dict] = []
        while len(records) < params.n_samples:
            n = min(params.n_samples - len(records), batch_limit)
            start = time.monotonic()
            batch = self._call_with_retry(
                endpoint, api_key, model_id, prompt, params, n
            )
            elapsed = time.monotonic() - start
            if len(batch) != n:
                raise GatewayError(
                    f"provider returned {len(batch)} completions, expected {n}"
                )
            records += [
                {
                    "sample_index": len(records) + i,
                    "text": text,
                    "reported_tokens": tokens,
                    "latency": elapsed,
                }
                for i, (text, tokens) in enumerate(batch)
            ]
        return records
