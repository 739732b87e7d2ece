"""Model gateway: one entry point for completions in four modes.

live    talk to a configured HTTP provider
record  live, but persist every completion keyed by prompt digest
replay  serve only from a recorded archive; a miss is a hard error
mock    serve from a scripted table; used by tests and fixtures

The mode is fixed per gateway instance. Prompt digests are a pure function
of (model_id, prompt, temperature, max_tokens, seed), so identical requests
hit identical archive entries regardless of mode.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from . import metrics
from .errors import ConfigError, GatewayError, ReplayMissError, TransportError

MODES = ("live", "record", "replay", "mock")

_RETRY_HEADER = re.compile(r"# RETRY ATTEMPT (\d+)/(\d+)")


@dataclass(frozen=True)
class DecodingParams:
    temperature: float = 0.7
    max_tokens: int = 4096
    n_samples: int = 1
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature <= 2.0:
            raise ConfigError(f"temperature {self.temperature} outside [0, 2]")
        if self.max_tokens < 1:
            raise ConfigError(f"max_tokens must be positive, got {self.max_tokens}")
        if self.n_samples < 1:
            raise ConfigError(f"n_samples must be positive, got {self.n_samples}")


@dataclass(frozen=True)
class CompletionRecord:
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
        usage = body.get("usage", {})
        per_choice = None
        if usage.get("completion_tokens") is not None and body.get("choices"):
            per_choice = int(usage["completion_tokens"]) // len(body["choices"])
        return [
            (choice["message"]["content"], per_choice) for choice in body["choices"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
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
        clock: Callable[[], float] = time.monotonic,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
    ) -> None:
        if mode not in MODES:
            raise ConfigError(f"gateway mode must be one of {MODES}, got {mode!r}")
        self.mode = mode
        self.providers = dict(providers or {})
        self.archive_dir = Path(archive_dir) if archive_dir else None
        self.transport = transport or _default_transport
        self._sleep = sleep
        self._clock = clock
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self._digest_locks: Dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        # parsed archive files by digest; record mode stores what it writes
        self._archive: Dict[str, dict] = {}
        self._script: Optional[dict] = None
        if mode == "mock":
            if script is None:
                raise ConfigError("mock mode requires a script")
            if isinstance(script, (str, Path)):
                try:
                    self._script = json.loads(
                        Path(script).read_text(encoding="utf-8")
                    )
                except FileNotFoundError:
                    raise ConfigError(f"mock script not found: {script}") from None
            else:
                self._script = dict(script)
        if mode in ("record", "replay") and self.archive_dir is None:
            raise ConfigError(f"{mode} mode requires an archive directory")

    # -- public API ----------------------------------------------------------

    def complete_n(
        self, model_id: str, prompt: str, params: DecodingParams
    ) -> List[CompletionRecord]:
        """Fetch params.n_samples completions for one prompt."""
        digest = prompt_digest(model_id, prompt, params)
        if self.mode == "mock":
            return self._mock_records(model_id, prompt, digest, params)
        if self.mode == "replay":
            return self._replay_records(model_id, digest, params.n_samples)
        if self.mode == "record":
            return self._record_records(model_id, prompt, digest, params)
        return self._live_records(model_id, prompt, digest, params)

    # -- mock ----------------------------------------------------------------

    def _mock_records(
        self, model_id: str, prompt: str, digest: str, params: DecodingParams
    ) -> List[CompletionRecord]:
        header = _RETRY_HEADER.search(prompt)
        round_index = int(header.group(1)) + 1 if header else 1
        entries = self._script.get("entries", [])
        records = []
        for index in range(params.n_samples):
            entry = self._match_entry(entries, model_id, prompt, digest, round_index, index)
            if entry is None:
                if "default" in self._script:
                    entry = {"text": self._script["default"]}
                else:
                    raise GatewayError(
                        f"mock script has no entry for model={model_id} "
                        f"digest={digest[:12]} round={round_index} sample={index}"
                    )
            records.append(
                CompletionRecord(
                    model_id=model_id,
                    prompt_digest=digest,
                    sample_index=index,
                    text=entry["text"],
                    reported_tokens=entry.get("reported_tokens"),
                    latency=float(entry.get("latency", 0.0)),
                )
            )
        return records

    @staticmethod
    def _match_entry(
        entries: Sequence[Mapping],
        model_id: str,
        prompt: str,
        digest: str,
        round_index: int,
        sample_index: int,
    ) -> Optional[Mapping]:
        for entry in entries:
            if "model" in entry and entry["model"] != model_id:
                continue
            if "digest" in entry and entry["digest"] != digest:
                continue
            if "key" in entry and entry["key"] not in prompt:
                continue
            if "round" in entry and int(entry["round"]) != round_index:
                continue
            if "sample_index" in entry and int(entry["sample_index"]) != sample_index:
                continue
            if "digest" not in entry and "key" not in entry:
                continue
            return entry
        return None

    # -- record / replay archive ----------------------------------------------

    def _archive_path(self, digest: str) -> Path:
        return self.archive_dir / f"{digest}.json"

    def _load_archive(self, digest: str) -> Optional[dict]:
        """The archive entry for a digest, read from disk at most once.

        Misses are not cached, so an entry recorded later is still found.
        """
        entry = self._archive.get(digest)
        if entry is not None:
            return entry
        try:
            text = self._archive_path(digest).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        entry = json.loads(text)
        self._archive[digest] = entry
        return entry

    def _replay_records(
        self, model_id: str, digest: str, n: int
    ) -> List[CompletionRecord]:
        entry = self._load_archive(digest)
        if entry is None:
            raise ReplayMissError(
                f"no recorded completions for digest {digest} (model {model_id})"
            )
        stored = entry.get("records", [])
        if len(stored) < n:
            raise ReplayMissError(
                f"digest {digest} has {len(stored)} recorded samples, requested {n}"
            )
        return [
            CompletionRecord(
                model_id=model_id,
                prompt_digest=digest,
                sample_index=i,
                text=stored[i]["text"],
                reported_tokens=stored[i].get("reported_tokens"),
                latency=float(stored[i].get("latency", 0.0)),
            )
            for i in range(n)
        ]

    def _digest_lock(self, digest: str) -> threading.Lock:
        with self._locks_guard:
            if digest not in self._digest_locks:
                self._digest_locks[digest] = threading.Lock()
            return self._digest_locks[digest]

    def _record_records(
        self, model_id: str, prompt: str, digest: str, params: DecodingParams
    ) -> List[CompletionRecord]:
        with self._digest_lock(digest):
            entry = self._load_archive(digest)
            if entry is not None and len(entry.get("records", [])) >= params.n_samples:
                return self._replay_records(model_id, digest, params.n_samples)
            records = self._live_records(model_id, prompt, digest, params)
            payload = {
                "model_id": model_id,
                "prompt": prompt,
                "temperature": params.temperature,
                "max_tokens": params.max_tokens,
                "seed": params.seed,
                "records": [
                    {
                        "sample_index": r.sample_index,
                        "text": r.text,
                        "reported_tokens": r.reported_tokens,
                        "latency": r.latency,
                    }
                    for r in records
                ],
            }
            self.archive_dir.mkdir(parents=True, exist_ok=True)
            tmp = self._archive_path(digest).with_suffix(".tmp")
            tmp.write_text(
                json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=1),
                encoding="utf-8",
            )
            os.replace(tmp, self._archive_path(digest))
            self._archive[digest] = payload
            return records

    # -- live -----------------------------------------------------------------

    def _provider_for(self, model_id: str) -> Tuple[str, Mapping]:
        cfg = self.providers.get(model_id)
        if cfg is None:
            raise ConfigError(f"no provider configured for model {model_id!r}")
        provider = cfg.get("provider")
        if not provider:
            raise ConfigError(f"provider entry for {model_id!r} lacks a provider name")
        return provider, cfg

    def _api_key(self, provider: str) -> str:
        var = f"BRIDGE_{provider.upper()}_KEY"
        key = os.environ.get(var)
        if not key:
            raise ConfigError(f"missing credential: set {var}")
        return key

    def _call_with_retry(
        self,
        endpoint: str,
        api_key: str,
        model_id: str,
        prompt: str,
        params: DecodingParams,
        n: int,
    ) -> List[Tuple[str, Optional[int]]]:
        last: Optional[Exception] = None
        for attempt in range(self.max_attempts):
            try:
                return self.transport(endpoint, api_key, model_id, prompt, params, n)
            except TransportError as exc:
                last = exc
                if attempt + 1 < self.max_attempts:
                    self._sleep(self.backoff_base * (2 ** attempt))
        raise TransportError(
            f"transport failed after {self.max_attempts} attempts: {last}"
        )

    def _live_records(
        self, model_id: str, prompt: str, digest: str, params: DecodingParams
    ) -> List[CompletionRecord]:
        provider, cfg = self._provider_for(model_id)
        endpoint = cfg.get("endpoint")
        if not endpoint:
            raise ConfigError(f"provider entry for {model_id!r} lacks an endpoint")
        api_key = self._api_key(provider)
        batch_limit = int(cfg.get("batch_limit", 8))
        remaining = params.n_samples
        texts: List[Tuple[str, Optional[int], float]] = []
        while remaining > 0:
            n = min(remaining, batch_limit)
            start = self._clock()
            batch = self._call_with_retry(
                endpoint, api_key, model_id, prompt, params, n
            )
            elapsed = self._clock() - start
            if len(batch) != n:
                raise GatewayError(
                    f"provider returned {len(batch)} completions, expected {n}"
                )
            texts.extend((t, tok, elapsed) for t, tok in batch)
            remaining -= n
        return [
            CompletionRecord(
                model_id=model_id,
                prompt_digest=digest,
                sample_index=i,
                text=text,
                reported_tokens=tokens,
                latency=latency,
            )
            for i, (text, tokens, latency) in enumerate(texts)
        ]
