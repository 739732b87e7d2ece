import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import bridge
from bridge.errors import ConfigError, GatewayError, ReplayMissError, TransportError
from bridge.gateway import (
    CompletionRecord,
    DecodingParams,
    ModelGateway,
    _default_transport,
    count_tokens,
    prompt_digest,
)

P = DecodingParams(temperature=0.7, max_tokens=256, n_samples=1, seed=5)


class TestDigest:
    def test_stable(self):
        assert prompt_digest("m", "hello", P) == prompt_digest("m", "hello", P)

    def test_sample_count_excluded(self):
        p1 = DecodingParams(temperature=0.7, max_tokens=256, n_samples=1, seed=5)
        p5 = DecodingParams(temperature=0.7, max_tokens=256, n_samples=5, seed=5)
        assert prompt_digest("m", "hello", p1) == prompt_digest("m", "hello", p5)

    def test_each_input_matters(self):
        base = prompt_digest("m", "hello", P)
        assert prompt_digest("m2", "hello", P) != base
        assert prompt_digest("m", "hello!", P) != base
        assert prompt_digest(
            "m", "hello", DecodingParams(0.8, 256, 1, 5)) != base
        assert prompt_digest(
            "m", "hello", DecodingParams(0.7, 257, 1, 5)) != base
        assert prompt_digest(
            "m", "hello", DecodingParams(0.7, 256, 1, None)) != base

    def test_temperature_uses_float_repr(self):
        # int 0 and float 0.0 must hash identically
        a = prompt_digest("m", "x", DecodingParams(0, 256, 1, None))
        b = prompt_digest("m", "x", DecodingParams(0.0, 256, 1, None))
        assert a == b


class TestCountTokens:
    def test_reported_takes_precedence(self):
        rec = CompletionRecord("m", "d" * 64, 0, "one two three", reported_tokens=99)
        assert count_tokens(rec) == (3, 99)

    def test_estimated_when_unreported(self):
        rec = CompletionRecord("m", "d" * 64, 0, "one two three")
        words, tokens = count_tokens(rec)
        assert words == 3
        assert tokens == (3 * 1383 + 500) // 1000


def mock_gateway(entries):
    return ModelGateway("mock", script={"entries": entries})


def entry(prompt, index, text, **extra):
    return {"digest": prompt_digest("m", prompt, P), "sample_index": index,
            "text": text, **extra}


class TestMockMode:
    def test_digest_match(self):
        digest = prompt_digest("m", "the prompt", P)
        gw = mock_gateway([entry("other prompt", 0, "wrong"),
                           entry("the prompt", 0, "scripted")])
        recs = gw.complete_n("m", "the prompt", P)
        assert [r.text for r in recs] == ["scripted"]
        assert recs[0].prompt_digest == digest

    def test_sample_index_filter(self):
        # entries may come in any order; records follow sample_index
        gw = mock_gateway([entry("the task", 1, "b"), entry("the task", 0, "a")])
        p2 = DecodingParams(temperature=0.7, max_tokens=256, n_samples=2, seed=5)
        recs = gw.complete_n("m", "the task", p2)
        assert [r.text for r in recs] == ["a", "b"]
        assert [r.sample_index for r in recs] == [0, 1]
        assert [r.text for r in gw.complete_n("m", "the task", P)] == ["a"]

    def test_miss_without_default_raises(self):
        gw = mock_gateway([entry("the task", 0, "x")])
        with pytest.raises(ReplayMissError):
            gw.complete_n("m", "anything", P)
        p2 = DecodingParams(temperature=0.7, max_tokens=256, n_samples=2, seed=5)
        with pytest.raises(ReplayMissError):
            gw.complete_n("m", "the task", p2)

    def test_retry_header_is_not_read(self):
        retry = "# RETRY ATTEMPT 1/3\nthe task"
        gw = mock_gateway([entry("the task", 0, "first"), entry(retry, 0, "retry")])
        assert gw.complete_n("m", retry, P)[0].text == "retry"
        assert gw.complete_n("m", "the task", P)[0].text == "first"

    @pytest.mark.parametrize("entries", [
        [{"sample_index": 0, "text": "t"}],
        [{"digest": "d" * 64, "text": "t"}],
        [entry("the task", 0, "a"), entry("the task", 0, "b")],
        [entry("the task", 0, "a"), entry("the task", 2, "c")],
        [entry("the task", 0, "a"), entry("the task", 1, 5)],
        [entry("the task", 0, "a", reported_tokens="3")],
        [entry("the task", 0, "a", latency="slow")],
        [entry("the task", 0, "a"), "the task"],
    ], ids=["missing-digest", "missing-index", "repeat", "gap", "text-not-string",
            "tokens-not-integer", "latency-not-number", "not-an-object"])
    def test_malformed_script_is_a_config_error(self, entries):
        with pytest.raises(ConfigError, match=f"entry {len(entries) - 1}"):
            mock_gateway(entries)

    def test_reported_tokens_and_latency_pass_through(self):
        gw = mock_gateway([
            entry("the task", 0, "t", reported_tokens=42, latency=1.5),
        ])
        rec = gw.complete_n("m", "the task", P)[0]
        assert rec.reported_tokens == 42 and rec.latency == 1.5

    def test_mock_requires_script(self):
        with pytest.raises(ConfigError):
            ModelGateway("mock")

    def test_script_loaded_from_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"entries": [entry("the task", 0, "file")]}),
                        encoding="utf-8")
        gw = ModelGateway("mock", script=path)
        assert gw.complete_n("m", "the task", P)[0].text == "file"

    def test_missing_script_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ModelGateway("mock", script=tmp_path / "absent.json")


PROVIDERS = {"m": {"provider": "acme", "endpoint": "https://x.test/v1"}}


def transport_returning(texts, calls=None):
    def transport(endpoint, api_key, model_id, prompt, params, n):
        if calls is not None:
            calls.append(n)
        return [(texts[i % len(texts)], None) for i in range(n)]
    return transport


class TestRecordReplay:
    def setup_env(self, monkeypatch):
        monkeypatch.setenv("BRIDGE_ACME_KEY", "k-test")

    def test_record_then_replay_round_trip(self, tmp_path, monkeypatch):
        self.setup_env(monkeypatch)
        arch = tmp_path / "arch"
        rec_gw = ModelGateway("record", providers=PROVIDERS, archive_dir=arch,
                              transport=transport_returning(["alpha"]))
        first = rec_gw.complete_n("m", "prompt", P)
        rep_gw = ModelGateway("replay", archive_dir=arch)
        second = rep_gw.complete_n("m", "prompt", P)
        assert [r.text for r in first] == [r.text for r in second] == ["alpha"]

    def test_record_serves_from_archive_without_new_call(self, tmp_path, monkeypatch):
        self.setup_env(monkeypatch)
        calls = []
        gw = ModelGateway("record", providers=PROVIDERS,
                          archive_dir=tmp_path / "arch",
                          transport=transport_returning(["a"], calls))
        gw.complete_n("m", "prompt", P)
        gw.complete_n("m", "prompt", P)
        assert len(calls) == 1

    def test_concurrent_record_coalesces(self, tmp_path, monkeypatch):
        self.setup_env(monkeypatch)
        calls = []
        lock = threading.Lock()

        def transport(endpoint, api_key, model_id, prompt, params, n):
            with lock:
                calls.append(n)
            return [("same", None)] * n

        gw = ModelGateway("record", providers=PROVIDERS,
                          archive_dir=tmp_path / "arch", transport=transport)
        threads = [threading.Thread(target=gw.complete_n, args=("m", "prompt", P))
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1

    def test_archive_file_shape(self, tmp_path, monkeypatch):
        self.setup_env(monkeypatch)
        arch = tmp_path / "arch"
        gw = ModelGateway("record", providers=PROVIDERS, archive_dir=arch,
                          transport=transport_returning(["alpha"]))
        gw.complete_n("m", "prompt", P)
        digest = prompt_digest("m", "prompt", P)
        payload = json.loads((arch / f"{digest}.json").read_text(encoding="utf-8"))
        assert payload["model_id"] == "m"
        assert payload["prompt"] == "prompt"
        assert payload["seed"] == 5
        assert payload["records"][0]["text"] == "alpha"

    def test_replay_miss_unknown_digest(self, tmp_path):
        gw = ModelGateway("replay", archive_dir=tmp_path / "empty")
        with pytest.raises(ReplayMissError):
            gw.complete_n("m", "never recorded", P)

    def test_replay_miss_insufficient_samples(self, tmp_path, monkeypatch):
        self.setup_env(monkeypatch)
        arch = tmp_path / "arch"
        gw = ModelGateway("record", providers=PROVIDERS, archive_dir=arch,
                          transport=transport_returning(["a"]))
        gw.complete_n("m", "prompt", P)
        rep = ModelGateway("replay", archive_dir=arch)
        p3 = DecodingParams(temperature=0.7, max_tokens=256, n_samples=3, seed=5)
        with pytest.raises(ReplayMissError):
            rep.complete_n("m", "prompt", p3)

    def test_replay_serves_prefix_of_larger_archive(self, tmp_path, monkeypatch):
        self.setup_env(monkeypatch)
        arch = tmp_path / "arch"
        p3 = DecodingParams(temperature=0.7, max_tokens=256, n_samples=3, seed=5)
        gw = ModelGateway("record", providers=PROVIDERS, archive_dir=arch,
                          transport=transport_returning(["a", "b", "c"]))
        gw.complete_n("m", "prompt", p3)
        rep = ModelGateway("replay", archive_dir=arch)
        recs = rep.complete_n("m", "prompt", P)
        assert [r.text for r in recs] == ["a"]

    def test_replay_reads_each_archive_file_once(self, tmp_path, monkeypatch):
        self.setup_env(monkeypatch)
        arch = tmp_path / "arch"
        rec = ModelGateway("record", providers=PROVIDERS, archive_dir=arch,
                           transport=transport_returning(["a", "b"]))
        p2 = DecodingParams(temperature=0.7, max_tokens=256, n_samples=2, seed=5)
        rec.complete_n("m", "one", p2)
        rec.complete_n("m", "two", p2)
        reads = []
        real = Path.read_text

        def counting(path, *args, **kwargs):
            reads.append(path.name)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        rep = ModelGateway("replay", archive_dir=arch)
        for _ in range(3):
            assert [r.text for r in rep.complete_n("m", "one", p2)] == ["a", "b"]
            assert [r.text for r in rep.complete_n("m", "two", P)] == ["a"]
        assert sorted(reads) == sorted(
            f"{prompt_digest('m', prompt, P)}.json" for prompt in ("one", "two"))

    def test_archive_file_removed_after_lookup_is_a_miss(self, tmp_path, monkeypatch):
        # a file that a stat saw but a read does not find is still a miss
        monkeypatch.setattr(Path, "exists", lambda path: True)
        gw = ModelGateway("replay", archive_dir=tmp_path / "arch")
        with pytest.raises(ReplayMissError):
            gw.complete_n("m", "prompt", P)

    def test_replay_miss_is_not_cached(self, tmp_path, monkeypatch):
        self.setup_env(monkeypatch)
        arch = tmp_path / "arch"
        rep = ModelGateway("replay", archive_dir=arch)
        with pytest.raises(ReplayMissError):
            rep.complete_n("m", "prompt", P)
        ModelGateway("record", providers=PROVIDERS, archive_dir=arch,
                     transport=transport_returning(["late"])).complete_n("m", "prompt", P)
        assert [r.text for r in rep.complete_n("m", "prompt", P)] == ["late"]

    def test_record_more_samples_replaces_cached_entry(self, tmp_path, monkeypatch):
        self.setup_env(monkeypatch)
        arch = tmp_path / "arch"
        calls = []
        gw = ModelGateway("record", providers=PROVIDERS, archive_dir=arch,
                          transport=transport_returning(["x", "y"], calls))
        p2 = DecodingParams(temperature=0.7, max_tokens=256, n_samples=2, seed=5)
        assert len(gw.complete_n("m", "prompt", P)) == 1
        assert [r.text for r in gw.complete_n("m", "prompt", p2)] == ["x", "y"]
        assert [r.text for r in gw.complete_n("m", "prompt", p2)] == ["x", "y"]
        assert calls == [1, 2]
        digest = prompt_digest("m", "prompt", P)
        payload = json.loads((arch / f"{digest}.json").read_text(encoding="utf-8"))
        assert len(payload["records"]) == 2

    @pytest.mark.parametrize("stored", [
        {"records": [{"sample_index": 0}]},
        {"records": [{"text": "t", "reported_tokens": "3"}]},
        {"records": [{"text": "t", "latency": None}]},
        {"records": [{"text": "t"}, 5]},
        {"records": {"text": "t"}},
    ], ids=["no-text", "tokens-not-integer", "latency-not-number", "not-an-object",
            "not-a-list"])
    def test_damaged_archive_file_is_skipped_until_requested(self, tmp_path, stored):
        arch = tmp_path / "arch"
        arch.mkdir()
        good, bad = (prompt_digest("m", prompt, P) for prompt in ("good", "bad"))
        (arch / f"{good}.json").write_text(json.dumps({"records": [{"text": "ok"}]}),
                                           encoding="utf-8")
        (arch / f"{bad}.json").write_text(json.dumps(stored), encoding="utf-8")
        gw = ModelGateway("replay", archive_dir=arch)
        assert [r.text for r in gw.complete_n("m", "good", P)] == ["ok"]
        assert bad not in gw._archive
        with pytest.raises(GatewayError, match=f"^{arch / bad}.json: records must be"):
            gw.complete_n("m", "bad", P)

    def test_archive_dir_required(self):
        with pytest.raises(ConfigError):
            ModelGateway("replay")
        with pytest.raises(ConfigError):
            ModelGateway("record")


class TestLiveRetry:
    def make_gateway(self, transport, sleeps):
        return ModelGateway("live", providers=PROVIDERS, transport=transport,
                            sleep=sleeps.append)

    def test_transient_failures_retried_with_backoff(self, monkeypatch):
        monkeypatch.setenv("BRIDGE_ACME_KEY", "k")
        attempts = []
        sleeps = []

        def transport(endpoint, api_key, model_id, prompt, params, n):
            attempts.append(1)
            if len(attempts) < 3:
                raise TransportError("HTTP 503")
            return [("ok", 7)] * n

        gw = self.make_gateway(transport, sleeps)
        recs = gw.complete_n("m", "p", P)
        assert recs[0].text == "ok" and recs[0].reported_tokens == 7
        assert len(attempts) == 3
        assert sleeps == [0.5, 1.0]

    def test_exhausted_attempts_raise(self, monkeypatch):
        monkeypatch.setenv("BRIDGE_ACME_KEY", "k")
        sleeps = []

        def transport(*a, **k):
            raise TransportError("HTTP 500")

        gw = self.make_gateway(transport, sleeps)
        with pytest.raises(TransportError):
            gw.complete_n("m", "p", P)
        assert sleeps == [0.5, 1.0]

    def test_non_transport_errors_not_retried(self, monkeypatch):
        monkeypatch.setenv("BRIDGE_ACME_KEY", "k")
        attempts = []

        def transport(*a, **k):
            attempts.append(1)
            raise GatewayError("HTTP 400")

        gw = self.make_gateway(transport, [])
        with pytest.raises(GatewayError):
            gw.complete_n("m", "p", P)
        assert len(attempts) == 1

    def test_batch_limit_splits_requests(self, monkeypatch):
        monkeypatch.setenv("BRIDGE_ACME_KEY", "k")
        calls = []
        providers = {"m": {"provider": "acme", "endpoint": "https://x.test",
                           "batch_limit": 2}}
        gw = ModelGateway("live", providers=providers,
                          transport=transport_returning(["t"], calls))
        p5 = DecodingParams(temperature=0.7, max_tokens=256, n_samples=5, seed=5)
        recs = gw.complete_n("m", "p", p5)
        assert calls == [2, 2, 1]
        assert [r.sample_index for r in recs] == [0, 1, 2, 3, 4]

    def test_missing_provider_and_credential(self, monkeypatch):
        gw = ModelGateway("live", providers=PROVIDERS,
                          transport=transport_returning(["t"]))
        with pytest.raises(ConfigError):
            gw.complete_n("unknown-model", "p", P)
        monkeypatch.delenv("BRIDGE_ACME_KEY", raising=False)
        with pytest.raises(ConfigError):
            gw.complete_n("m", "p", P)

    def test_invalid_mode(self):
        with pytest.raises(ConfigError):
            ModelGateway("streaming")


class TestLazyRequests:
    @pytest.mark.parametrize(
        "module", ["requests", "dataclasses", "inspect", "concurrent.futures", "logging"])
    def test_cli_import_leaves_requests_unloaded(self, module):
        # mock and replay runs never reach the network, so importing the
        # CLI must not pay for importing requests; nor for dataclasses and
        # inspect, or concurrent.futures and logging, which bridge does not use
        src = str(Path(bridge.__file__).resolve().parent.parent)
        code = f"import sys, bridge.cli; print({module!r} in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class _Provider(BaseHTTPRequestHandler):
    """Answers every POST with the server's scripted (status, body)."""

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        self.server.requests.append(
            (self.headers["Authorization"], json.loads(self.rfile.read(length))))
        status, body = self.server.reply
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def provider(monkeypatch):
    """An OpenAI-style endpoint on 127.0.0.1, served from a thread of this
    process; set its `reply` to script the next answer."""
    monkeypatch.setenv("no_proxy", "127.0.0.1")  # no proxy may stand between
    server = HTTPServer(("127.0.0.1", 0), _Provider)
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    server.endpoint = "http://127.0.0.1:%d/v1/chat/completions" % server.server_port
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def choices(*texts):
    return [{"message": {"content": text}} for text in texts]


class TestHttpTransport:
    """`_default_transport` against a loopback provider; nothing leaves the host."""

    P2 = DecodingParams(temperature=0.7, max_tokens=256, n_samples=2, seed=5)

    def complete(self, provider, monkeypatch):
        monkeypatch.setenv("BRIDGE_ACME_KEY", "k-local")
        providers = {"m": {"provider": "acme", "endpoint": provider.endpoint}}
        return ModelGateway("live", providers=providers).complete_n("m", "p", self.P2)

    def test_reply_with_usage_gives_per_choice_tokens(self, provider, monkeypatch):
        provider.reply = 200, {"choices": choices("a", "b"),
                               "usage": {"completion_tokens": 10}}
        recs = self.complete(provider, monkeypatch)
        assert [(r.text, r.reported_tokens) for r in recs] == [("a", 5), ("b", 5)]
        [(auth, payload)] = provider.requests
        assert auth == "Bearer k-local"
        assert payload == {"model": "m", "messages": [{"role": "user", "content": "p"}],
                           "temperature": 0.7, "max_tokens": 256, "n": 2, "seed": 5}

    def test_null_usage_gives_no_token_count(self, provider, monkeypatch):
        provider.reply = 200, {"choices": choices("a", "b"), "usage": None}
        recs = self.complete(provider, monkeypatch)
        assert [(r.text, r.reported_tokens) for r in recs] == [("a", None), ("b", None)]

    @pytest.mark.parametrize("status", [429, 500])
    def test_throttled_or_failing_provider_is_a_transport_error(self, provider, status):
        provider.reply = status, {"error": "busy"}
        with pytest.raises(TransportError, match=f"returned HTTP {status}"):
            _default_transport(provider.endpoint, "k", "m", "p", P, 1)

    def test_refused_request_is_not_retried(self, provider):
        provider.reply = 400, {"error": "bad request"}
        with pytest.raises(GatewayError, match="returned HTTP 400") as exc:
            _default_transport(provider.endpoint, "k", "m", "p", P, 1)
        assert not isinstance(exc.value, TransportError)

    @pytest.mark.parametrize("body", [
        [{"choices": choices("a")}],
        {"usage": {"completion_tokens": 3}},
    ], ids=["array-body", "no-choices"])
    def test_malformed_reply_is_a_gateway_error(self, provider, body):
        provider.reply = 200, body
        with pytest.raises(GatewayError, match="^malformed completion response: "):
            _default_transport(provider.endpoint, "k", "m", "p", P, 1)
