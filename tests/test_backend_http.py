from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
import requests

from conftest import COHORT_SIZE
from mindpipe import pipeline
from mindpipe.config import load_config, packaged_path
from mindpipe.errors import BackendError, BackendExhaustedError, ConfigError
from mindpipe.llm.completion import CompletionRequest
from mindpipe.llm.http_backend import _BACKOFF_CAP, HttpBackend
from mindpipe.llm.mock_backend import MockBackend
from mindpipe.llm.ratelimit import RateLimiter


class _StubHandler(BaseHTTPRequestHandler):
    script: list  # per-server list of (status, body-dict or None)
    seen: list

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length)) if length else {}
        type(self).seen.append(
            {"path": self.path, "payload": payload, "auth": self.headers.get("Authorization")}
        )
        status, body = self.script.pop(0) if self.script else (500, None)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        if body is not None:
            self.wfile.write(json.dumps(body).encode())

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    handlers = {}

    def start(script):
        handler = type("Handler", (_StubHandler,), {"script": list(script), "seen": []})
        server = HTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        handlers["server"] = server
        return f"http://127.0.0.1:{server.server_port}", handler

    yield start
    if "server" in handlers:
        handlers["server"].shutdown()
        handlers["server"].server_close()


def _ok_body(text="hello"):
    return {
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {"prompt_tokens": 7, "completion_tokens": 2},
    }


def _request():
    return CompletionRequest(model="m", messages=[{"role": "user", "content": "hi"}])


def _backend(base_url, monkeypatch, attempts=4):
    monkeypatch.setenv("TEST_API_KEY", "sekret")
    sleeps = []
    backend = HttpBackend(
        base_url=base_url,
        api_key_env="TEST_API_KEY",
        max_attempts=attempts,
        sleeper=sleeps.append,
    )
    return backend, sleeps


def test_success_parses_content_and_usage(stub_server, monkeypatch):
    base, handler = stub_server([(200, _ok_body("answer text"))])
    backend, _ = _backend(base, monkeypatch)
    result = backend.complete(_request())
    assert result.text == "answer text"
    assert result.prompt_tokens == 7
    assert handler.seen[0]["path"] == "/chat/completions"
    assert handler.seen[0]["auth"] == "Bearer sekret"
    assert handler.seen[0]["payload"]["temperature"] == 0
    assert handler.seen[0]["payload"]["max_tokens"] == 1000
    assert handler.seen[0]["payload"]["top_p"] == 1.0
    assert "stop" not in handler.seen[0]["payload"]


def test_401_is_non_retryable_with_zero_retries(stub_server, monkeypatch):
    base, handler = stub_server([(401, None)])
    backend, sleeps = _backend(base, monkeypatch)
    with pytest.raises(BackendError) as err:
        backend.complete(_request())
    assert err.value.status == 401
    assert len(handler.seen) == 1
    assert sleeps == []


def test_429_twice_then_success_retries(stub_server, monkeypatch):
    base, handler = stub_server([(429, None), (429, None), (200, _ok_body())])
    backend, sleeps = _backend(base, monkeypatch)
    result = backend.complete(_request())
    assert result.text == "hello"
    assert len(handler.seen) == 3
    assert len(sleeps) == 2
    assert all(delay > 0 for delay in sleeps)


def test_persistent_500_exhausts_attempts(stub_server, monkeypatch):
    base, handler = stub_server([(500, None)] * 4)
    backend, _ = _backend(base, monkeypatch, attempts=3)
    with pytest.raises(BackendExhaustedError):
        backend.complete(_request())
    assert len(handler.seen) == 3


def test_connection_errors_retry_then_exhaust(monkeypatch):
    backend, sleeps = _backend("http://127.0.0.1:9", monkeypatch, attempts=2)
    with pytest.raises(BackendExhaustedError):
        backend.complete(_request())
    assert len(sleeps) == 1


def test_missing_credential_env_is_config_error(monkeypatch):
    monkeypatch.delenv("NOPE_KEY", raising=False)
    with pytest.raises(ConfigError, match="NOPE_KEY"):
        HttpBackend(base_url="http://x", api_key_env="NOPE_KEY")


def test_malformed_success_body_is_backend_error(stub_server, monkeypatch):
    base, _ = stub_server([(200, {"unexpected": True})])
    backend, _ = _backend(base, monkeypatch)
    with pytest.raises(BackendError, match="malformed"):
        backend.complete(_request())


class _FakeResponse:
    def __init__(self, status, headers=None, body=None):
        self.status_code = status
        self.headers = headers or {}
        self._body = body

    def json(self):
        return self._body


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)

    def post(self, *args, **kwargs):
        return self.responses.pop(0)


class _CountingLimiter:
    def __init__(self):
        self.entered = 0

    def __enter__(self):
        self.entered += 1
        return self

    def __exit__(self, *exc_info):
        pass


@pytest.mark.parametrize(
    ("status", "retry_after", "expected"),
    [
        (429, "2", 2.0),
        (503, " 0 ", 0.0),
        (429, "3600", _BACKOFF_CAP),
        (429, None, None),
        (429, "soon", None),
        (429, "-1", None),
        (429, "1.5", None),
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", None),
        (500, "2", None),
    ],
)
def test_retry_waits_retry_after_on_429_and_503(monkeypatch, status, retry_after, expected):
    monkeypatch.setenv("TEST_API_KEY", "sekret")
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    session = _FakeSession([_FakeResponse(status, headers), _FakeResponse(200, body=_ok_body())])
    limiter = _CountingLimiter()
    sleeps = []
    backend = HttpBackend(
        base_url="http://stub",
        api_key_env="TEST_API_KEY",
        limiter=limiter,
        sleeper=sleeps.append,
        session=session,
    )
    assert backend.complete(_request()).text == "hello"
    assert limiter.entered == 2  # the retry is paced like any request
    assert len(sleeps) == 1
    if expected is None:  # the jittered backoff of the first attempt
        assert 0.25 <= sleeps[0] <= 0.75
    else:
        assert sleeps[0] == expected


class _MockRulesHandler(BaseHTTPRequestHandler):
    """Answers chat completions through the packaged mock rule table."""

    backend = MockBackend(packaged_path("data/mock_rules.json"))
    served = 0

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        request = CompletionRequest(model=payload["model"], messages=payload["messages"])
        body = json.dumps(_ok_body(self.backend.complete(request).text)).encode()
        type(self).served += 1
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_mock_and_http_runs_share_a_cache_dir_without_sharing_answers(
    tmp_path, monkeypatch, corpus_path
):
    handler = type("Handler", (_MockRulesHandler,), {})
    server = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    monkeypatch.setenv("TEST_API_KEY", "sekret")
    shared = {"pipeline.cohort_size": COHORT_SIZE, "paths.cache_dir": str(tmp_path / "cache")}
    http = {
        "backend.kind": "http",
        "backend.base_url": f"http://127.0.0.1:{server.server_port}/v1",
        "backend.api_key_env": "TEST_API_KEY",
        "limits.rps": 1000.0,
    }
    try:
        mock_run = pipeline.run_all(load_config(overrides=shared), [corpus_path], tmp_path / "m")
        http_run = pipeline.run_all(
            load_config(overrides={**shared, **http}), [corpus_path], tmp_path / "h"
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    # the HTTP run is a cold run: its only hits are prompts it repeats itself
    assert http_run["cache"] == mock_run["cache"]
    assert handler.served == mock_run["cache"]["misses"] > 0


def test_http_run_builds_one_limiter_and_one_http_session(tmp_path, monkeypatch, corpus_path):
    # one limiter paces the requests of every stage, so rps holds across stage boundaries
    limiters, opened, closed = [], [], []

    def recording(method, seen):
        def record(self, *args, **kwargs):
            seen.append(self)
            return method(self, *args, **kwargs)

        return record

    monkeypatch.setattr(RateLimiter, "__init__", recording(RateLimiter.__init__, limiters))
    monkeypatch.setattr(
        requests.Session, "__init__", recording(requests.Session.__init__, opened)
    )
    monkeypatch.setattr(requests.Session, "close", recording(requests.Session.close, closed))
    monkeypatch.setenv("TEST_API_KEY", "sekret")
    server = HTTPServer(("127.0.0.1", 0), type("Handler", (_MockRulesHandler,), {}))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    config = load_config(
        overrides={
            "pipeline.cohort_size": COHORT_SIZE,
            "backend.kind": "http",
            "backend.base_url": f"http://127.0.0.1:{server.server_port}/v1",
            "backend.api_key_env": "TEST_API_KEY",
            "limits.rps": 1000.0,
        }
    )
    try:
        manifest = pipeline.run_all(config, [corpus_path], tmp_path / "run")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert manifest["stage_order"] == list(pipeline.STAGE_NAMES)
    assert len(limiters) == len(opened) == 1
    assert closed == opened
    # a no-op rerun and a stage without a backend build no session, so need no credential
    monkeypatch.delenv("TEST_API_KEY")
    rerun = pipeline.run_all(config, None, tmp_path / "run")
    assert rerun["stage_order"] == manifest["stage_order"]
    pipeline.run_stage("report", config, None, tmp_path / "run")
    assert len(limiters) == len(opened) == 1
