from __future__ import annotations

import base64
import json
import logging
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import pytest

from conftest import COHORT_SIZE, CORPUS
from mindpipe import pipeline
from mindpipe.config import load_config, packaged_path
from mindpipe.errors import BackendError, BackendExhaustedError, ConfigError
from mindpipe.llm.cache import ResponseCache, read_stats
from mindpipe.llm.completion import CompletionRequest
from mindpipe.llm.http_backend import _BACKOFF_CAP, HttpBackend
from mindpipe.llm.mock_backend import MockBackend
from mindpipe.llm.ratelimit import RateLimiter
from mindpipe.llm.session import LlmSession


class _StubHandler(BaseHTTPRequestHandler):
    script: list  # per-server list of (status, body-dict or None)
    seen: list

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length)) if length else {}
        type(self).seen.append(
            {
                "path": self.path,
                "payload": payload,
                "auth": self.headers.get("Authorization"),
                "host": self.headers.get("Host"),
                "proxy_auth": self.headers.get("Proxy-Authorization"),
            }
        )
        status, body = self.script.pop(0) if self.script else (500, None)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        if body is not None:
            self.wfile.write(json.dumps(body).encode())

    def do_CONNECT(self):
        """As a proxy: record the tunnel asked for and refuse it."""
        type(self).seen.append({"connect": self.path})
        self.send_response(502)
        self.end_headers()

    def log_message(self, *args):
        pass


def _serve(server: HTTPServer) -> threading.Thread:
    """Serve in a daemon thread that sees ``shutdown()`` within 10 ms, where
    ``serve_forever``'s default poll interval would take up to 0.5 s."""
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    return thread


@pytest.fixture()
def stub_server():
    servers = []

    def start(script, handler_class=_StubHandler):
        handler = type("Handler", (handler_class,), {"script": list(script), "seen": []})
        server = HTTPServer(("127.0.0.1", 0), handler)
        _serve(server)
        servers.append(server)
        return f"http://127.0.0.1:{server.server_port}", handler

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture()
def proxy_env(monkeypatch):
    """Clear every proxy variable; return a setter for them."""
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch.setenv


def _ok_body(text="hello"):
    return {
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {"prompt_tokens": 7, "completion_tokens": 2},
    }


def _request():
    return CompletionRequest(model="m", messages=[{"role": "user", "content": "hi"}])


def _backend(base_url, monkeypatch, attempts=4, **kwargs):
    monkeypatch.setenv("TEST_API_KEY", "sekret")
    sleeps = []
    backend = HttpBackend(
        base_url=base_url,
        api_key_env="TEST_API_KEY",
        max_attempts=attempts,
        sleeper=sleeps.append,
        **kwargs,
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


@pytest.mark.parametrize(
    ("base_url", "proxy", "message"),
    [
        ("ftp://llm.example.com/v1", None, "http:// or https://"),
        ("http://127.0.0.1:port/v1", None, "bad port"),
        ("http://127.0.0.1:9/v1", "socks5://127.0.0.1:1080", "http_proxy"),
    ],
)
def test_unusable_base_url_or_proxy_is_config_error(
    monkeypatch, proxy_env, base_url, proxy, message
):
    if proxy:
        proxy_env("HTTP_PROXY", proxy)
    with pytest.raises(ConfigError, match=message):
        _backend(base_url, monkeypatch)


def test_malformed_success_body_is_backend_error(stub_server, monkeypatch):
    base, _ = stub_server([(200, {"unexpected": True})])
    backend, _ = _backend(base, monkeypatch)
    with pytest.raises(BackendError, match="malformed"):
        backend.complete(_request())


class _FakeResponse:
    def __init__(self, status, headers=None, body=None):
        self.status = status
        self._headers = headers or {}
        if body is not None and not isinstance(body, bytes):
            body = json.dumps(body).encode()
        self._body = body or b""

    def getheader(self, name, default=None):
        return self._headers.get(name, default)

    def read(self):
        return self._body


class _FakeConnection:
    """An ``http.client`` connection that answers with scripted responses."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.sock = None
        self.bodies = []

    def request(self, method, target, body, headers):
        self.sock = "open"
        self.bodies.append(body)

    def getresponse(self):
        return self.responses.pop(0)

    def close(self):
        self.sock = None


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
    connection = _FakeConnection(
        [_FakeResponse(status, headers), _FakeResponse(200, body=_ok_body())]
    )
    limiter = _CountingLimiter()
    sleeps = []
    backend = HttpBackend(
        base_url="http://stub",
        api_key_env="TEST_API_KEY",
        limiter=limiter,
        sleeper=sleeps.append,
        connect=lambda: connection,
    )
    assert backend.complete(_request()).text == "hello"
    assert limiter.entered == 2  # the retry is paced like any request
    assert len(sleeps) == 1
    if expected is None:  # the jittered backoff of the first attempt
        assert 0.25 <= sleeps[0] <= 0.75
    else:
        assert sleeps[0] == expected


def test_the_request_body_holds_the_request_fields_in_order(monkeypatch):
    # a stop of None is left out; the request itself keeps it
    monkeypatch.setenv("TEST_API_KEY", "sekret")
    connection = _FakeConnection([_FakeResponse(200, body=_ok_body()) for _ in range(2)])
    backend = HttpBackend(
        base_url="http://stub", api_key_env="TEST_API_KEY", connect=lambda: connection
    )
    request = _request()
    backend.complete(request)
    backend.complete(CompletionRequest(model="m", messages=request.messages, stop=["\n"]))
    assert request.cache_key() == _request().cache_key()
    fields = (
        b'{"model": "m", "messages": [{"role": "user", "content": "hi"}], '
        b'"temperature": 0.0, "max_tokens": 1000, "top_p": 1.0'
    )
    assert connection.bodies == [fields + b"}", fields + b', "stop": ["\\n"]}']


def _fake_backend(monkeypatch, *bodies):
    """A backend whose one connection answers 200 with each body in turn."""
    monkeypatch.setenv("TEST_API_KEY", "sekret")
    connection = _FakeConnection([_FakeResponse(200, body=body) for body in bodies])
    return HttpBackend(
        base_url="http://stub", api_key_env="TEST_API_KEY", connect=lambda: connection
    )


def test_null_content_is_a_failed_call_that_nothing_caches(monkeypatch, templates, tmp_path):
    # a content filter that blocks a completion answers 200 with null content
    blocked = {"choices": [{"message": {"role": "assistant", "content": None}}]}
    backend = _fake_backend(monkeypatch, blocked, blocked)
    with pytest.raises(BackendError, match="NoneType, not text") as err:
        backend.complete(_request())
    assert err.value.status == 200

    cache = ResponseCache(tmp_path, backend.identity)
    session = LlmSession(backend, templates, model="m", cache=cache)
    verdict = session.ask_parsed("safety", {"text": "t"}, str.strip, tags={"entry_id": "t"})
    assert verdict == (None, "backend failure: completion content is NoneType, not text")
    assert session.failed_calls == 1
    cache.close()  # no answer is pending, so the final flush writes nothing
    assert read_stats(tmp_path)[0] == 0


def test_d13_text_that_is_not_utf8_is_a_failed_call_that_nothing_caches(
    monkeypatch, templates, tmp_path
):
    # a lone surrogate once reached the row writer and the cache flush, which kept
    # the answer pending, so every later flush and close() raised
    body = {"choices": [{"message": {"role": "assistant", "content": "\ud800"}}]}
    backend = _fake_backend(monkeypatch, body)
    cache = ResponseCache(tmp_path, backend.identity)
    session = LlmSession(backend, templates, model="m", cache=cache)
    verdict = session.ask_parsed("safety", {"text": "t"}, str.strip, tags={"entry_id": "t"})
    assert verdict == (None, "backend failure: completion content is not UTF-8 text")
    assert session.failed_calls == 1
    cache.close()
    assert read_stats(tmp_path)[0] == 0


def test_d16_a_deeply_nested_answer_is_a_failed_call_that_nothing_caches(
    monkeypatch, templates, tmp_path
):
    # json.loads once raised RecursionError out of the call, failing its stage
    backend = _fake_backend(monkeypatch, b"[" * 100_000 + b"]" * 100_000)
    cache = ResponseCache(tmp_path, backend.identity)
    session = LlmSession(backend, templates, model="m", cache=cache)
    answer, failure = session.ask_parsed("safety", {"text": "t"}, str.strip, tags={"entry_id": "t"})
    assert answer is None
    assert failure.startswith("backend failure: malformed completion response: maximum recursion")
    assert session.failed_calls == 1
    cache.close()
    assert read_stats(tmp_path)[0] == 0


def test_null_token_counts_read_as_zero(monkeypatch):
    body = {**_ok_body(), "usage": {"prompt_tokens": None, "completion_tokens": None}}
    result = _fake_backend(monkeypatch, body).complete(_request())
    assert (result.text, result.prompt_tokens, result.completion_tokens) == ("hello", 0, 0)


@pytest.mark.parametrize(
    "usage", [[1], {"prompt_tokens": "n/a", "completion_tokens": "n/a"}], ids=["list", "text"]
)
def test_unreadable_token_counts_read_as_zero(monkeypatch, usage):
    result = _fake_backend(monkeypatch, {**_ok_body(), "usage": usage}).complete(_request())
    assert (result.text, result.prompt_tokens, result.completion_tokens) == ("hello", 0, 0)


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
    thread = _serve(server)
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


class _ConnectionLog:
    """Handler mixin: one event per connection served, set when the connection ends."""

    connections: list

    def setup(self):
        super().setup()
        self.ended = threading.Event()
        type(self).connections.append(self.ended)

    def finish(self):
        super().finish()
        self.ended.set()


class _KeepAliveMockRulesHandler(_ConnectionLog, _MockRulesHandler):
    protocol_version = "HTTP/1.1"
    # headers and body go out in two writes; with Nagle's algorithm the
    # client's delayed ACK would hold the body back
    disable_nagle_algorithm = True


class _InFlightLog(_KeepAliveMockRulesHandler):
    """Also records the most requests it was answering at once."""

    lock = threading.Lock()
    in_flight = 0
    peak = 0

    def do_POST(self):
        cls = type(self)
        with cls.lock:
            cls.in_flight += 1
            cls.peak = max(cls.peak, cls.in_flight)
        try:
            super().do_POST()
        finally:
            with cls.lock:
                cls.in_flight -= 1


def test_http_run_builds_one_limiter_and_keeps_at_most_concurrency_connections(
    tmp_path, monkeypatch, corpus_path
):
    # one limiter paces the requests of every stage, so rps holds across stage
    # boundaries; the stage workers alone bound the requests in flight
    limiters, backends = [], []

    def recording(method, seen):
        def record(self, *args, **kwargs):
            seen.append(self)
            return method(self, *args, **kwargs)

        return record

    monkeypatch.setattr(RateLimiter, "__init__", recording(RateLimiter.__init__, limiters))
    monkeypatch.setattr(HttpBackend, "__init__", recording(HttpBackend.__init__, backends))
    monkeypatch.setenv("TEST_API_KEY", "sekret")
    handler = type("Handler", (_InFlightLog,), {"connections": []})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = _serve(server)
    config = load_config(
        overrides={
            "pipeline.cohort_size": COHORT_SIZE,
            "backend.kind": "http",
            "backend.base_url": f"http://127.0.0.1:{server.server_port}/v1",
            "backend.api_key_env": "TEST_API_KEY",
            "limits.rps": 1000.0,
            "limits.concurrency": 2,
        }
    )
    try:
        manifest = pipeline.run_all(config, [corpus_path], tmp_path / "run")
        # the connections outlive each stage's worker threads and close when the run ends
        assert 1 <= len(handler.connections) <= config.limits.concurrency
        assert 1 <= handler.peak <= config.limits.concurrency
        assert all(ended.wait(timeout=10) for ended in handler.connections)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert manifest["stage_order"] == list(pipeline.STAGE_NAMES)
    assert handler.served == manifest["cache"]["misses"] > len(handler.connections)
    assert len(limiters) == len(backends) == 1
    # a no-op rerun and a stage without a backend build no session, so need no credential
    monkeypatch.delenv("TEST_API_KEY")
    rerun = pipeline.run_all(config, None, tmp_path / "run")
    assert rerun["stage_order"] == manifest["stage_order"]
    pipeline.run_stage("report", config, None, tmp_path / "run")
    assert len(limiters) == len(backends) == 1


class _EchoHandler(_KeepAliveMockRulesHandler):
    """Answers each request with its own last message."""

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        body = json.dumps(_ok_body(payload["messages"][-1]["content"])).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_concurrent_calls_never_share_a_connection(monkeypatch, caplog):
    handler = type("Echo", (_EchoHandler,), {"connections": []})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = _serve(server)
    base = f"http://127.0.0.1:{server.server_port}"
    backend, sleeps = _backend(base, monkeypatch, timeout=5.0)
    workers, calls = 8, 25
    answers = {}

    def work(worker):
        for call in range(calls):
            text = f"{worker}.{call}"
            request = CompletionRequest(model="m", messages=[{"role": "user", "content": text}])
            answers[text] = backend.complete(request).text

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with caplog.at_level(logging.WARNING, logger="mindpipe.llm.http_backend"):
            threads = [
                threading.Thread(target=work, args=(n,), daemon=True) for n in range(workers)
            ]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(timeout=30)
        assert not any(worker.is_alive() for worker in threads)
        backend.close()
        assert all(ended.wait(timeout=10) for ended in handler.connections)
    finally:
        sys.setswitchinterval(interval)
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert len(answers) == workers * calls
    assert all(text == answer for text, answer in answers.items())
    assert caplog.records == [] and sleeps == []
    assert len(handler.connections) <= workers


class _IdleTimeoutHandler(_ConnectionLog, _StubHandler):
    """Closes each connection after one answer without saying so, as a server
    does when a kept-alive connection reaches its idle timeout."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        body = json.dumps(_ok_body()).encode()
        self.rfile.read(int(self.headers["Content-Length"]))
        type(self).seen.append(self.path)
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.close_connection = True


def test_a_connection_the_server_closed_while_idle_is_reopened_at_once(
    stub_server, monkeypatch, caplog
):
    handler_class = type("Idle", (_IdleTimeoutHandler,), {"connections": []})
    base, handler = stub_server([], handler_class)
    limiter = _CountingLimiter()
    backend, sleeps = _backend(base, monkeypatch, limiter=limiter)
    with caplog.at_level(logging.WARNING, logger="mindpipe.llm.http_backend"):
        assert backend.complete(_request()).text == "hello"
        assert handler.connections[0].wait(timeout=10)  # the server is done with it
        assert backend.complete(_request()).text == "hello"
    backend.close()
    assert caplog.records == []  # no failed attempt
    assert sleeps == []  # and no backoff
    assert limiter.entered == 3  # the re-send on a new connection is paced too
    assert len(handler.connections) == len(handler.seen) == 2


class _HangUpHandler(_StubHandler):
    """Reads each request and closes the connection without an answer."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        type(self).seen.append(self.path)
        self.close_connection = True


def test_a_new_connection_closed_before_a_status_line_is_a_failed_attempt(
    stub_server, monkeypatch
):
    base, handler = stub_server([], _HangUpHandler)
    backend, sleeps = _backend(base, monkeypatch, attempts=3)
    with pytest.raises(BackendExhaustedError, match="transport"):
        backend.complete(_request())
    # only a kept-alive connection is re-sent on without counting an attempt
    assert len(handler.seen) == 3
    assert len(sleeps) == 2


def test_http_proxy_carries_an_http_base_url(stub_server, monkeypatch, proxy_env):
    proxy, handler = stub_server([(200, _ok_body("via proxy"))])
    proxy_env("HTTP_PROXY", proxy.replace("http://", "http://user:p%40ss@"))
    backend, _ = _backend("http://127.0.0.1:9/v1", monkeypatch)
    assert backend.complete(_request()).text == "via proxy"
    backend.close()
    (seen,) = handler.seen
    assert seen["path"] == "http://127.0.0.1:9/v1/chat/completions"
    assert seen["host"] == "127.0.0.1:9"
    assert seen["auth"] == "Bearer sekret"
    assert seen["proxy_auth"] == "Basic " + base64.b64encode(b"user:p@ss").decode()


def test_no_proxy_bypasses_the_proxy(stub_server, monkeypatch, proxy_env):
    proxy, proxy_handler = stub_server([(200, _ok_body("via proxy"))])
    base, handler = stub_server([(200, _ok_body("direct"))])
    proxy_env("HTTP_PROXY", proxy)
    proxy_env("NO_PROXY", "example.com,127.0.0.1")
    backend, _ = _backend(base + "/v1", monkeypatch)
    assert backend.complete(_request()).text == "direct"
    backend.close()
    assert [seen["path"] for seen in handler.seen] == ["/v1/chat/completions"]
    assert handler.seen[0]["proxy_auth"] is None
    assert proxy_handler.seen == []


def test_https_proxy_tunnels_an_https_base_url(stub_server, monkeypatch, proxy_env):
    proxy, handler = stub_server([])
    proxy_env("HTTPS_PROXY", proxy)
    backend, _ = _backend("https://127.0.0.1:9/v1", monkeypatch, attempts=1)
    with pytest.raises(BackendExhaustedError, match="Tunnel connection failed: 502"):
        backend.complete(_request())
    assert handler.seen == [{"connect": "127.0.0.1:9"}]


def test_http_run_imports_no_requests_module(tmp_path):
    server = HTTPServer(("127.0.0.1", 0), type("Handler", (_MockRulesHandler,), {}))
    thread = _serve(server)
    overrides = {
        "pipeline.cohort_size": COHORT_SIZE,
        "backend.kind": "http",
        "backend.base_url": f"http://127.0.0.1:{server.server_port}/v1",
        "backend.api_key_env": "TEST_API_KEY",
        "limits.rps": 1000.0,
    }
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from mindpipe import pipeline\n"
        "from mindpipe.config import load_config\n"
        f"config = load_config(overrides={overrides!r})\n"
        f"pipeline.run_all(config, [Path({str(CORPUS)!r})], Path({str(tmp_path / 'run')!r}))\n"
        "print('mindpipe.llm.http_backend' in sys.modules)\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'requests'))\n"
    )
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        "TEST_API_KEY": "sekret",
    }
    try:
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["True", "[]"]
