"""HTTP chat-completion client with retries, backoff, and rate limiting.

Speaks the OpenAI-style chat-completions wire shape: POST
``<base_url>/chat/completions`` with a messages array, reads
``choices[0].message.content``.

Built on ``http.client``. Open connections wait in an idle pool: a call
takes one, or opens one if none waits, and puts it back when its
response is read. So a worker keeps one kept-alive connection, no more
connections are open than calls in flight, and they outlive the stage's
worker threads. ``HTTP(S)_PROXY`` and ``NO_PROXY`` are read once, when
the backend is built. TLS trusts the system store (OpenSSL's default
paths, which ``SSL_CERT_FILE`` and ``SSL_CERT_DIR`` override). Redirects
are not followed.
"""

from __future__ import annotations

import base64
import contextlib
import http.client
import json
import logging
import os
import random
import ssl
import time
import urllib.parse
import urllib.request
from typing import Callable

from .. import __version__
from ..errors import BackendError, BackendExhaustedError, ConfigError
from .completion import CompletionRequest, CompletionResult
from .ratelimit import RateLimiter

logger = logging.getLogger(__name__)

RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
RETRY_AFTER_STATUSES = frozenset({429, 503})
_BACKOFF_BASE = 0.5
_BACKOFF_CAP = 30.0
# what a kept-alive connection that the server closed while it sat idle
# raises before a status line (http.client.RemoteDisconnected is a
# ConnectionResetError)
_STALE = (ConnectionResetError, BrokenPipeError)


class HttpBackend:
    """Chat-completion client for one configured endpoint.

    The credential is read from the environment variable named in the
    config; it is never persisted anywhere. ``connect`` opens a new
    connection to the endpoint; by default an ``HTTP(S)Connection`` to it
    or to its proxy.
    """

    def __init__(
        self,
        base_url: str,
        api_key_env: str,
        max_attempts: int = 4,
        limiter: RateLimiter | None = None,
        timeout: float = 60.0,
        sleeper: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
        connect: Callable[[], http.client.HTTPConnection] | None = None,
    ):
        if not base_url:
            raise ConfigError("http backend requires backend.base_url")
        api_key = os.environ.get(api_key_env, "")
        if not api_key:
            raise ConfigError(f"credential environment variable not set: {api_key_env}")
        self.identity = "http:" + base_url.rstrip("/")  # names this backend in the cache
        url = base_url.rstrip("/") + "/chat/completions"
        self._target, proxy_headers, default_connect = _route(url, timeout)
        self._headers = {
            "Authorization": f"Bearer {api_key}",
            "Content-Type": "application/json",
            "User-Agent": f"mindpipe/{__version__}",
            **proxy_headers,
        }
        self._connect = connect or default_connect
        self._idle: list[http.client.HTTPConnection] = []
        self._max_attempts = max_attempts
        self._limiter = limiter
        self._sleep = sleeper
        self._rng = rng or random.Random()

    def _backoff(self, attempt: int) -> float:
        delay = min(_BACKOFF_CAP, _BACKOFF_BASE * (2**attempt))
        return delay * self._rng.uniform(0.5, 1.5)

    def _retry_delay(self, status: int, retry_after: str, attempt: int) -> float:
        """Retry-After's delta-seconds on 429/503, capped; else the jittered backoff."""
        value = retry_after.strip()
        if status in RETRY_AFTER_STATUSES and value.isascii() and value.isdigit():
            return min(_BACKOFF_CAP, float(value))
        return self._backoff(attempt)

    def _post(self, body: bytes) -> tuple[int, str, bytes]:
        """POST body on a pooled connection: (status, Retry-After, response body)."""
        try:
            conn = self._idle.pop()
        except IndexError:
            conn = self._connect()
        try:
            answer = self._send(conn, body)
            if answer is None:  # conn was stale and is closed: the re-send reconnects it
                answer = self._send(conn, body)
            return answer
        except BaseException:
            conn.close()  # a failed exchange leaves the connection in an unknown state
            raise
        finally:
            self._idle.append(conn)

    def _send(
        self, conn: http.client.HTTPConnection, body: bytes
    ) -> tuple[int, str, bytes] | None:
        """One paced exchange on conn; None if conn was kept alive but closed by the server.

        A connection whose socket is closed opens a new one on its next request.
        """
        kept_alive = conn.sock is not None
        with self._limiter or contextlib.nullcontext():
            try:
                conn.request("POST", self._target, body, self._headers)
                response = conn.getresponse()
            except _STALE:
                if not kept_alive:
                    raise
                conn.close()
                return None
            return response.status, response.getheader("Retry-After", ""), response.read()

    def close(self) -> None:
        """Close the pooled connections."""
        idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def complete(self, request: CompletionRequest) -> CompletionResult:
        """Send one request; retries 429/5xx/timeouts after Retry-After or a jittered backoff."""
        payload = dict(vars(request))  # the fields in declaration order
        if request.stop is None:
            del payload["stop"]
        body = json.dumps(payload).encode("utf-8")

        last_failure = ""
        for attempt in range(self._max_attempts):
            try:
                status, retry_after, answer = self._post(body)
            except (OSError, http.client.HTTPException) as exc:
                last_failure = f"transport: {exc}"
                logger.warning("attempt %d failed (%s)", attempt + 1, last_failure)
                if attempt + 1 < self._max_attempts:
                    self._sleep(self._backoff(attempt))
                continue

            if status == 200:
                return _parse_completion(answer)
            if status in RETRYABLE_STATUSES:
                last_failure = f"http {status}"
                logger.warning("attempt %d failed (%s)", attempt + 1, last_failure)
                if attempt + 1 < self._max_attempts:
                    self._sleep(self._retry_delay(status, retry_after, attempt))
                continue
            raise BackendError(f"backend returned non-retryable status {status}", status=status)
        raise BackendExhaustedError(
            f"gave up after {self._max_attempts} attempts (last: {last_failure})"
        )


def _route(
    url: str, timeout: float
) -> tuple[str, dict[str, str], Callable[[], http.client.HTTPConnection]]:
    """The request target for url, the headers its requests add, and a
    factory of connections that reach it.

    Through an ``HTTP(S)_PROXY`` that ``NO_PROXY`` does not bypass, an
    https URL is tunnelled with CONNECT and an http URL is requested in
    absolute form, with the proxy's credentials as a request header.
    """
    parts = urllib.parse.urlsplit(url)
    try:
        host, port = parts.hostname, parts.port
    except ValueError as exc:
        raise ConfigError(f"backend.base_url has a bad port: {exc}") from None
    if parts.scheme not in ("http", "https") or not host:
        raise ConfigError("backend.base_url must be an http:// or https:// URL")
    https = parts.scheme == "https"
    context = ssl.create_default_context() if https else None
    proxy = urllib.request.getproxies().get(parts.scheme)
    via = None
    proxy_headers: dict[str, str] = {}
    if proxy and not urllib.request.proxy_bypass(parts.netloc):
        via = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
        if via.scheme != "http" or not via.hostname:
            raise ConfigError(f"{parts.scheme}_proxy must be an http:// proxy URL")
        if via.username:
            credential = urllib.parse.unquote(f"{via.username}:{via.password or ''}")
            token = base64.b64encode(credential.encode("utf-8")).decode("ascii")
            proxy_headers["Proxy-Authorization"] = f"Basic {token}"
    endpoint = (via.hostname, via.port) if via else (host, port)

    def connect() -> http.client.HTTPConnection:
        if not https:
            return http.client.HTTPConnection(*endpoint, timeout=timeout)
        conn = http.client.HTTPSConnection(*endpoint, timeout=timeout, context=context)
        if via:
            conn.set_tunnel(host, port, headers=proxy_headers)
        return conn

    if via and not https:
        return url, proxy_headers, connect
    return parts.path + (f"?{parts.query}" if parts.query else ""), {}, connect


def _token_count(usage, key: str) -> int:
    """A token count of ``usage``; 0 when it or ``usage`` is malformed, as nothing reads it."""
    try:
        return int(usage.get(key) or 0)
    except (AttributeError, TypeError, ValueError, OverflowError):
        return 0


def _parse_completion(body: bytes) -> CompletionResult:
    """The completion of a 200 response. Content that is not text, such as a blocked
    completion's null, or text with a lone surrogate, which no row or cache entry can
    hold, is an error; an unreadable token count reads as 0."""
    try:
        parsed = json.loads(body)
        text = parsed["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
        raise BackendError(f"malformed completion response: {exc}", status=200) from exc
    if not isinstance(text, str):
        raise BackendError(f"completion content is {type(text).__name__}, not text", status=200)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise BackendError("completion content is not UTF-8 text", status=200) from None
    usage = parsed.get("usage")
    return CompletionResult(
        text=text,
        prompt_tokens=_token_count(usage, "prompt_tokens"),
        completion_tokens=_token_count(usage, "completion_tokens"),
    )
