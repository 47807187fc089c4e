"""HTTP chat-completion client with retries, backoff, and rate limiting.

Speaks the OpenAI-style chat-completions wire shape: POST
``<base_url>/chat/completions`` with a messages array, reads
``choices[0].message.content``.
"""

from __future__ import annotations

import contextlib
import logging
import os
import random
import time
from typing import Callable

import requests

from ..errors import BackendError, BackendExhaustedError, ConfigError
from .completion import CompletionRequest, CompletionResult
from .ratelimit import RateLimiter

logger = logging.getLogger(__name__)

RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
RETRY_AFTER_STATUSES = frozenset({429, 503})
_BACKOFF_BASE = 0.5
_BACKOFF_CAP = 30.0


class HttpBackend:
    """Chat-completion client for one configured endpoint.

    The credential is read from the environment variable named in the
    config; it is never persisted anywhere.
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
        session: requests.Session | None = None,
    ):
        if not base_url:
            raise ConfigError("http backend requires backend.base_url")
        api_key = os.environ.get(api_key_env, "")
        if not api_key:
            raise ConfigError(f"credential environment variable not set: {api_key_env}")
        if max_attempts < 1:
            raise ConfigError("retry.max_attempts must be >= 1")
        self.identity = "http:" + base_url.rstrip("/")  # names this backend in the cache
        self._url = base_url.rstrip("/") + "/chat/completions"
        self._headers = {"Authorization": f"Bearer {api_key}"}
        self._max_attempts = max_attempts
        self._limiter = limiter
        self._timeout = timeout
        self._sleep = sleeper
        self._rng = rng or random.Random()
        self._session = session or requests.Session()

    def _backoff(self, attempt: int) -> float:
        delay = min(_BACKOFF_CAP, _BACKOFF_BASE * (2**attempt))
        return delay * self._rng.uniform(0.5, 1.5)

    def _retry_delay(self, response: requests.Response, attempt: int) -> float:
        """Retry-After's delta-seconds on 429/503, capped; else the jittered backoff."""
        value = response.headers.get("Retry-After", "").strip()
        if response.status_code in RETRY_AFTER_STATUSES and value.isascii() and value.isdigit():
            return min(_BACKOFF_CAP, float(value))
        return self._backoff(attempt)

    def _post_once(self, payload: dict) -> requests.Response:
        with self._limiter or contextlib.nullcontext():
            return self._session.post(
                self._url, json=payload, headers=self._headers, timeout=self._timeout
            )

    def close(self) -> None:
        """Close the pooled connections of the HTTP session."""
        self._session.close()

    def complete(self, request: CompletionRequest) -> CompletionResult:
        """Send one request; retries 429/5xx/timeouts after Retry-After or a jittered backoff."""
        payload = {
            "model": request.model,
            "messages": request.messages,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
            "top_p": request.top_p,
        }
        if request.stop is not None:
            payload["stop"] = request.stop

        last_failure = ""
        for attempt in range(self._max_attempts):
            try:
                response = self._post_once(payload)
            except (requests.Timeout, requests.ConnectionError) as exc:
                last_failure = f"transport: {exc}"
                logger.warning("attempt %d failed (%s)", attempt + 1, last_failure)
                if attempt + 1 < self._max_attempts:
                    self._sleep(self._backoff(attempt))
                continue

            if response.status_code == 200:
                return _parse_completion(response)
            if response.status_code in RETRYABLE_STATUSES:
                last_failure = f"http {response.status_code}"
                logger.warning("attempt %d failed (%s)", attempt + 1, last_failure)
                if attempt + 1 < self._max_attempts:
                    self._sleep(self._retry_delay(response, attempt))
                continue
            raise BackendError(
                f"backend returned non-retryable status {response.status_code}",
                status=response.status_code,
            )
        raise BackendExhaustedError(
            f"gave up after {self._max_attempts} attempts (last: {last_failure})"
        )


def _parse_completion(response: requests.Response) -> CompletionResult:
    try:
        body = response.json()
        text = body["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise BackendError(f"malformed completion response: {exc}", status=200) from exc
    usage = body.get("usage") or {}
    return CompletionResult(
        text=text,
        prompt_tokens=int(usage.get("prompt_tokens", 0)),
        completion_tokens=int(usage.get("completion_tokens", 0)),
    )
