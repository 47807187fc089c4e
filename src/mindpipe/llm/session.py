"""Backend session: template rendering, caching, call logging, one-shot re-ask.

``ask_parsed`` is the one place where a backend error becomes the failure
of a call: the stage records it as ``backend failure: <error>``, exactly
as it records a response that stayed unparseable after the re-ask. The
session counts these failures, and the stage's manifest record keeps the
count, so that a rerun does not trust a stage that a healthy backend
would answer differently.
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import Future
from typing import Callable

from ..errors import BackendError, ResponseFormatError, TemplateError
from .cache import ResponseCache
from .completion import CompletionRequest
from .templates import PromptTemplate, render

logger = logging.getLogger(__name__)

REASK_REMINDER = "\n\nReminder: respond exactly in the required output format."


class LlmSession:
    """One backend stage's entry point for its completions.

    Each backend stage gets its own session, made with the templates as they
    are when the stage starts and the run's backend and cache, which the run
    opens and closes. Thread-safe; per-entry work may call concurrently. Each
    logical request is logged exactly once in ``records``, numbered from 1,
    whether served from cache or not. Identical requests in flight at once
    reach the backend only once.
    """

    def __init__(
        self,
        backend,
        templates: dict[str, PromptTemplate],
        model: str,
        cache: ResponseCache | None = None,
    ):
        self.backend = backend
        self.templates = templates
        # every request is built from these: the model and CompletionRequest's pinned defaults
        self.params = vars(CompletionRequest(model=model, messages=[]))
        del self.params["messages"]
        self.cache = cache
        self.records: list[dict] = []
        self.failed_calls = 0  # calls that failed on a backend error
        self._lock = threading.Lock()
        self._in_flight: dict[str, Future] = {}

    def ask(
        self,
        template_name: str,
        bindings: dict[str, str],
        *,
        tags: dict[str, str],
        reask: bool = False,
    ) -> str:
        """Render, consult the cache, call the backend on a miss, log the call."""
        try:
            template = self.templates[template_name]
        except KeyError:
            raise TemplateError(f"unknown template: {template_name}") from None
        messages = render(template, bindings)
        if reask:
            messages[-1] = {
                "role": "user",
                "content": messages[-1]["content"] + REASK_REMINDER,
            }
        request = CompletionRequest(messages=messages, **self.params)
        key = request.cache_key()
        text, hit = self._answer(key, request)
        # a record holds no prompt text, because every prompt carries user text, and
        # no request parameters, because every request is sent with ``params``;
        # ``request_digest`` joins it to the request sent and to its cache row
        with self._lock:
            self.records.append(
                {
                    "seq": len(self.records) + 1,
                    "template": template_name,
                    "tags": dict(tags),
                    "cache_hit": hit,
                    "reask": reask,
                    "request_digest": key,
                }
            )
        return text

    def _answer(self, key: str, request: CompletionRequest) -> tuple[str, bool]:
        """(text, hit) from the cache, from an identical request in flight, or the backend.

        A thread asking for a key that another thread is fetching waits for
        that answer and counts a hit, as it would in a serial run; a failure
        of the fetch reaches it too, and nothing is cached.
        """
        with self._lock:
            pending = self._in_flight.get(key)
            if pending is None:
                fetch = self._in_flight[key] = Future()
        if pending is not None:
            return pending.result(), True
        try:
            text = self.cache.get(key) if self.cache is not None else None
            hit = text is not None
            if not hit:
                text = self.backend.complete(request).text
                if self.cache is not None:
                    self.cache.put(key, text)
        except BaseException as exc:
            fetch.set_exception(exc)
            raise
        finally:
            with self._lock:
                del self._in_flight[key]
        fetch.set_result(text)
        return text, hit

    def ask_parsed(
        self,
        template_name: str,
        bindings: dict[str, str],
        parser: Callable[[str], object],
        *,
        tags: dict[str, str],
    ):
        """Ask once, re-ask once with a format reminder, then report failure.

        Returns (parsed value, None) on success or (None, failure detail).
        A backend error on either ask is a failure too, detailed as
        ``backend failure: <error>``; a failed ask is neither cached nor logged.
        """
        for reask in (False, True):
            try:
                response = self.ask(template_name, bindings, tags=tags, reask=reask)
            except BackendError as exc:
                with self._lock:
                    self.failed_calls += 1
                logger.warning("%s call failed (tags %s): %s", template_name, tags, exc)
                return None, f"backend failure: {exc}"
            try:
                return parser(response), None
            except ResponseFormatError as exc:
                failure = str(exc)
        return None, failure
