"""Backend session: template rendering, caching, call logging, one-shot re-ask.

``ask_parsed`` is the one place where a backend error becomes the failure
of a call: the stage records it as ``backend failure: <error>``, exactly
as it records a response that stayed unparseable after the re-ask.
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable

from ..errors import BackendError, BackendExhaustedError, ResponseFormatError, TemplateError
from .cache import ResponseCache
from .completion import CompletionRequest
from .templates import PromptTemplate, render

logger = logging.getLogger(__name__)

REASK_REMINDER = "\n\nReminder: respond exactly in the required output format."

# Acceptance criterion 2 audits the rendered prompts of these templates, so
# their records keep ``messages``; every other record keeps only the request
# digest, because the prompt holds the user's own post text.
LOGGED_PROMPT_TEMPLATES = frozenset({"diagnosis", "recommendation"})


@dataclass
class CallRecord:
    """One completion request as issued by the pipeline (hit or miss).

    ``request_digest`` is the request's ``cache_key()``; ``messages`` is None
    outside ``LOGGED_PROMPT_TEMPLATES``. Every request is sent with the
    session's ``params``, so no record repeats them.
    """

    seq: int
    template: str
    tags: dict[str, str]
    cache_hit: bool
    reask: bool
    request_digest: str
    messages: list[dict[str, str]] | None


class LlmSession:
    """Shared entry point for every completion the pipeline makes.

    Thread-safe; per-entry work may call concurrently. Each logical
    request is logged exactly once, whether served from cache or not.
    Identical requests in flight at once reach the backend only once.
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
        self.records: list[CallRecord] = []
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
        with self._lock:
            self.records.append(
                CallRecord(
                    seq=len(self.records) + 1,
                    template=template_name,
                    tags=dict(tags),
                    cache_hit=hit,
                    reask=reask,
                    request_digest=key,
                    messages=messages if template_name in LOGGED_PROMPT_TEMPLATES else None,
                )
            )
        return text

    def take_records(self) -> list[CallRecord]:
        """The calls logged since the last take; the next call's ``seq`` is 1 again."""
        with self._lock:
            records, self.records = self.records, []
        return records

    def close(self) -> None:
        """Close the cache and the backend's pooled connections, if it keeps any."""
        if self.cache is not None:
            self.cache.close()
        close_backend = getattr(self.backend, "close", None)
        if close_backend is not None:
            close_backend()

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
            except (BackendError, BackendExhaustedError) as exc:
                logger.warning("%s call failed (tags %s): %s", template_name, tags, exc)
                return None, f"backend failure: {exc}"
            try:
                return parser(response), None
            except ResponseFormatError as exc:
                failure = str(exc)
        return None, failure
