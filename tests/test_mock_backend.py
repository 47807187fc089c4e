from __future__ import annotations

import threading
import time

import pytest

from mindpipe.config import packaged_path
from mindpipe.errors import BackendError, BackendExhaustedError, ResponseFormatError
from mindpipe.llm.cache import ResponseCache
from mindpipe.llm.completion import CompletionRequest
from mindpipe.llm.mock_backend import MockBackend
from mindpipe.llm.session import REASK_REMINDER, LlmSession
from mindpipe.llm.templates import render


@pytest.fixture()
def backend() -> MockBackend:
    return MockBackend(packaged_path("data/mock_rules.json"))


def _request(templates, name, bindings):
    return CompletionRequest(model="m", messages=render(templates[name], bindings))


def test_relevance_keyword_yes(backend, templates):
    result = backend.complete(_request(templates, "relevance", {"text": "i feel anxious"}))
    assert result.text == "yes"


def test_relevance_default_no(backend, templates):
    result = backend.complete(_request(templates, "relevance", {"text": "selling a couch"}))
    assert result.text == "no"


def test_rule_order_first_match_wins(backend, templates):
    # zzzmaybe precedes the keyword rules, so it hijacks an otherwise-relevant text
    result = backend.complete(
        _request(templates, "relevance", {"text": "zzzmaybe but also anxious"})
    )
    assert result.text == "maybe"


def test_unknown_prompt_shape_is_backend_error(backend):
    request = CompletionRequest(model="m", messages=[{"role": "user", "content": "???"}])
    with pytest.raises(BackendError, match="identify"):
        backend.complete(request)


def test_deterministic_and_counts_calls(backend, templates):
    request = _request(templates, "extract_features", {"text": "feeling hopeless today"})
    first = backend.complete(request)
    second = backend.complete(request)
    assert first.text == second.text
    assert backend.calls == 2
    assert first.completion_tokens == len(first.text.split())
    assert first.prompt_tokens > 0


def _hits_and_misses(records) -> tuple[int, int]:
    hits = sum(record.cache_hit for record in records)
    return hits, len(records) - hits


def test_session_logs_hits_and_misses(templates, tmp_path, monkeypatch):
    backend = MockBackend(packaged_path("data/mock_rules.json"))
    received = []
    complete = backend.complete

    def capture(request):
        received.append(request)
        return complete(request)

    monkeypatch.setattr(backend, "complete", capture)
    cache = ResponseCache(tmp_path / "cache", backend.identity)
    session = LlmSession(backend, templates, model="m", cache=cache)
    tags = {"stage": "filter", "entry_id": "e1", "author": "a"}
    first = session.ask("relevance", {"text": "i feel anxious"}, tags=tags)
    second = session.ask("relevance", {"text": "i feel anxious"}, tags=tags)
    assert first == second == "yes"
    assert backend.calls == 1
    assert _hits_and_misses(session.records) == (1, 1)
    assert [r.cache_hit for r in session.records] == [False, True]
    assert session.records[0].tags["entry_id"] == "e1"
    (request,) = received
    assert request.temperature == 0.0
    assert request.max_tokens == 1000
    assert [r.request_digest for r in session.records] == [request.cache_key()] * 2


def test_take_records_empties_the_log_and_restarts_seq(templates):
    session = LlmSession(MockBackend(packaged_path("data/mock_rules.json")), templates, model="m")
    session.ask("relevance", {"text": "i feel anxious"}, tags={})
    session.ask("relevance", {"text": "i feel calm"}, tags={})
    assert [r.seq for r in session.take_records()] == [1, 2]
    assert session.records == []
    session.ask("relevance", {"text": "i feel anxious"}, tags={})
    assert [r.seq for r in session.take_records()] == [1]


def test_session_reask_appends_reminder(templates):
    backend = MockBackend(packaged_path("data/mock_rules.json"))
    session = LlmSession(backend, templates, model="m")

    def parse(text):
        raise ResponseFormatError("always fails")

    value, failure = session.ask_parsed(
        "relevance", {"text": "anxious"}, parse, tags={"stage": "t"}
    )
    assert value is None
    assert failure == "always fails"
    assert [r.reask for r in session.records] == [False, True]
    request = _request(templates, "relevance", {"text": "anxious"})
    reminded = [*request.messages[:-1], dict(request.messages[-1])]
    reminded[-1]["content"] += REASK_REMINDER
    reask = CompletionRequest(model="m", messages=reminded)
    assert reask.messages[-1]["content"].endswith(REASK_REMINDER)
    assert session.records[1].request_digest == reask.cache_key()


def test_session_reask_distinct_cache_key(templates, tmp_path):
    backend = MockBackend(packaged_path("data/mock_rules.json"))
    cache = ResponseCache(tmp_path / "cache", backend.identity)
    session = LlmSession(backend, templates, model="m", cache=cache)
    session.ask("relevance", {"text": "anxious"}, tags={})
    session.ask("relevance", {"text": "anxious"}, tags={}, reask=True)
    assert backend.calls == 2  # reminder suffix changes the prompt, so no hit


class _BlockingBackend:
    """Holds every call until released, then answers or fails."""

    def __init__(self, fail: bool):
        self.fail = fail
        self.calls = 0
        self.entered = threading.Event()
        self.release = threading.Event()

    def complete(self, request):
        self.calls += 1
        self.entered.set()
        assert self.release.wait(timeout=30)
        if self.fail:
            raise BackendError("backend down")
        return MockBackend(packaged_path("data/mock_rules.json")).complete(request)


@pytest.mark.parametrize("fail", [False, True], ids=["answer", "failure"])
def test_identical_requests_in_flight_reach_backend_once(templates, tmp_path, fail):
    backend = _BlockingBackend(fail)
    cache = ResponseCache(tmp_path / "cache", "blocking")
    session = LlmSession(backend, templates, model="m", cache=cache)
    outcomes: list[object] = []

    def ask() -> None:
        try:
            outcomes.append(session.ask("relevance", {"text": "i feel anxious"}, tags={}))
        except BackendError as exc:
            outcomes.append(exc)

    first = threading.Thread(target=ask)
    first.start()
    assert backend.entered.wait(timeout=30)
    second = threading.Thread(target=ask)
    second.start()
    time.sleep(0.3)  # the second ask reaches the in-flight request and waits on it
    backend.release.set()
    for thread in (first, second):
        thread.join(timeout=30)
    assert not first.is_alive() and not second.is_alive()
    assert backend.calls == 1
    if fail:
        assert [str(outcome) for outcome in outcomes] == ["backend down"] * 2
        assert session.records == []
        request = _request(templates, "relevance", {"text": "i feel anxious"})
        assert cache.get(request.cache_key()) is None
    else:
        assert outcomes == ["yes", "yes"]
        assert _hits_and_misses(session.records) == (1, 1)
    cache.close()


class _FailingOnBackend:
    """The mock rule table, except that the call numbered ``fail_on`` raises ``error``."""

    def __init__(self, fail_on: int, error: Exception):
        self.mock = MockBackend(packaged_path("data/mock_rules.json"))
        self.fail_on = fail_on
        self.error = error
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        if self.calls == self.fail_on:
            raise self.error
        return self.mock.complete(request)


@pytest.mark.parametrize(
    "error",
    [BackendError("status 400", status=400), BackendExhaustedError("gave up after 4 attempts")],
    ids=["non_retryable", "exhausted"],
)
@pytest.mark.parametrize("fail_on", [1, 2], ids=["first_ask", "reask"])
def test_ask_parsed_turns_a_backend_error_into_a_failure(templates, tmp_path, fail_on, error):
    backend = _FailingOnBackend(fail_on, error)
    cache = ResponseCache(tmp_path / "cache", "failing")
    session = LlmSession(backend, templates, model="m", cache=cache)

    def parse(text):
        raise ResponseFormatError("always fails")  # so the first answer is re-asked

    value, failure = session.ask_parsed(
        "relevance", {"text": "i feel anxious"}, parse, tags={"stage": "t"}
    )
    assert (value, failure) == (None, f"backend failure: {error}")
    assert backend.calls == fail_on
    # only the answered ask is logged and cached; the failed one is neither
    assert [r.reask for r in session.records] == [False] * (fail_on - 1)
    assert _hits_and_misses(session.records) == (0, fail_on - 1)
    request = _request(templates, "relevance", {"text": "i feel anxious"})
    reminded = [*request.messages[:-1], dict(request.messages[-1])]
    reminded[-1]["content"] += REASK_REMINDER
    reask = CompletionRequest(model="m", messages=reminded)
    cached = [cache.get(r.cache_key()) is not None for r in (request, reask)]
    assert cached == [fail_on == 2, False]
    cache.close()
