"""A fixture run on a backend that fails on a fixed subset of requests.

The backend is the mock rule table, except that a request fails when the
first byte of its cache key is odd, and every format-reminder re-ask
fails. Which exception is raised (non-retryable or exhausted retries)
also follows the key, so both kinds occur. The run must complete, record
each failed call as ``backend failure: ...``, keep the safety quarantine,
and account for every entry.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from conftest import COHORT_SIZE, read_backend_log, read_jsonl
from mindpipe import pipeline
from mindpipe.config import load_config
from mindpipe.errors import BackendError, BackendExhaustedError
from mindpipe.filtering import lexicon_match, load_lexicon
from mindpipe.llm.completion import CompletionRequest
from mindpipe.llm.mock_backend import MockBackend
from mindpipe.llm.session import REASK_REMINDER
from mindpipe.llm.templates import render

NON_RETRYABLE = "injected non-retryable failure"
EXHAUSTED = "injected exhaustion"
BACKEND_FAILURES = {f"backend failure: {NON_RETRYABLE}", f"backend failure: {EXHAUSTED}"}

GENERATIVE = {
    "diagnosis", "recommendation", "relation",
    "summary_non_temporal", "summary_temporal",
    "extract_features", "extract_temporal",
}

STAGE_FILES = [
    "filtered.jsonl",
    "features.jsonl",
    "summaries.jsonl",
    "diagnosis.jsonl",
    "recommendations.jsonl",
    "relations.jsonl",
]


def _reask(request: CompletionRequest) -> bool:
    return request.messages[-1]["content"].endswith(REASK_REMINDER)


def _failing_complete(failed: set[str], reasks_failed: list[str]):
    complete = MockBackend.complete

    def flaky(self, request: CompletionRequest):
        key = request.cache_key()
        byte = int(key[:2], 16)
        if byte % 2 or _reask(request):
            failed.add(key)
            if _reask(request):
                reasks_failed.append(key)
            if byte % 4 < 2:
                raise BackendError(NON_RETRYABLE, status=400)
            raise BackendExhaustedError(EXHAUSTED)
        return complete(self, request)

    return flaky


def _config(concurrency: int = 1):
    return load_config(
        overrides={"pipeline.cohort_size": COHORT_SIZE, "limits.concurrency": concurrency}
    )


@pytest.fixture(scope="module")
def degraded(tmp_path_factory, corpus_path):
    """(run dir, manifest, failed request keys, failed re-ask keys) of a serial run."""
    failed: set[str] = set()
    reasks_failed: list[str] = []
    run_dir = tmp_path_factory.mktemp("degraded")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MockBackend, "complete", _failing_complete(failed, reasks_failed))
        manifest = pipeline.run_all(_config(), [corpus_path], run_dir)
    return run_dir, manifest, failed, reasks_failed


def test_degraded_run_completes(degraded):
    _run_dir, manifest, failed, reasks_failed = degraded
    statuses = {name: manifest["stages"][name]["status"] for name in pipeline.STAGE_NAMES}
    assert set(statuses.values()) == {"ok"}, statuses
    assert failed
    assert reasks_failed, "no re-ask reached the failing backend"


def test_failed_calls_are_recorded_as_backend_failures(degraded):
    run_dir, _manifest, _failed, _reasks = degraded
    failures: Counter[str] = Counter()
    for name in ("features.jsonl", "summaries.jsonl", "diagnosis.jsonl"):
        for row in read_jsonl(run_dir / name):
            if row.get("failure") is not None:
                assert row["failure"] in BACKEND_FAILURES, (name, row)
                failures[name] += 1
    assert set(failures) == {"features.jsonl", "summaries.jsonl", "diagnosis.jsonl"}
    for row in read_jsonl(run_dir / "recommendations.jsonl"):
        if row["status"] == "recommendation_failure":
            assert row["failure"] in BACKEND_FAILURES, row
    # the fixture's unparseable entry is re-asked, and the re-ask fails
    features = read_jsonl(run_dir / "features.jsonl")
    gorse = next(r for r in features if r["entry_id"] == "p_gorse_03")
    assert gorse["status"] == "parse_failure"
    assert gorse["failure"] in BACKEND_FAILURES


def _relation_keys(templates, model: str, post: str, reply: str) -> set[str]:
    messages = render(templates["relation"], {"post": post, "reply": reply})
    reminded = {"role": "user", "content": messages[-1]["content"] + REASK_REMINDER}
    reask = [*messages[:-1], reminded]
    return {CompletionRequest(model=model, messages=m).cache_key() for m in (messages, reask)}


def test_failed_relation_calls_are_other_backend_error(degraded, templates):
    run_dir, _manifest, failed, _reasks = degraded
    model = _config().backend.model
    filtered = read_jsonl(run_dir / "filtered.jsonl")
    text = {row["entry"]["id"]: row["clean_text"] for row in filtered}
    degraded_pairs = 0
    for row in read_jsonl(run_dir / "relations.jsonl"):
        if row["relation"] == "unprocessed_safety":
            continue
        keys = _relation_keys(templates, model, text[row["post_id"]], text[row["comment_id"]])
        if keys & failed:
            assert (row["relation"], row["detail"]) == ("other", "backend_error"), row
            degraded_pairs += 1
        else:
            assert row["detail"] != "backend_error", row
    assert degraded_pairs > 0


def test_degraded_run_keeps_the_safety_quarantine(degraded):
    run_dir, _manifest, _failed, _reasks = degraded
    lexicon = load_lexicon(_config().lexicon_path())
    lexicon_flagged = 0
    for row in read_jsonl(run_dir / "filtered.jsonl"):
        if row["removed"] is not None:
            continue
        term = lexicon_match(row["clean_text"], lexicon)
        if term is not None:
            assert row["disposition"] == "flagged", row["entry"]["id"]
            assert row["safety"] == {"flagged": True, "trigger": term}
            lexicon_flagged += 1
    assert lexicon_flagged > 0

    recommendations = read_jsonl(run_dir / "recommendations.jsonl")
    escalated = {r["author"] for r in recommendations if r["status"] == "escalation"}
    assert escalated
    for record in read_backend_log(run_dir):
        if record["template"] not in GENERATIVE:
            continue
        tags = record["tags"]
        involved = {tags.get("author"), tags.get("post_author"), tags.get("comment_author")}
        assert not (involved & escalated), record


def test_degraded_run_accounts_for_every_entry(degraded):
    run_dir, _manifest, _failed, _reasks = degraded
    report = json.loads((run_dir / "reports" / "run_report.json").read_text(encoding="utf-8"))
    assert report["conservation_violations"] == []


def test_degraded_run_at_concurrency_4_matches_serial(degraded, corpus_path, tmp_path):
    run_dir, _manifest, _failed, _reasks = degraded
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MockBackend, "complete", _failing_complete(set(), []))
        pipeline.run_all(_config(concurrency=4), [corpus_path], tmp_path / "parallel")
    reports = sorted(str(p.relative_to(run_dir)) for p in (run_dir / "reports").rglob("*.*"))
    assert reports
    for name in STAGE_FILES + reports:
        assert (tmp_path / "parallel" / name).read_bytes() == (run_dir / name).read_bytes(), name
