"""A fixture run on a backend that fails on a fixed subset of requests.

The backend is ``conftest.failing_complete``: the mock rule table, except
that a request fails when the first byte of its cache key is odd, and every
format-reminder re-ask fails. The run must complete, record each failed
call as ``backend failure: ...``, keep the safety quarantine, and account
for every entry.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections import Counter

from hypothesis import example, given, settings, strategies as st

from conftest import (
    EXHAUSTED,
    NON_RETRYABLE,
    degraded_config,
    generative_records,
    read_backend_log,
    read_jsonl,
    run_degraded,
    run_outputs,
)
from mindpipe import pipeline
from mindpipe.filtering import UNKNOWN_TRIGGER, lexicon_match, load_lexicon
from mindpipe.llm.completion import CompletionRequest
from mindpipe.llm.session import REASK_REMINDER
from mindpipe.llm.templates import render

BACKEND_FAILURES = {f"backend failure: {NON_RETRYABLE}", f"backend failure: {EXHAUSTED}"}

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


def _request_keys(templates, model: str, template: str, bindings: dict) -> set[str]:
    """The cache keys of a template's ask and of its format-reminder re-ask."""
    messages = render(templates[template], bindings)
    reminded = {"role": "user", "content": messages[-1]["content"] + REASK_REMINDER}
    reask = [*messages[:-1], reminded]
    return {CompletionRequest(model=model, messages=m).cache_key() for m in (messages, reask)}


def test_failed_relation_calls_are_other_backend_error(degraded, templates):
    run_dir, _manifest, failed, _reasks = degraded
    model = degraded_config().backend.model
    filtered = read_jsonl(run_dir / "filtered.jsonl")
    text = {row["entry"]["id"]: row["clean_text"] for row in filtered}
    degraded_pairs = 0
    for row in read_jsonl(run_dir / "relations.jsonl"):
        if row["relation"] == "unprocessed_safety":
            continue
        bindings = {"post": text[row["post_id"]], "reply": text[row["comment_id"]]}
        keys = _request_keys(templates, model, "relation", bindings)
        if keys & failed:
            assert (row["relation"], row["detail"]) == ("other", "backend_error"), row
            degraded_pairs += 1
        else:
            assert row["detail"] != "backend_error", row
    assert degraded_pairs > 0


def test_degraded_run_keeps_the_safety_quarantine(degraded):
    run_dir, _manifest, _failed, _reasks = degraded
    lexicon = load_lexicon(degraded_config().lexicon_path())
    lexicon_flagged = 0
    for row in read_jsonl(run_dir / "filtered.jsonl"):
        if row["removed"] is not None:
            continue
        term = lexicon_match(row["clean_text"], lexicon)
        if term is not None:
            assert row["disposition"] == "flagged", row["entry"]["id"]
            assert row["safety"] == term
            lexicon_flagged += 1
    assert lexicon_flagged > 0

    recommendations = read_jsonl(run_dir / "recommendations.jsonl")
    escalated = {r["author"] for r in recommendations if r["status"] == "escalation"}
    assert escalated
    assert generative_records(run_dir, escalated) == []


def test_d7_an_entry_without_a_safety_verdict_is_quarantined(degraded):
    run_dir, _manifest, _failed, _reasks = degraded
    rows = {row["entry"]["id"]: row for row in read_jsonl(run_dir / "filtered.jsonl")}
    # the healthy run flags p_larch_04 on the backend's verdict; here the call fails
    assert rows["p_larch_04"]["disposition"] == "flagged"
    assert rows["p_larch_04"]["safety"] == UNKNOWN_TRIGGER
    answered = {
        record["tags"]["entry_id"]
        for record in read_backend_log(run_dir)
        if record["template"] == "safety"
    }
    clear = {key for key, row in rows.items() if row["disposition"] not in ("removed", "flagged")}
    assert clear
    assert all(rows[key]["safety"] is None for key in clear)
    assert clear <= answered


def test_degraded_run_accounts_for_every_entry(degraded):
    run_dir, _manifest, _failed, _reasks = degraded
    report = json.loads((run_dir / "reports" / "run_report.json").read_text(encoding="utf-8"))
    assert report["conservation_violations"] == []


def test_degraded_run_at_concurrency_4_matches_serial(degraded, tmp_path):
    run_dir, _manifest, _failed, _reasks = degraded
    run_degraded(tmp_path / "parallel", concurrency=4)
    serial = run_outputs(run_dir)
    assert any(name.startswith("reports/") for name in serial)
    assert run_outputs(tmp_path / "parallel") == serial


def test_a_healthy_rerun_heals_a_degraded_run(fixture_run, corpus_path, tmp_path, caplog):
    run_dir = tmp_path / "run"
    with caplog.at_level(logging.WARNING, logger="mindpipe.llm.session"):
        degraded_manifest, _failed, _reasks = run_degraded(run_dir)
    warnings = [r for r in caplog.records if r.name == "mindpipe.llm.session"]
    recorded = [r.get("failed_calls", 0) for r in degraded_manifest["stages"].values()]
    assert sum(recorded) == len(warnings) > 0

    # failed calls were not cached, so the same config on a healthy backend answers them
    pipeline.run_all(degraded_config(), [corpus_path], run_dir)
    assert run_outputs(run_dir) == run_outputs(fixture_run)


def _salted_failures(salt: int, rate: float):
    """A drawn failing-key predicate: a key fails when its salted hash falls under ``rate``."""

    def fails(key: str) -> bool:
        digest = hashlib.sha256(f"{salt}:{key}".encode()).digest()
        return digest[0] < rate * 256

    return fails


@settings(max_examples=30, deadline=None)
@example(salt=0, rate=0.1)  # D7: failed safety calls left their entries unflagged
@given(salt=st.integers(0, 2**32), rate=st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]))
def test_the_quarantine_holds_whichever_calls_fail(salt, rate, templates, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("drawn")
    _manifest, failed, _reasks = run_degraded(run_dir, fails=_salted_failures(salt, rate))
    model = degraded_config().backend.model

    recommendations = read_jsonl(run_dir / "recommendations.jsonl")
    escalated = {r["author"] for r in recommendations if r["status"] == "escalation"}
    assert generative_records(run_dir, escalated) == []
    # re-asks always fail here, so an entry has a parsed safety answer iff none of its
    # safety requests failed
    for row in read_jsonl(run_dir / "filtered.jsonl"):
        if row["removed"] is None:
            keys = _request_keys(templates, model, "safety", {"text": row["clean_text"]})
            if keys & failed:
                assert row["disposition"] == "flagged", row["entry"]["id"]
    report = json.loads((run_dir / "reports" / "run_report.json").read_text(encoding="utf-8"))
    assert report["conservation_violations"] == []
