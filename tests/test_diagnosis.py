from __future__ import annotations

import hashlib

from conftest import ScriptedSession
from mindpipe.diagnosis import (
    TEMPORAL_ABSENT_LINE,
    diagnose,
    serialize_dataframe,
    word_count,
)
from mindpipe.llm.session import LlmSession


def _nt() -> dict:
    return dict(
        overall_severity="Moderate to Severe",
        triggers=["financial insecurity", "social isolation"],
        disorders=["Major Depressive Disorder"],
        language_tone="confessional",
        recurring_themes="self-doubt",
        overall_status="chronic and worsening",
    )


def _t() -> dict:
    return dict(
        chronological_events="two December reports",
        duration="at least 5 years",
        frequency="gap of 14 days",
        recurrence="recurring low mood",
        explicit_times="past half decade; 5 years",
    )


def test_dataframe_contains_both_blocks():
    text = serialize_dataframe(_nt(), _t())
    assert text.startswith("NON-TEMPORAL SUMMARY\n")
    assert "Overall severity: Moderate to Severe" in text
    assert "Triggers: financial insecurity; social isolation" in text
    assert "TEMPORAL SUMMARY" in text
    assert "Duration: at least 5 years" in text


def test_absent_temporal_uses_literal_none_line():
    text = serialize_dataframe(_nt(), None)
    assert TEMPORAL_ABSENT_LINE == "Temporal summary: none"
    assert text.endswith(TEMPORAL_ABSENT_LINE)
    assert "TEMPORAL SUMMARY" not in text.splitlines()


def test_word_count_is_whitespace_tokens():
    assert word_count("one  two\nthree") == 3
    assert word_count("") == 0


def _summary(temporal: dict | None) -> dict:
    """An ok summaries row of alice."""
    return {"author": "alice", "status": "ok", "non_temporal": _nt(), "temporal": temporal}


def test_diagnose_counts_words_and_budget():
    session = ScriptedSession({"diagnosis": [" ".join(["w"] * 440)]})
    row = diagnose(_summary(_t()), session)
    assert row["status"] == "ok" and "failure" not in row
    assert list(row) == ["author", "status", "text", "word_count", "over_budget"]
    assert row["word_count"] == 440
    assert row["over_budget"] is False

    session = ScriptedSession({"diagnosis": [" ".join(["w"] * 441)]})
    row = diagnose(_summary(_t()), session)
    assert row["over_budget"] is True
    assert row["text"] == " ".join(["w"] * 441)  # over-budget text kept verbatim


def test_diagnose_binds_dataframe_placeholder():
    session = ScriptedSession({"diagnosis": ["short answer"]})
    diagnose(_summary(None), session)
    _, bindings, _ = session.calls[0]
    assert bindings["Dataframe"] == serialize_dataframe(_nt(), None)
    assert "Temporal summary: none" in bindings["Dataframe"]


def test_rendered_system_prompt_is_stable(templates, mock_session, monkeypatch):
    # The shipped diagnosis system prompt is content-addressed; any edit must fail here.
    digest = hashlib.sha256(templates["diagnosis"].system.encode("utf-8")).hexdigest()
    assert digest == "c9c128b7baddf52ec9a76747ccf8bd0155a3a61109fedbe624c59dc2221c66d1"
    assert "limited to 400 words" in templates["diagnosis"].system

    session: LlmSession = mock_session
    sent = []
    complete = session.backend.complete

    def capture(request):
        sent.append(request)
        return complete(request)

    monkeypatch.setattr(session.backend, "complete", capture)
    session.ask("diagnosis", {"Dataframe": serialize_dataframe(_nt(), _t())}, tags={})
    [request] = sent
    assert request.messages[0]["role"] == "system"
    assert request.messages[0]["content"] == templates["diagnosis"].system
    assert session.records[0]["request_digest"] == request.cache_key()
