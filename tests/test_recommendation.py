from __future__ import annotations

import pytest

from conftest import ScriptedSession
from mindpipe.config import packaged_path
from mindpipe.errors import ResponseFormatError
from mindpipe.filtering import load_lexicon
from mindpipe.recommendation import (
    ESCALATION_NOTICE,
    canonical_therapy,
    load_aliases,
    parse_recommendations,
    recommend,
)

def _diagnosis(text: str) -> dict:
    """An ok diagnosis row of alice."""
    return {"author": "alice", "status": "ok", "text": text, "word_count": 3, "over_budget": False}


TWO_LISTS = """Therapy Recommendations:
1. Cognitive-Behavioral Therapy (CBT)
2. Interpersonal Therapy (IPT)
Behavior Changes:
1. Establish a consistent sleep schedule.
2. Take a daily walk.
"""


def test_parse_two_headed_lists():
    parsed = parse_recommendations(TWO_LISTS)
    assert parsed["therapies"] == [
        "Cognitive-Behavioral Therapy (CBT)",
        "Interpersonal Therapy (IPT)",
    ]
    assert parsed["behaviors"] == [
        "Establish a consistent sleep schedule.",
        "Take a daily walk.",
    ]


def test_parse_accepts_all_markers():
    text = "Therapies:\n1) CBT\n- DBT\n• IPT\nBehaviour changes:\n* sleep more\n2. walk daily\n"
    parsed = parse_recommendations(text)
    assert parsed["therapies"] == ["CBT", "DBT", "IPT"]
    assert parsed["behaviors"] == ["sleep more", "walk daily"]


def test_parse_inline_single_line_lists():
    text = (
        "Therapies: 1. Cognitive-Behavioral Therapy (CBT) 2. Interpersonal Therapy (IPT)\n"
        "Behavior changes: 1. Keep a sleep schedule 2. Walk daily 3. Eat regularly\n"
    )
    parsed = parse_recommendations(text)
    assert len(parsed["therapies"]) == 2
    assert parsed["therapies"][0] == "Cognitive-Behavioral Therapy (CBT)"
    assert len(parsed["behaviors"]) == 3


def test_parse_numbering_restart_splits_sections():
    text = "1. CBT\n2. IPT\n3. DBT\n1. Sleep on schedule\n2. Walk daily\n"
    parsed = parse_recommendations(text)
    assert parsed["therapies"] == ["CBT", "IPT", "DBT"]
    assert parsed["behaviors"] == ["Sleep on schedule", "Walk daily"]


def test_parse_requires_both_lists():
    with pytest.raises(ResponseFormatError, match="therapy"):
        parse_recommendations("no lists at all")
    with pytest.raises(ResponseFormatError, match="behavior"):
        parse_recommendations("Therapies:\n1. CBT\n")


def test_recommend_truncates_overlong_lists():
    response = (
        "Therapies:\n1. A Therapy\n2. B Therapy\n3. C Therapy\n4. D Therapy\n"
        "Behavior changes:\n1. one\n2. two\n3. three\n4. four\n5. five\n6. six\n"
    )
    session = ScriptedSession({"recommendation": [response]})
    rec = recommend(_diagnosis("diagnosis text"), session)
    assert rec["status"] == "ok"
    assert rec["therapies"] == ["A Therapy", "B Therapy", "C Therapy"]
    assert len(rec["behavior_changes"]) == 5
    assert any("truncated from 4 to 3" in w for w in rec["warnings"])
    assert any("truncated from 6 to 5" in w for w in rec["warnings"])
    assert list(rec) == ["author", "status", "therapies", "behavior_changes", "warnings"]
    assert [c[2] for c in session.calls] == [False]  # the one answer, with no re-ask


def test_recommend_failure_after_reask():
    session = ScriptedSession({"recommendation": ["nothing here", "still nothing"]})
    rec = recommend(_diagnosis("diagnosis text"), session)
    assert list(rec) == ["author", "status", "failure"]
    assert rec["status"] == "recommendation_failure"
    assert "therapy" in rec["failure"]
    assert [c[2] for c in session.calls] == [False, True]


def test_recommend_blocklist_strips_items():
    response = (
        "Therapies:\n1. CBT\n2. Medication review with a psychiatrist\n"
        "Behavior changes:\n1. Take your SSRI daily\n2. Walk daily\n"
    )
    session = ScriptedSession({"recommendation": [response]})
    blocklist = load_lexicon(packaged_path("data/medication_blocklist.txt"))
    rec = recommend(_diagnosis("diagnosis text"), session, blocklist)
    assert rec["status"] == "ok"
    assert rec["therapies"] == ["CBT"]
    assert rec["behavior_changes"] == ["Walk daily"]
    assert len([w for w in rec["warnings"] if "blocklist" in w]) == 2


def test_recommend_binds_diagnosis_text():
    session = ScriptedSession({"recommendation": [TWO_LISTS]})
    recommend(_diagnosis("the full diagnosis body"), session)
    _, bindings, _ = session.calls[0]
    assert bindings["Dataframe"] == "the full diagnosis body"


def test_canonical_therapy_aliases():
    aliases = load_aliases(packaged_path("data/therapy_aliases.json"))
    assert canonical_therapy("CBT", aliases) == "Cognitive-Behavioral Therapy"
    assert canonical_therapy("cognitive behavioural therapy", aliases) == (
        "Cognitive-Behavioral Therapy"
    )
    assert (
        canonical_therapy("Cognitive-Behavioral Therapy (CBT)", aliases)
        == "Cognitive-Behavioral Therapy"
    )
    assert canonical_therapy("Trauma-Focused Cognitive-Behavioral Therapy (TF-CBT)", aliases) == (
        "Trauma-Focused Cognitive-Behavioral Therapy"
    )
    # unknown names pass through with the acronym stripped
    assert canonical_therapy("Equine Therapy (ET).", aliases) == "Equine Therapy"


def test_safety_notice_record():
    # a safety-excluded user's summaries row gets the notice, with no backend call
    session = ScriptedSession({})  # any ask would raise KeyError
    record = recommend({"author": "kestrel_dun", "status": "safety_excluded"}, session)
    assert session.calls == []
    assert record == {
        "author": "kestrel_dun",
        "status": "escalation",
        "notice": ESCALATION_NOTICE,
    }
    assert record["notice"] == "content withheld; route to qualified practitioner"
