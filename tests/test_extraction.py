from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from conftest import ScriptedSession
from mindpipe.errors import ResponseFormatError
from mindpipe.extraction import (
    NO_TIMELINE,
    SEVERITY_EXTREME,
    extract_non_temporal,
    extract_temporal,
    normalize_severity,
    parse_feature_response,
    parse_labeled_sections,
    parse_timeline_response,
)

GOOD_RESPONSE = (
    "SEVERITY: moderate\n"
    "CAUSES: financial insecurity; job dissatisfaction\n"
    "TONE: anxious; frustrated\n"
    "DISORDERS: Generalized Anxiety Disorder"
)


def _clean(text="i feel anxious", entry_id="e1"):
    entry = {
        "id": entry_id, "author": "alice", "kind": "post",
        "created_utc": 1576281600, "parent_id": None,
    }
    return {"entry": entry, "clean_text": text, "removed": None}


def test_parse_feature_response_golden():
    features = parse_feature_response(GOOD_RESPONSE)
    assert features["severity"] == "moderate"
    assert features["causes"] == ["financial insecurity", "job dissatisfaction"]
    assert features["tone"] == ["anxious", "frustrated"]
    assert features["disorders"] == ["Generalized Anxiety Disorder"]


def test_parse_dedupes_trims_and_drops_blanks():
    response = (
        "SEVERITY: Mild.\n"
        "CAUSES: stress ;  stress; STRESS ; ; none\n"
        "TONE: flat\n"
        "DISORDERS: none"
    )
    features = parse_feature_response(response)
    assert features["severity"] == "mild"
    assert features["causes"] == ["stress"]
    assert features["disorders"] == []


def test_missing_section_raises():
    with pytest.raises(ResponseFormatError, match="SEVERITY"):
        parse_feature_response("CAUSES: x\nTONE: y\nDISORDERS: z")


def test_duplicate_section_raises():
    with pytest.raises(ResponseFormatError, match="duplicate"):
        parse_labeled_sections("TIMELINE: a\nTIMELINE: b", ("TIMELINE",))


def test_severity_normalization():
    assert normalize_severity(" Severe. ") == "severe"
    assert normalize_severity("MODERATE") == "moderate"
    with pytest.raises(ResponseFormatError):
        normalize_severity("catastrophic")
    # the quarantine band is never backend-assignable
    with pytest.raises(ResponseFormatError):
        normalize_severity("extreme")


def test_timeline_parse_value_and_sentinel():
    assert parse_timeline_response("TIMELINE: past half decade") == "past half decade"
    assert parse_timeline_response("timeline: No Timeline") is NO_TIMELINE
    with pytest.raises(ResponseFormatError):
        parse_timeline_response("no header at all")
    with pytest.raises(ResponseFormatError):
        parse_timeline_response("TIMELINE:")


def test_flagged_entry_skips_backend_entirely():
    session = ScriptedSession({})  # any ask would raise KeyError
    features, failure = extract_non_temporal(_clean(), True, session)
    assert failure is None
    assert features["severity"] == SEVERITY_EXTREME
    assert features["causes"] == [] and features["tone"] == [] and features["disorders"] == []
    assert session.calls == []


def test_extract_non_temporal_parses(templates):
    session = ScriptedSession({"extract_features": [GOOD_RESPONSE]})
    features, failure = extract_non_temporal(_clean(), False, session)
    assert failure is None
    assert features["severity"] == "moderate"


def test_extract_non_temporal_reask_then_failure():
    session = ScriptedSession({"extract_features": ["garbage", "still garbage"]})
    features, failure = extract_non_temporal(_clean(), False, session)
    assert features is None
    assert "SEVERITY" in failure
    assert [c[2] for c in session.calls] == [False, True]


def test_extract_temporal_finds_reference():
    session = ScriptedSession({"extract_temporal": ["TIMELINE: past half decade"]})
    clean = _clean("for the past half decade")
    timeline, degraded = extract_temporal(clean, session)
    assert timeline == "past half decade"
    assert clean["entry"]["created_utc"] == 1576281600
    assert degraded is False


def test_extract_temporal_sentinel():
    session = ScriptedSession({"extract_temporal": ["TIMELINE: No Timeline"]})
    timeline, degraded = extract_temporal(_clean(), session)
    assert timeline is NO_TIMELINE
    assert degraded is False


def test_extract_temporal_degrades_on_garbage():
    session = ScriptedSession({"extract_temporal": ["???", "???"]})
    clean = _clean()
    timeline, degraded = extract_temporal(clean, session)
    assert timeline is NO_TIMELINE
    assert clean["entry"]["created_utc"] == 1576281600
    assert degraded is True


@given(
    st.lists(st.text(alphabet=st.characters(blacklist_characters=";\n"), max_size=12), max_size=8)
)
def test_parsed_lists_never_hold_duplicates_or_blanks(items):
    response = (
        "SEVERITY: mild\n"
        f"CAUSES: {'; '.join(items)}\n"
        "TONE: even\n"
        "DISORDERS: none"
    )
    features = parse_feature_response(response)
    lowered = [c.lower() for c in features["causes"]]
    assert len(set(lowered)) == len(lowered)
    assert all(c.strip() == c and c for c in features["causes"])
