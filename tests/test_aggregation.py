from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from conftest import ScriptedSession
from mindpipe.aggregation import (
    NON_TEMPORAL_SECTIONS,
    TEMPORAL_SECTIONS,
    UserRecord,
    build_chronology,
    build_user_records,
    monthly_counts,
    serialize_chronology_block,
    serialize_features_block,
    summarize_user,
)

DEC_14 = 1576281600  # 2019-12-14T00:00:00Z
DEC_28 = 1577491200  # 2019-12-28T00:00:00Z

NT_RESPONSE = (
    "OVERALL SEVERITY: Moderate to Severe\n"
    "TRIGGERS: financial insecurity; social isolation\n"
    "DISORDERS: Major Depressive Disorder\n"
    "LANGUAGE AND TONE: confessional, introspective, and self-deprecating\n"
    "RECURRING THEMES: self-doubt\n"
    "OVERALL STATUS: chronic and worsening"
)
T_RESPONSE = (
    "CHRONOLOGICAL EVENTS: two December reports\n"
    "DURATION: at least 5 years\n"
    "FREQUENCY: gap of 14 days between the two posts\n"
    "RECURRENCE: recurring low mood\n"
    "EXPLICIT TIMES: past half decade; 5 years"
)


def _entry(entry_id, created, timeline=None, flagged=False, author_text="text", author="alice"):
    """An ok ``features.jsonl`` row plus its clean text."""
    return {
        "entry_id": entry_id,
        "author": author,
        "created_utc": created,
        "flagged": flagged,
        "status": "ok",
        "severity": "moderate",
        "causes": ["x"],
        "tone": ["y"],
        "disorders": [],
        "timeline": timeline,
        "temporal_degraded": False,
        "clean_text": author_text,
    }


def _record(entries, author="alice"):
    entries = sorted(entries, key=lambda e: (e["created_utc"], e["entry_id"]))
    return UserRecord(author=author, entries=entries)


def test_build_user_records_sorts_and_partitions():
    entries = [
        _entry("b", 300, author="u1"), _entry("a", 100, author="u1"),
        _entry("c", 100, author="u2"), _entry("d", 200, author="u2"),
    ]
    records = build_user_records(["u1", "u2", "u3", "u4"], entries, {"u4"})
    assert [r.author for r in records] == ["u1", "u2", "u4"]
    assert [e["entry_id"] for e in records[0].entries] == ["a", "b"]
    assert [e["entry_id"] for e in records[1].entries] == ["c", "d"]
    assert records[2].entries == []


def test_build_user_records_empty():
    assert build_user_records([], [], set()) == []


@given(st.permutations(list(range(8))))
def test_record_order_invariant_under_input_permutation(order):
    entries = [_entry(f"e{i}", created=100 + (i % 3) * 50, author="u") for i in range(8)]
    base = build_user_records(["u"], entries, set())
    shuffled = build_user_records(["u"], [entries[i] for i in order], set())
    assert [e["entry_id"] for e in base[0].entries] == [e["entry_id"] for e in shuffled[0].entries]


def test_chronology_keeps_exactly_timeline_entries_in_order():
    record = _record(
        [
            _entry("e1", DEC_14, timeline="past half decade"),
            _entry("e2", DEC_14 + 50, timeline=None),
            _entry("e3", DEC_28, timeline="5 years"),
            _entry("e4", DEC_28 + 50, timeline=None),
            _entry("e5", DEC_28 + 90, timeline=None),
        ]
    )
    chronology = build_chronology(record)
    assert len(chronology) == 2
    assert [e["date"] for e in chronology] == ["2019-12-14", "2019-12-28"]
    assert [e["timeline"] for e in chronology] == ["past half decade", "5 years"]


def test_chronology_empty_when_no_timelines():
    record = _record([_entry("e1", 100), _entry("e2", 200)])
    assert build_chronology(record) == []


def test_chronology_content_truncated_to_budget():
    record = _record([_entry("e1", DEC_14, timeline="5 years", author_text="x" * 900)])
    chronology = build_chronology(record)
    assert len(chronology[0]["content"]) == 500


def test_monthly_counts_skip_flagged():
    entries = [
        _entry("e1", DEC_14),
        _entry("e2", DEC_28),
        _entry("e3", DEC_28 + 86400 * 40),
        _entry("e4", DEC_14 + 3600, flagged=True),
    ]
    (record,) = build_user_records(["alice"], entries, set())
    assert monthly_counts(record) == {"2019-12": 2, "2020-02": 1}


def test_features_block_uses_features_not_raw_text():
    record = _record([_entry("e1", DEC_14, author_text="RAW TEXT SHOULD NOT APPEAR")])
    block = serialize_features_block(record)
    assert "RAW TEXT" not in block
    assert "severity=moderate" in block
    assert "causes=x" in block


def test_chronology_block_includes_monthly_counts():
    record = _record([_entry("e1", DEC_14, timeline="5 years")])
    block = serialize_chronology_block(build_chronology(record), monthly_counts(record))
    assert "2019-12-14" in block
    assert "timeline: 5 years" in block
    assert "- 2019-12: 1" in block


def test_summarize_non_temporal_parses_six_sections():
    session = ScriptedSession({"summary_non_temporal": [NT_RESPONSE]})
    record = _record([_entry("e1", DEC_14)])
    row = summarize_user(record, set(), session)
    assert row["status"] == "ok" and row["failure"] is None
    summary = row["non_temporal"]
    assert list(summary) == [name for _, name, _ in NON_TEMPORAL_SECTIONS]
    assert summary["overall_severity"] == "Moderate to Severe"
    assert summary["language_tone"] == "confessional, introspective, and self-deprecating"
    assert summary["triggers"] == ["financial insecurity", "social isolation"]


def test_summarize_non_temporal_requires_non_flagged_entry():
    # an author with only flagged entries is escalated: a record, but no summary call
    (record,) = build_user_records(["alice"], [_entry("e1", DEC_14, flagged=True)], {"alice"})
    session = ScriptedSession({})  # any ask would raise KeyError
    row = summarize_user(record, {"alice"}, session)
    assert row["status"] == "safety_excluded"
    assert row["non_temporal"] is None and row["temporal"] is None
    assert session.calls == []


def test_summarize_non_temporal_failure_after_reask():
    session = ScriptedSession({"summary_non_temporal": ["nope", "still nope"]})
    row = summarize_user(_record([_entry("e1", DEC_14)]), set(), session)
    assert row["status"] == "summary_failure"
    assert row["non_temporal"] is None
    assert row["failure"] is not None


def test_summarize_temporal_absent_without_events():
    session = ScriptedSession({"summary_non_temporal": [NT_RESPONSE]})
    record = _record([_entry("e1", DEC_14)])
    row = summarize_user(record, set(), session)
    assert row["chronology"] == []
    assert row["temporal"] is None and row["failure"] is None
    assert [call[0] for call in session.calls] == ["summary_non_temporal"]


def test_summarize_temporal_parses_five_sections():
    session = ScriptedSession(
        {"summary_non_temporal": [NT_RESPONSE], "summary_temporal": [T_RESPONSE]}
    )
    record = _record([_entry("e1", DEC_14, timeline="past half decade")])
    row = summarize_user(record, set(), session)
    assert row["status"] == "ok" and row["failure"] is None
    assert row["chronology"] == build_chronology(record)
    summary = row["temporal"]
    assert list(summary) == [name for _, name, _ in TEMPORAL_SECTIONS]
    assert summary["frequency"] == "gap of 14 days between the two posts"
    assert summary["explicit_times"] == "past half decade; 5 years"


SUMMARIES = {
    "summary_non_temporal": (NT_RESPONSE, NON_TEMPORAL_SECTIONS),
    "summary_temporal": (T_RESPONSE, TEMPORAL_SECTIONS),
}
SECTIONS = [
    (template, header, is_list)
    for template, (_, sections) in SUMMARIES.items()
    for header, _, is_list in sections
]


def _summarize(template, answer):
    """(summary, failure) of one summary, with ``answer`` scripted for both the
    ask and the re-ask and the other summary's answer well-formed."""
    session = ScriptedSession({name: [good] for name, (good, _) in SUMMARIES.items()})
    session.responses[template] = [answer]
    record = _record([_entry("e1", DEC_14, timeline="past half decade")])
    row = summarize_user(record, set(), session)
    return row[template.removeprefix("summary_")], row["failure"]


def _answer_with(template, header, value):
    """The template's well-formed answer with one section's value replaced."""
    answer, _ = SUMMARIES[template]
    return "\n".join(
        f"{header}: {value}" if line.startswith(f"{header}:") else line
        for line in answer.splitlines()
    )


@pytest.mark.parametrize("template", SUMMARIES)
def test_each_table_lists_the_sections_its_prompt_asks_for(template, templates):
    asked = [
        line.split(":", 1)[0]
        for line in templates[template].user.splitlines()
        if re.match(r"[A-Z][A-Z ]*:", line)
    ]
    assert asked == [header for header, _, _ in SUMMARIES[template][1]]


@pytest.mark.parametrize("template, header", [(t, h) for t, h, _ in SECTIONS])
def test_an_empty_section_fails_the_summary(template, header):
    assert _summarize(template, _answer_with(template, header, "")) == (
        None, "empty summary section"
    )


@pytest.mark.parametrize("template, header", [(t, h) for t, h, is_list in SECTIONS if is_list])
def test_a_list_section_of_only_none_fails_the_summary(template, header):
    assert _summarize(template, _answer_with(template, header, "none")) == (
        None, "empty summary section"
    )


def test_a_plain_section_of_none_is_its_value():
    answer = _answer_with("summary_temporal", "DURATION", "none")
    summary, failure = _summarize("summary_temporal", answer)
    assert failure is None
    assert summary["duration"] == "none"
