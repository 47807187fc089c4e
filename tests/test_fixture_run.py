"""Pins on the fixture run's content for the fully worked sample user.

ash_ember is the corpus's reference profile: two December 2019 posts
carrying explicit timelines 14 days apart, severity mixing moderate and
severe entries, and the canonical therapy triple downstream.
"""

from __future__ import annotations

from conftest import read_jsonl

SAMPLE = "ash_ember"


def _row(rows, author=SAMPLE):
    return next(r for r in rows if r["author"] == author)


def test_sample_user_chronology_dates_and_timelines(fixture_run):
    summary = _row(read_jsonl(fixture_run / "summaries.jsonl"))
    events = [(e["date"], e["timeline"]) for e in summary["chronology"]]
    assert events == [("2019-12-14", "past half decade"), ("2019-12-28", "5 years")]


def test_sample_user_entry_timeline_extracted(fixture_run):
    features = read_jsonl(fixture_run / "features.jsonl")
    by_id = {r["entry_id"]: r for r in features}
    assert by_id["p_ash_01"]["timeline"] == "past half decade"
    assert by_id["p_ash_02"]["timeline"] == "5 years"


def test_sample_user_entry_severities_and_causes(fixture_run):
    features = [r for r in read_jsonl(fixture_run / "features.jsonl") if r["author"] == SAMPLE]
    severities = {r["severity"] for r in features}
    assert severities <= {"mild", "moderate", "severe"}
    assert "severe" in severities and "moderate" in severities
    causes = {c.lower() for r in features for c in r.get("causes", [])}
    assert "financial insecurity" in causes


def test_sample_user_summary_tone(fixture_run):
    summary = _row(read_jsonl(fixture_run / "summaries.jsonl"))
    assert summary["status"] == "ok"
    tone = summary["non_temporal"]["language_tone"]
    assert "confessional, introspective, and self-deprecating" in tone
    assert summary["non_temporal"]["overall_severity"] == "Moderate to Severe"


def test_sample_user_temporal_summary_frequency(fixture_run):
    summary = _row(read_jsonl(fixture_run / "summaries.jsonl"))
    assert "gap of 14 days between the two posts" in summary["temporal"]["frequency"]


def test_sample_user_diagnosis_names_candidate_disorders(fixture_run):
    diagnosis = _row(read_jsonl(fixture_run / "diagnosis.jsonl"))
    assert diagnosis["status"] == "ok"
    assert diagnosis["over_budget"] is False
    assert (
        "Major Depressive Disorder, Generalized Anxiety Disorder, "
        "or Post-Traumatic Stress Disorder"
    ) in diagnosis["text"]


def test_sample_user_recommendations_canonical_triple(fixture_run):
    rec = _row(read_jsonl(fixture_run / "recommendations.jsonl"))
    assert rec["status"] == "ok"
    assert rec["therapies"] == [
        "Cognitive-Behavioral Therapy (CBT)",
        "Interpersonal Therapy (IPT)",
        "Trauma-Focused Cognitive-Behavioral Therapy (TF-CBT)",
    ]
    assert len(rec["behavior_changes"]) == 5
    assert "consistent sleep schedule" in rec["behavior_changes"][0]


def test_truncation_user_kept_three_of_four(fixture_run):
    rec = _row(read_jsonl(fixture_run / "recommendations.jsonl"), author="dell_rowan")
    assert rec["status"] == "ok"
    assert len(rec["therapies"]) == 3
    assert any("truncated from 4 to 3" in w for w in rec["warnings"])
    assert any("truncated from 6 to 5" in w for w in rec["warnings"])


def test_parse_failure_entry_recorded_and_excluded(fixture_run):
    features = read_jsonl(fixture_run / "features.jsonl")
    failed = [r for r in features if r["status"] == "parse_failure"]
    assert [r["entry_id"] for r in failed] == ["p_gorse_03"]
    summaries = read_jsonl(fixture_run / "summaries.jsonl")
    gorse = _row(summaries, author="gorse_vale")
    assert gorse["status"] == "ok"  # user still summarized from remaining entries
    gorse_ok = [r for r in features if r["author"] == "gorse_vale" and r["status"] == "ok"]
    assert len(gorse_ok) == 7  # 9 entries minus 1 irrelevant, 1 parse-failed


def test_relevance_unknown_entry_dropped(fixture_run):
    filtered = read_jsonl(fixture_run / "filtered.jsonl")
    row = next(r for r in filtered if r["entry"]["id"] == "p_elm_03")
    assert row["disposition"] == "relevance_unknown"
    features_ids = {r["entry_id"] for r in read_jsonl(fixture_run / "features.jsonl")}
    assert "p_elm_03" not in features_ids


def test_exactly_one_recommendation_outcome_per_processed_user(fixture_run):
    summaries = read_jsonl(fixture_run / "summaries.jsonl")
    diagnosis = read_jsonl(fixture_run / "diagnosis.jsonl")
    recommendations = read_jsonl(fixture_run / "recommendations.jsonl")
    diagnosed_ok = {r["author"] for r in diagnosis if r["status"] == "ok"}
    safety = {r["author"] for r in summaries if r["status"] == "safety_excluded"}
    processed = diagnosed_ok | safety
    authors = [r["author"] for r in recommendations]
    assert sorted(authors) == sorted(processed)  # one record each, no dups
    assert all(
        r["status"] in ("ok", "recommendation_failure", "escalation") for r in recommendations
    )


def test_relation_labels_cover_the_taxonomy(fixture_run):
    relations = read_jsonl(fixture_run / "relations.jsonl")
    labels = {r["relation"] for r in relations}
    assert {
        "empathy", "agreement", "support", "shared_experience",
        "criticism", "encouragement", "not_related", "unprocessed_safety", "other",
    } == labels
    other = next(r for r in relations if r["relation"] == "other")
    assert other["detail"] == "solidarity"
