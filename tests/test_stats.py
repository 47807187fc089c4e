from __future__ import annotations

import pytest

from mindpipe.config import packaged_path
from mindpipe.recommendation import load_aliases
from mindpipe.stats import (
    conservation_violations,
    relation_distribution,
    roll_up_user,
    severity_distribution,
    temporal_coverage,
    therapy_frequency,
)


def _row(author, severity, flagged=False, timeline=None):
    return {"author": author, "severity": severity, "flagged": flagged, "timeline": timeline}


def test_severity_distribution_hand_counted_fixture():
    rows = (
        [_row("u1", "mild")]
        + [_row("u1", "moderate"), _row("u2", "moderate")]
        + [_row(f"u{i}", "severe") for i in range(3, 9)]
        + [_row("u9", "extreme_uncategorized", flagged=True)]
    )
    dist = severity_distribution(rows)
    assert dist["entry_level"] == {
        "mild": 0.1,
        "moderate": 0.2,
        "severe": 0.6,
        "extreme_uncategorized": 0.1,
    }
    assert dist["users_excluded_all_flagged"] == 1


def test_single_user_all_severe():
    dist = severity_distribution([_row("u", "severe"), _row("u", "severe")])
    assert dist["user_level"] == {"mild_to_moderate": 0.0, "moderate_to_severe": 0.0, "severe": 1.0}


def test_empty_corpus_gives_the_empty_section():
    assert severity_distribution([]) == {
        "entry_level": {},
        "user_level": {},
        "users_excluded_all_flagged": 0,
    }


def test_roll_up_rule_boundaries():
    assert roll_up_user(["severe", "mild"]) == "severe"  # p(severe) = 0.5
    assert roll_up_user(["severe", "moderate", "mild", "mild"]) == "moderate_to_severe"
    assert roll_up_user(["mild", "mild", "moderate"]) == "mild_to_moderate"
    assert roll_up_user(["moderate"]) == "moderate_to_severe"
    with pytest.raises(ValueError):
        roll_up_user([])


def test_fractions_sum_to_one():
    rows = [_row("u1", "mild"), _row("u2", "severe"), _row("u3", "moderate")]
    dist = severity_distribution(rows)
    assert abs(sum(dist["entry_level"].values()) - 1.0) < 1e-9
    assert abs(sum(dist["user_level"].values()) - 1.0) < 1e-9


def test_therapy_frequency_counts_users_not_mentions():
    aliases = load_aliases(packaged_path("data/therapy_aliases.json"))
    rows = [
        {"status": "ok", "therapies": ["Cognitive-Behavioral Therapy (CBT)", "CBT", "IPT"]},
        {"status": "ok", "therapies": ["CBT"]},
        {"status": "ok", "therapies": ["Group Therapy"]},
        {"status": "escalation"},
    ]
    table = therapy_frequency(rows, aliases)
    assert table[0] == ("Cognitive-Behavioral Therapy", 2)  # per-user dedupe of CBT forms
    assert ("Group Therapy", 1) in table
    assert ("Interpersonal Therapy", 1) in table


def test_therapy_frequency_empty():
    assert therapy_frequency([], {}) == []


def test_therapy_frequency_orders_desc_then_name():
    rows = [
        {"status": "ok", "therapies": ["B Therapy"]},
        {"status": "ok", "therapies": ["A Therapy"]},
        {"status": "ok", "therapies": ["A Therapy", "B Therapy", "C Therapy"]},
    ]
    table = therapy_frequency(rows, {})
    assert table == [("A Therapy", 2), ("B Therapy", 2), ("C Therapy", 1)]


def test_relation_distribution_related_fraction():
    rows = [
        {"relation": "empathy"},
        {"relation": "agreement"},
        {"relation": "not_related"},
        {"relation": "unprocessed_safety"},
        {"relation": "other", "detail": "backend_error"},
        {"relation": "other", "detail": "solidarity"},
    ]
    dist = relation_distribution(rows)
    assert dist["total_pairs"] == 6
    assert abs(dist["related_fraction"] - 0.5) < 1e-9
    assert abs(sum(dist["fractions"].values()) - 1.0) < 1e-9


def test_relation_distribution_empty():
    assert relation_distribution([]) == {
        "fractions": {},
        "related_fraction": 0.0,
        "total_pairs": 0,
    }


def test_temporal_coverage():
    features = [
        _row("u1", "mild", timeline="5 years"),
        _row("u1", "mild"),
        _row("u2", "mild"),
        _row("u2", "mild", timeline="for months"),
    ]
    summaries = [
        {"status": "ok", "temporal": {"duration": "x"}},
        {"status": "ok", "temporal": None},
        {"status": "safety_excluded"},
    ]
    entry_frac, user_frac = temporal_coverage(features, summaries)
    assert abs(entry_frac - 0.5) < 1e-9
    assert abs(user_frac - 0.5) < 1e-9


def test_conservation_violations_detects_mismatch():
    stats = {
        "ingest": {
            "lines": 10, "parsed": 8, "rejected": 2,
            "cohort_entries": 6, "noncohort_entries": 2,
        },
        "filter": {
            "input_entries": 6, "removed": 1, "flagged": 1, "relevant": 3,
            "irrelevant": 1, "relevance_unknown": 0, "retained": 4,
        },
    }
    assert conservation_violations(stats) == []
    stats["filter"]["removed"] = 2  # break the identity
    violations = conservation_violations(stats)
    assert violations == [
        "filter: input_entries = removed + flagged + relevant + irrelevant"
        " + relevance_unknown: 6 != 7"
    ]
