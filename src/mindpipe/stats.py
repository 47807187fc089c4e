"""Corpus statistics over stage files: severity bands, coverage, frequencies.

Every statistic is a plain linear scan over stage rows so tests can check
it against an independent recount. User-level severity bands come from a
fixed roll-up rule over each user's entry-severity fractions:

    severe            when p(severe) >= 0.5
    moderate_to_severe when p(severe) + p(moderate) >= 0.5
    mild_to_moderate   otherwise

computed over non-flagged entries; users with only flagged entries are
excluded from the user-level map and counted separately.
"""

from __future__ import annotations

from collections import Counter

from .extraction import (
    SEVERITY_EXTREME,
    SEVERITY_MILD,
    SEVERITY_MODERATE,
    SEVERITY_SEVERE,
)
from .recommendation import canonical_therapy

BAND_MILD_TO_MODERATE = "mild_to_moderate"
BAND_MODERATE_TO_SEVERE = "moderate_to_severe"
BAND_SEVERE = "severe"

ENTRY_BANDS = (SEVERITY_MILD, SEVERITY_MODERATE, SEVERITY_SEVERE, SEVERITY_EXTREME)
USER_BANDS = (BAND_MILD_TO_MODERATE, BAND_MODERATE_TO_SEVERE, BAND_SEVERE)

# (stage, total, parts): a stage's total stat must equal the sum of its parts
CONSERVATION_LAWS = (
    ("ingest", "lines", ("parsed", "rejected")),
    ("ingest", "parsed", ("cohort_entries", "noncohort_entries")),
    (
        "filter",
        "input_entries",
        ("removed", "flagged", "relevant", "irrelevant", "relevance_unknown"),
    ),
    ("filter", "retained", ("flagged", "relevant")),
    ("extract", "input_entries", ("features_ok", "parse_failures")),
    (
        "aggregate",
        "cohort_users",
        ("summarized", "summary_failures", "safety_excluded", "omitted_no_entries"),
    ),
    ("diagnose", "input_users", ("diagnosed", "failures")),
    ("recommend", "input_users", ("sets", "failures")),
    ("interact", "input_comments", ("pairs", "skipped_no_parent")),
    ("interact", "pairs", ("classified",)),
)


def roll_up_user(severities: list[str]) -> str:
    """Band one user from their non-flagged entry severities."""
    if not severities:
        raise ValueError("roll_up_user requires at least one severity")
    total = len(severities)
    p_severe = severities.count(SEVERITY_SEVERE) / total
    p_moderate = severities.count(SEVERITY_MODERATE) / total
    if p_severe >= 0.5:
        return BAND_SEVERE
    if p_severe + p_moderate >= 0.5:
        return BAND_MODERATE_TO_SEVERE
    return BAND_MILD_TO_MODERATE


def severity_distribution(feature_rows: list[dict]) -> dict:
    """The run report's severity section: entry-level fractions by direct
    count, user-level fractions via the roll-up rule, and the users left out.

    ``feature_rows`` are parsed rows with at least author, severity, and
    flagged fields; rows must all carry a severity (parse failures are not
    feature rows). An empty feature set gives empty fraction maps.
    """
    entry_counts = Counter(row["severity"] for row in feature_rows)
    total = len(feature_rows)
    entry_level = (
        {band: entry_counts.get(band, 0) / total for band in ENTRY_BANDS} if total else {}
    )

    per_user: dict[str, list[str]] = {}
    users_seen: set[str] = set()
    for row in feature_rows:
        users_seen.add(row["author"])
        if not row["flagged"]:
            per_user.setdefault(row["author"], []).append(row["severity"])
    user_counts = Counter(roll_up_user(sevs) for sevs in per_user.values())
    user_total = sum(user_counts.values())
    user_level = (
        {band: user_counts.get(band, 0) / user_total for band in USER_BANDS}
        if user_total
        else {}
    )
    return {
        "entry_level": entry_level,
        "user_level": user_level,
        "users_excluded_all_flagged": len(users_seen) - len(per_user),
    }


def therapy_frequency(
    recommendation_rows: list[dict], aliases: dict[str, str]
) -> list[tuple[str, int]]:
    """User counts per canonical therapy, descending, ties by name ascending."""
    counts: Counter[str] = Counter()
    for row in recommendation_rows:
        if row.get("status") != "ok":
            continue
        names = {canonical_therapy(t, aliases) for t in row.get("therapies", [])}
        counts.update(names)
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def relation_distribution(relation_rows: list[dict]) -> dict:
    """The run report's relations section: fractions per relation label, the
    related fraction, and the pair count.

    A pair counts as related unless it is not_related, unprocessed for
    safety, or a backend-error fallback.
    """
    total = len(relation_rows)
    counts = Counter(row["relation"] for row in relation_rows)
    unrelated = sum(
        1
        for row in relation_rows
        if row["relation"] in ("not_related", "unprocessed_safety")
        or (row["relation"] == "other" and row.get("detail") == "backend_error")
    )
    return {
        "fractions": {label: count / total for label, count in sorted(counts.items())},
        "related_fraction": 1.0 - unrelated / total if total else 0.0,
        "total_pairs": total,
    }


def temporal_coverage(
    feature_rows: list[dict], summary_rows: list[dict]
) -> tuple[float, float]:
    """(entry fraction with a timeline, user fraction with a temporal summary).

    Entry fraction is over parsed feature rows; user fraction is over
    users that produced summaries.
    """
    entry_fraction = 0.0
    if feature_rows:
        with_timeline = sum(1 for row in feature_rows if row.get("timeline") is not None)
        entry_fraction = with_timeline / len(feature_rows)
    summarized = [row for row in summary_rows if row.get("status") == "ok"]
    user_fraction = 0.0
    if summarized:
        with_temporal = sum(1 for row in summarized if row.get("temporal") is not None)
        user_fraction = with_temporal / len(summarized)
    return entry_fraction, user_fraction


def conservation_violations(stage_stats: dict[str, dict]) -> list[str]:
    """Each conservation law whose stage has stats and whose total is not
    the sum of its parts, as ``stage: total = a + b: total != sum``."""
    violations = []
    for stage, total, parts in CONSERVATION_LAWS:
        counts = stage_stats.get(stage)
        if not counts:
            continue
        left = counts[total]
        right = sum(counts[part] for part in parts)
        if left != right:
            violations.append(f"{stage}: {total} = {' + '.join(parts)}: {left} != {right}")
    return violations
