"""Stage bodies: each turns its input rows into output rows and stats.

A stage body takes ``(inputs, config, session, manifest)``: the rows of its
declared run-dir inputs, keyed by path; the config; the run's backend
session, or None for a stage that makes no backend call; and the manifest.
It returns ``({relative path: rows | object | text}, stats)`` and touches no
file of the run directory; ``pipeline.execute_stage`` reads and writes
those. A stage body that writes one row per item only selects its input
rows, maps the row function of the module that computes them (such as
``filtering.filter_entry``) over them with ``_map_items``, which keeps input
order at any ``limits.concurrency``, and counts its stats from the rows.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from . import runfiles
from .aggregation import build_user_records, summarize_user
from .config import PipelineConfig, packaged_path
from .diagnosis import diagnose
from .extraction import extract_entry
from .filtering import (
    DISPOSITION_FLAGGED,
    DISPOSITION_IRRELEVANT,
    DISPOSITION_REMOVED,
    DISPOSITION_RETAINED,
    DISPOSITION_UNKNOWN,
    filter_entry,
    load_lexicon,
)
from .ingestion import KIND_COMMENT, read_dumps, select_cohort
from .interaction import classify_relation, pair_entries
from .llm.session import LlmSession
from .recommendation import recommend

_RETAINED = (DISPOSITION_FLAGGED, DISPOSITION_RETAINED)


def escalated_authors(filtered_rows: list[dict]) -> set[str]:
    """The authors escalated to a practitioner instead of summarized: those with at
    least one flagged entry and no retained one, so no generative call concerns them."""

    def authors(wanted: str) -> set[str]:
        return {row["entry"]["author"] for row in filtered_rows if row["disposition"] == wanted}

    return authors(DISPOSITION_FLAGGED) - authors(DISPOSITION_RETAINED)


def _map_items(items: list, fn: Callable, workers: int) -> list:
    """Apply fn to items, preserving input order, with bounded parallelism."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# A stage body's result: the files it produces, keyed by path in the run dir, and its stats.
StageResult = tuple[dict[str, object], dict]


def stage_ingest(
    inputs: dict, config: PipelineConfig, session: None, manifest: dict
) -> StageResult:
    """Read the manifest's dump files into entries and rejects, and select the cohort."""
    entries, rejects = read_dumps(manifest["input_paths"])
    cohort = select_cohort(entries, config.pipeline.cohort_size)
    cohort_authors = {user["author"] for user in cohort["users"]}
    cohort_entries = sum(1 for row in entries if row["author"] in cohort_authors)
    files = {
        runfiles.ENTRIES: entries,
        runfiles.REJECTS: rejects,
        runfiles.COHORT: cohort,
    }
    return files, {
        "lines": len(entries) + len(rejects),
        "parsed": len(entries),
        "rejected": len(rejects),
        "distinct_authors": len({row["author"] for row in entries}),
        "cohort_authors": len(cohort["users"]),
        "cohort_entries": cohort_entries,
        "noncohort_entries": len(entries) - cohort_entries,
    }


def stage_filter(
    inputs: dict, config: PipelineConfig, session: LlmSession, manifest: dict
) -> StageResult:
    """Clean, safety-screen, and relevance-filter the cohort's entries."""
    cohort_authors = {user["author"] for user in inputs[runfiles.COHORT]["users"]}
    lexicon = load_lexicon(config.lexicon_path())
    cohort_rows = [row for row in inputs[runfiles.ENTRIES] if row["author"] in cohort_authors]
    rows = _map_items(
        cohort_rows, lambda row: filter_entry(row, session, lexicon), config.limits.concurrency
    )
    dispositions = [row["disposition"] for row in rows]
    return {runfiles.FILTERED: rows}, {
        "input_entries": len(rows),
        "removed": dispositions.count(DISPOSITION_REMOVED),
        "flagged": dispositions.count(DISPOSITION_FLAGGED),
        "relevant": dispositions.count(DISPOSITION_RETAINED),
        "irrelevant": dispositions.count(DISPOSITION_IRRELEVANT),
        "relevance_unknown": dispositions.count(DISPOSITION_UNKNOWN),
        "retained": sum(1 for d in dispositions if d in _RETAINED),
    }


def stage_extract(
    inputs: dict, config: PipelineConfig, session: LlmSession, manifest: dict
) -> StageResult:
    """Per-entry non-temporal features and temporal annotations."""
    retained = [row for row in inputs[runfiles.FILTERED] if row["disposition"] in _RETAINED]
    rows = _map_items(retained, lambda row: extract_entry(row, session), config.limits.concurrency)
    ok_rows = [row for row in rows if row["status"] == "ok"]
    return {runfiles.FEATURES: rows}, {
        "input_entries": len(retained),
        "features_ok": len(ok_rows),
        "parse_failures": len(rows) - len(ok_rows),
        "flagged_entries": sum(1 for row in rows if row["flagged"]),
        "timeline_found": sum(1 for row in ok_rows if row.get("timeline") is not None),
        "temporal_degraded": sum(1 for row in ok_rows if row.get("temporal_degraded")),
    }


def stage_aggregate(
    inputs: dict, config: PipelineConfig, session: LlmSession, manifest: dict
) -> StageResult:
    """Build per-user records and produce both user-level summaries."""
    cohort_users = inputs[runfiles.COHORT]["users"]
    escalated = escalated_authors(inputs[runfiles.FILTERED])
    clean_text_by_id = {row["entry"]["id"]: row["clean_text"] for row in inputs[runfiles.FILTERED]}
    entries = [
        {**row, "clean_text": clean_text_by_id[row["entry_id"]]}
        for row in inputs[runfiles.FEATURES]
        if row["status"] == "ok"
    ]
    cohort_order = [user["author"] for user in cohort_users]
    records = build_user_records(cohort_order, entries, escalated)
    rows = _map_items(
        records,
        lambda record: summarize_user(record, escalated, session),
        config.limits.concurrency,
    )
    statuses = [row["status"] for row in rows]
    return {runfiles.SUMMARIES: rows}, {
        "input_entries": len(entries),
        "cohort_users": len(cohort_users),
        "users_with_entries": len(records),
        "summarized": statuses.count("ok"),
        "summary_failures": statuses.count("summary_failure"),
        "safety_excluded": statuses.count("safety_excluded"),
        "omitted_no_entries": len(cohort_users) - len(records),
        "temporal_summaries": sum(1 for row in rows if row["temporal"] is not None),
    }


def stage_diagnose(
    inputs: dict, config: PipelineConfig, session: LlmSession, manifest: dict
) -> StageResult:
    """Fused diagnosis summary for every successfully summarized user."""
    ready = [row for row in inputs[runfiles.SUMMARIES] if row["status"] == "ok"]
    rows = _map_items(ready, lambda row: diagnose(row, session), config.limits.concurrency)
    diagnosed = [row for row in rows if row["status"] == "ok"]
    return {runfiles.DIAGNOSIS: rows}, {
        "input_users": len(ready),
        "diagnosed": len(diagnosed),
        "failures": len(rows) - len(diagnosed),
        "over_budget": sum(1 for row in diagnosed if row["over_budget"]),
    }


def stage_recommend(
    inputs: dict, config: PipelineConfig, session: LlmSession, manifest: dict
) -> StageResult:
    """Recommendation sets for diagnosed users; escalations for safety-excluded ones."""
    diagnosed = {row["author"]: row for row in inputs[runfiles.DIAGNOSIS] if row["status"] == "ok"}
    blocklist = load_lexicon(packaged_path("data/medication_blocklist.txt"))
    # in summaries order: a safety-excluded user's summary row, a diagnosed user's diagnosis row
    selected = [
        diagnosed.get(row["author"], row)
        for row in inputs[runfiles.SUMMARIES]
        if row["status"] == "safety_excluded" or row["author"] in diagnosed
    ]
    rows = _map_items(
        selected, lambda row: recommend(row, session, blocklist), config.limits.concurrency
    )
    statuses = [row["status"] for row in rows]
    escalations = statuses.count("escalation")
    ok_rows = [row for row in rows if row["status"] == "ok"]
    return {runfiles.RECOMMENDATIONS: rows}, {
        "input_users": len(rows) - escalations,
        "sets": len(ok_rows),
        "failures": statuses.count("recommendation_failure"),
        "escalations": escalations,
        "truncation_warnings": sum(
            1 for row in ok_rows if any("truncated" in w for w in row["warnings"])
        ),
    }


def stage_interact(
    inputs: dict, config: PipelineConfig, session: LlmSession, manifest: dict
) -> StageResult:
    """Pair retained comments with their posts and classify each pair."""
    retained = [row for row in inputs[runfiles.FILTERED] if row["disposition"] in _RETAINED]
    pairs, skipped = pair_entries(retained)
    rows = _map_items(
        pairs, lambda pair: classify_relation(pair, session), config.limits.concurrency
    )
    return {runfiles.RELATIONS: rows}, {
        "input_comments": sum(1 for row in retained if row["entry"]["kind"] == KIND_COMMENT),
        "pairs": len(pairs),
        "skipped_no_parent": skipped,
        "classified": len(rows),
        "unprocessed_safety": sum(1 for row in rows if row["relation"] == "unprocessed_safety"),
    }
