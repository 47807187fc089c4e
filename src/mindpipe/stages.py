"""Stage bodies: each turns its input rows into output rows and stats.

A stage body takes ``(inputs, config, session, manifest)``: the rows of its
declared run-dir inputs, keyed by path; the config; the run's backend
session, or None for a stage that makes no backend call; and the manifest.
It returns ``({relative path: rows | object | text}, stats)`` and touches no
file of the run directory; ``pipeline.execute_stage`` reads and writes
those. Per-item work goes through ``_map_items``, which keeps input order
at any ``limits.concurrency``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable

from . import runfiles
from .aggregation import (
    UserRecord,
    build_chronology,
    build_user_records,
    summarize_non_temporal,
    summarize_temporal,
)
from .config import PipelineConfig, packaged_path
from .diagnosis import diagnose
from .extraction import NO_TIMELINE, extract_non_temporal, extract_temporal
from .filtering import clean_entry, is_relevant, load_lexicon, safety_screen
from .ingestion import KIND_COMMENT, RawEntry, iter_parse, select_cohort
from .interaction import Pair, classify_relation, pair_entries
from .llm.session import LlmSession
from .recommendation import recommend, safety_notice

DISPOSITION_REMOVED = "removed"
DISPOSITION_FLAGGED = "flagged"
DISPOSITION_RETAINED = "retained"
DISPOSITION_IRRELEVANT = "irrelevant"
DISPOSITION_UNKNOWN = "relevance_unknown"

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
    """Parse the manifest's dump files into entries and rejects, and select the cohort."""
    entries: list[RawEntry] = []
    reject_rows: list[dict] = []
    seen_ids: set[str] = set()
    lines = 0
    for path in map(Path, manifest["input_paths"]):
        with path.open(encoding="utf-8") as handle:
            for item in iter_parse(handle, seen_ids=seen_ids):
                lines += 1
                if isinstance(item, RawEntry):
                    entries.append(item)
                else:
                    reject_rows.append(
                        {"file": str(path), "line_no": item.line_no, "reason": item.reason}
                    )
    cohort = select_cohort(entries, config.pipeline.cohort_size)
    cohort_authors = {user["author"] for user in cohort["users"]}
    cohort_entries = sum(1 for entry in entries if entry.author in cohort_authors)
    files = {
        runfiles.ENTRIES: [vars(entry) for entry in entries],
        runfiles.REJECTS: reject_rows,
        runfiles.COHORT: cohort,
    }
    return files, {
        "lines": lines,
        "parsed": len(entries),
        "rejected": len(reject_rows),
        "distinct_authors": len({entry.author for entry in entries}),
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

    def process(entry_row: dict) -> dict:
        row = clean_entry(entry_row)
        if row["removed"] is not None:
            row.update(safety=None, disposition=DISPOSITION_REMOVED)
            return row
        trigger = safety_screen(row, session, lexicon)
        row["safety"] = trigger
        if trigger is not None:
            # quarantined entries are retained without a relevance verdict
            row["disposition"] = DISPOSITION_FLAGGED
            return row
        verdict = is_relevant(row, session)
        if verdict is None:
            row["disposition"] = DISPOSITION_UNKNOWN
        else:
            row["disposition"] = DISPOSITION_RETAINED if verdict else DISPOSITION_IRRELEVANT
        return row

    rows = _map_items(cohort_rows, process, config.limits.concurrency)
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

    def process(row: dict) -> dict:
        entry = row["entry"]
        flagged = row["disposition"] == DISPOSITION_FLAGGED
        out = {
            "entry_id": entry["id"],
            "author": entry["author"],
            "created_utc": entry["created_utc"],
            "flagged": flagged,
        }
        features, failure = extract_non_temporal(row, flagged, session)
        if failure is not None:
            out.update({"status": "parse_failure", "failure": failure})
            return out
        # quarantine gate: a flagged entry gets no temporal call either
        timeline, degraded = (NO_TIMELINE, False) if flagged else extract_temporal(row, session)
        out.update(status="ok", **features, timeline=timeline, temporal_degraded=degraded)
        return out

    rows = _map_items(retained, process, config.limits.concurrency)
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

    def process(record: UserRecord) -> dict:
        chronology = build_chronology(record, config.pipeline.event_content_budget)
        row = {
            "author": record.author,
            "status": None,
            "non_temporal": None,
            "temporal": None,
            "failure": None,
            "chronology": chronology,
        }
        if record.author in escalated:
            row["status"] = "safety_excluded"
            return row
        non_temporal, failure = summarize_non_temporal(record, session)
        if failure is None:
            temporal, failure = summarize_temporal(record, chronology, session)
        if failure is not None:
            row.update(status="summary_failure", failure=failure)
            return row
        row.update(status="ok", non_temporal=non_temporal, temporal=temporal)
        return row

    rows = _map_items(records, process, config.limits.concurrency)
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

    def process(row: dict) -> dict:
        summary, failure = diagnose(
            row["author"],
            row["non_temporal"],
            row["temporal"],
            session,
            slack=config.pipeline.word_budget_slack,
        )
        if failure is not None:
            return {"author": row["author"], "status": "diagnosis_failure", "failure": failure}
        return {"author": row["author"], "status": "ok", **summary}

    rows = _map_items(ready, process, config.limits.concurrency)
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
    diagnosis_by_author = {row["author"]: row for row in inputs[runfiles.DIAGNOSIS]}
    blocklist = load_lexicon(packaged_path("data/medication_blocklist.txt"))

    selected = [
        row
        for row in inputs[runfiles.SUMMARIES]
        if row["status"] == "safety_excluded"
        or (
            row["status"] == "ok"
            and diagnosis_by_author.get(row["author"], {}).get("status") == "ok"
        )
    ]

    def process(row: dict) -> dict:
        if row["status"] == "safety_excluded":
            return safety_notice(row["author"])  # no backend call
        diagnosis_text = diagnosis_by_author[row["author"]]["text"]
        rec, failure = recommend(row["author"], diagnosis_text, session, blocklist)
        if failure is not None:
            return {
                "author": row["author"],
                "status": "recommendation_failure",
                "failure": failure,
            }
        return {"author": row["author"], "status": "ok", **rec}

    rows = _map_items(selected, process, config.limits.concurrency)
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

    def process(pair: Pair) -> dict:
        flagged = DISPOSITION_FLAGGED in (pair.post["disposition"], pair.comment["disposition"])
        return classify_relation(pair, session, quarantined=flagged)

    rows = _map_items(pairs, process, config.limits.concurrency)
    return {runfiles.RELATIONS: rows}, {
        "input_comments": sum(1 for row in retained if row["entry"]["kind"] == KIND_COMMENT),
        "pairs": len(pairs),
        "skipped_no_parent": skipped,
        "classified": len(rows),
        "unprocessed_safety": sum(1 for row in rows if row["relation"] == "unprocessed_safety"),
    }
