"""Stage orchestration: the stage table, run directory, manifest and resume.

Stage graph (deps in parentheses):

    ingest() -> filter(ingest) -> extract(filter)
    aggregate(filter, extract) -> diagnose(aggregate) -> recommend(diagnose, aggregate)
    interact(filter)
    report(everything)

``STAGES`` is the one description of a stage: its function, deps, the
run-dir files it reads and writes, and the resource files (prompt
templates, data files) it reads. ``run-all``, the single-stage CLI and the
skip check all read it.

A stage is skipped on rerun when its manifest record is intact: same
config digest (the config plus the tool version), same input digest,
outputs present with the recorded digest, and no upstream stage
re-executed this invocation. The input digest covers the bytes of the
stage's run-dir inputs (the dump files, for ingest), of its resource
files, and of the mock rule table when a backend stage runs on the mock.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Iterator

from . import __version__, runfiles
from .aggregation import (
    NonTemporalSummary,
    TemporalSummary,
    UserEntry,
    UserRecord,
    build_chronology,
    build_user_records,
    monthly_counts,
    summarize_non_temporal,
    summarize_temporal,
)
from .config import BACKEND_HTTP, PipelineConfig, packaged_path
from .diagnosis import DiagnosisSummary, diagnose
from .errors import RunLockedError, StageError
from .extraction import (
    NonTemporalFeatures,
    TemporalAnnotation,
    extract_non_temporal,
    extract_temporal,
)
from .filtering import (
    CleanEntry,
    SafetyFlag,
    clean_entry,
    is_relevant,
    load_lexicon,
    safety_screen,
)
from .ingestion import Cohort, RawEntry, iter_parse, select_cohort
from .interaction import classify_relation, pair_entries
from .llm.cache import ResponseCache, read_stats
from .llm.mock_backend import MockBackend
from .llm.ratelimit import RateLimiter
from .llm.session import LlmSession
from .llm.templates import load_templates
from .recommendation import recommend, safety_notice
from .reports import emit_reports

logger = logging.getLogger(__name__)

DISPOSITION_REMOVED = "removed"
DISPOSITION_FLAGGED = "flagged"
DISPOSITION_RETAINED = "retained"
DISPOSITION_IRRELEVANT = "irrelevant"
DISPOSITION_UNKNOWN = "relevance_unknown"

_RETAINED = (DISPOSITION_FLAGGED, DISPOSITION_RETAINED)


# Resource names: "prompts/<file>" resolves under config.prompts_dir(),
# LEXICON to config.lexicon_path(), anything else to a packaged data file.
LEXICON = "lexicon"
MOCK_RULES = "data/mock_rules.json"


# ---------------------------------------------------------------------------
# Backend session wiring
# ---------------------------------------------------------------------------


def build_session(config: PipelineConfig, run_dir: Path) -> LlmSession:
    templates = load_templates(config.prompts_dir())
    if config.backend.kind == BACKEND_HTTP:
        from .llm.http_backend import HttpBackend  # imports requests, which mock runs never use

        backend = HttpBackend(
            base_url=config.backend.base_url,
            api_key_env=config.backend.api_key_env,
            max_attempts=config.retry.max_attempts,
            limiter=RateLimiter(config.limits.rps, config.limits.concurrency),
        )
    else:
        backend = MockBackend(packaged_path(MOCK_RULES))
    cache = ResponseCache(config.cache_dir(run_dir), backend.identity)
    return LlmSession(backend, templates, model=config.backend.model, cache=cache)


def _map_items(items: list, fn: Callable, workers: int) -> list:
    """Apply fn to items, preserving input order, with bounded parallelism."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _write_backend_log(run_dir: Path, stage: str, session: LlmSession | None) -> None:
    if session is None:
        return
    log_dir = run_dir / runfiles.LOGS_DIR
    log_dir.mkdir(parents=True, exist_ok=True)
    # vars() keeps the field order; asdict() would deep-copy every message list
    rows = [vars(record) for record in session.records]
    runfiles.write_jsonl(log_dir / f"backend_{stage}.jsonl", rows)


# ---------------------------------------------------------------------------
# Stage implementations
# ---------------------------------------------------------------------------


def stage_ingest(run_dir: Path, config: PipelineConfig, session: None, manifest: dict) -> dict:
    """Parse the manifest's dump files, write entries/rejects, and select the cohort."""
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
    runfiles.write_jsonl(run_dir / runfiles.ENTRIES, [entry.to_dict() for entry in entries])
    runfiles.write_jsonl(run_dir / runfiles.REJECTS, reject_rows)

    cohort = select_cohort(entries, config.pipeline.cohort_size)
    runfiles.write_json(run_dir / runfiles.COHORT, cohort.to_dict())
    cohort_entries = sum(count for _, count in cohort.users)
    return {
        "lines": lines,
        "parsed": len(entries),
        "rejected": len(reject_rows),
        "distinct_authors": len({entry.author for entry in entries}),
        "cohort_authors": len(cohort.users),
        "cohort_entries": cohort_entries,
        "noncohort_entries": len(entries) - cohort_entries,
    }


def stage_filter(
    run_dir: Path, config: PipelineConfig, session: LlmSession, manifest: dict
) -> dict:
    """Clean, safety-screen, and relevance-filter the cohort's entries."""
    entry_rows = runfiles.read_jsonl(run_dir / runfiles.ENTRIES, "ingest")
    cohort = Cohort.from_dict(runfiles.read_json(run_dir / runfiles.COHORT, "ingest"))
    cohort_authors = cohort.authors()
    lexicon = load_lexicon(config.lexicon_path())

    cohort_entries = [
        _from_row(RawEntry, row) for row in entry_rows if row["author"] in cohort_authors
    ]

    def process(entry: RawEntry) -> dict:
        clean = clean_entry(entry)
        row = {
            "entry": entry.to_dict(),
            "clean_text": clean.clean_text,
            "removed": clean.removed,
            "relevant": None,
            "safety": None,
        }
        if clean.removed is not None:
            row["disposition"] = DISPOSITION_REMOVED
            return row
        flag = safety_screen(clean, session, lexicon)
        row["safety"] = {"flagged": flag.flagged, "trigger": flag.trigger}
        if flag.flagged:
            # quarantined entries are retained without a relevance verdict
            row["disposition"] = DISPOSITION_FLAGGED
            return row
        verdict = is_relevant(clean, session)
        if verdict is None:
            row["relevant"] = "unknown"
            row["disposition"] = DISPOSITION_UNKNOWN
        elif verdict:
            row["relevant"] = True
            row["disposition"] = DISPOSITION_RETAINED
        else:
            row["relevant"] = False
            row["disposition"] = DISPOSITION_IRRELEVANT
        return row

    rows = _map_items(cohort_entries, process, config.limits.concurrency)
    runfiles.write_jsonl(run_dir / runfiles.FILTERED, rows)

    dispositions = [row["disposition"] for row in rows]
    return {
        "input_entries": len(rows),
        "removed": dispositions.count(DISPOSITION_REMOVED),
        "flagged": dispositions.count(DISPOSITION_FLAGGED),
        "relevant": dispositions.count(DISPOSITION_RETAINED),
        "irrelevant": dispositions.count(DISPOSITION_IRRELEVANT),
        "relevance_unknown": dispositions.count(DISPOSITION_UNKNOWN),
        "retained": sum(1 for d in dispositions if d in _RETAINED),
    }


def _from_row(cls, row: dict):
    """The dataclass ``cls`` built from the row keys that name its fields."""
    return cls(**{f.name: row[f.name] for f in fields(cls)})


def _clean_from_row(row: dict) -> CleanEntry:
    return CleanEntry(
        entry=_from_row(RawEntry, row["entry"]),
        clean_text=row["clean_text"],
        removed=row.get("removed"),
    )


def stage_extract(
    run_dir: Path, config: PipelineConfig, session: LlmSession, manifest: dict
) -> dict:
    """Per-entry non-temporal features and temporal annotations."""
    filtered = runfiles.read_jsonl(run_dir / runfiles.FILTERED, "filter")
    retained = [row for row in filtered if row["disposition"] in _RETAINED]

    def process(row: dict) -> dict:
        clean = _clean_from_row(row)
        flagged = row["disposition"] == DISPOSITION_FLAGGED
        flag = SafetyFlag(
            entry_id=clean.entry.id,
            flagged=flagged,
            trigger=(row.get("safety") or {}).get("trigger"),
        )
        out = {
            "entry_id": clean.entry.id,
            "author": clean.entry.author,
            "kind": clean.entry.kind,
            "created_utc": clean.entry.created_utc,
            "flagged": flagged,
        }
        features, failure = extract_non_temporal(clean, flag, session)
        if failure is not None:
            out.update({"status": "parse_failure", "failure": failure})
            return out
        if flagged:
            # quarantine gate: no temporal call either; creation time kept
            annotation = TemporalAnnotation(creation_time=clean.entry.created_utc)
            degraded = False
        else:
            annotation, degraded = extract_temporal(clean, session)
        out.update(
            {
                "status": "ok",
                "severity": features.severity,
                "causes": features.causes,
                "tone": features.tone,
                "disorders": features.disorders,
                "timeline": annotation.timeline,
                "temporal_degraded": degraded,
            }
        )
        return out

    rows = _map_items(retained, process, config.limits.concurrency)
    runfiles.write_jsonl(run_dir / runfiles.FEATURES, rows)
    ok_rows = [row for row in rows if row["status"] == "ok"]
    return {
        "input_entries": len(retained),
        "features_ok": len(ok_rows),
        "parse_failures": len(rows) - len(ok_rows),
        "flagged_entries": sum(1 for row in rows if row["flagged"]),
        "timeline_found": sum(1 for row in ok_rows if row.get("timeline") is not None),
        "temporal_degraded": sum(1 for row in ok_rows if row.get("temporal_degraded")),
    }


def stage_aggregate(
    run_dir: Path, config: PipelineConfig, session: LlmSession, manifest: dict
) -> dict:
    """Build per-user records and produce both user-level summaries."""
    filtered = runfiles.read_jsonl(run_dir / runfiles.FILTERED, "filter")
    features = runfiles.read_jsonl(run_dir / runfiles.FEATURES, "extract")
    cohort = Cohort.from_dict(runfiles.read_json(run_dir / runfiles.COHORT, "ingest"))

    clean_by_id = {row["entry"]["id"]: row for row in filtered}
    entries: list[UserEntry] = []
    authors_by_entry: dict[str, str] = {}
    for row in features:
        if row["status"] != "ok":
            continue
        source = clean_by_id[row["entry_id"]]
        entries.append(
            UserEntry(
                entry_id=row["entry_id"],
                created_utc=row["created_utc"],
                kind=row["kind"],
                clean_text=source["clean_text"],
                features=_from_row(NonTemporalFeatures, row),
                annotation=TemporalAnnotation(
                    creation_time=row["created_utc"], timeline=row.get("timeline")
                ),
                flagged=row["flagged"],
            )
        )
        authors_by_entry[row["entry_id"]] = row["author"]

    cohort_order = [author for author, _ in cohort.users]
    records, omitted = build_user_records(cohort_order, entries, authors_by_entry)

    def process(record: UserRecord) -> dict:
        chronology = build_chronology(record, config.pipeline.event_content_budget)
        row = {
            "author": record.author,
            "status": None,
            "non_temporal": None,
            "temporal": None,
            "failure": None,
            "chronology": [asdict(event) for event in chronology.events],
            "monthly_counts": monthly_counts(record),
            "entry_count": len(record.entries),
            "flagged_entries": sum(1 for e in record.entries if e.flagged),
        }
        if not record.non_flagged():
            row["status"] = "safety_excluded"
            return row
        non_temporal, failure = summarize_non_temporal(record, session)
        if failure is not None:
            row["status"] = "summary_failure"
            row["failure"] = failure
            return row
        temporal, temporal_failure = summarize_temporal(record, chronology, session)
        if temporal_failure is not None:
            row["status"] = "summary_failure"
            row["failure"] = temporal_failure
            return row
        row["status"] = "ok"
        row["non_temporal"] = asdict(non_temporal)
        if temporal is not None:
            row["temporal"] = asdict(temporal)
        return row

    rows = _map_items(records, process, config.limits.concurrency)
    runfiles.write_jsonl(run_dir / runfiles.SUMMARIES, rows)
    statuses = [row["status"] for row in rows]
    return {
        "input_entries": len(entries),
        "cohort_users": len(cohort.users),
        "users_with_entries": len(records),
        "summarized": statuses.count("ok"),
        "summary_failures": statuses.count("summary_failure"),
        "safety_excluded": statuses.count("safety_excluded"),
        "omitted_no_entries": omitted,
        "temporal_summaries": sum(1 for row in rows if row["temporal"] is not None),
    }


def stage_diagnose(
    run_dir: Path, config: PipelineConfig, session: LlmSession, manifest: dict
) -> dict:
    """Fused diagnosis summary for every successfully summarized user."""
    summaries = runfiles.read_jsonl(run_dir / runfiles.SUMMARIES, "aggregate")
    ready = [row for row in summaries if row["status"] == "ok"]

    def process(row: dict) -> dict:
        temporal = TemporalSummary(**row["temporal"]) if row["temporal"] else None
        summary, failure = diagnose(
            row["author"],
            NonTemporalSummary(**row["non_temporal"]),
            temporal,
            session,
            slack=config.pipeline.word_budget_slack,
        )
        if failure is not None:
            return {"author": row["author"], "status": "diagnosis_failure", "failure": failure}
        return {"author": summary.author, "status": "ok", **asdict(summary)}

    rows = _map_items(ready, process, config.limits.concurrency)
    runfiles.write_jsonl(run_dir / runfiles.DIAGNOSIS, rows)
    diagnosed = [row for row in rows if row["status"] == "ok"]
    return {
        "input_users": len(ready),
        "diagnosed": len(diagnosed),
        "failures": len(rows) - len(diagnosed),
        "over_budget": sum(1 for row in diagnosed if row["over_budget"]),
    }


def stage_recommend(
    run_dir: Path, config: PipelineConfig, session: LlmSession, manifest: dict
) -> dict:
    """Recommendation sets for diagnosed users; escalations for safety-excluded ones."""
    summaries = runfiles.read_jsonl(run_dir / runfiles.SUMMARIES, "aggregate")
    diagnosis_rows = runfiles.read_jsonl(run_dir / runfiles.DIAGNOSIS, "diagnose")
    diagnosis_by_author = {row["author"]: row for row in diagnosis_rows}
    blocklist = load_lexicon(packaged_path("data/medication_blocklist.txt"))

    diagnosed = [
        row
        for row in summaries
        if row["status"] == "ok"
        and diagnosis_by_author.get(row["author"], {}).get("status") == "ok"
    ]

    def process(row: dict) -> dict:
        diag = _from_row(DiagnosisSummary, diagnosis_by_author[row["author"]])
        rec, failure = recommend(diag, session, blocklist)
        if failure is not None:
            return {
                "author": row["author"],
                "status": "recommendation_failure",
                "failure": failure,
            }
        return {"author": rec.author, "status": "ok", **asdict(rec)}

    generated = _map_items(diagnosed, process, config.limits.concurrency)
    generated_by_author = {row["author"]: row for row in generated}

    rows: list[dict] = []
    escalations = 0
    for row in summaries:
        if row["status"] == "safety_excluded":
            rows.append(safety_notice(row["author"]))
            escalations += 1
        elif row["author"] in generated_by_author:
            rows.append(generated_by_author[row["author"]])
    runfiles.write_jsonl(run_dir / runfiles.RECOMMENDATIONS, rows)

    ok_rows = [row for row in rows if row["status"] == "ok"]
    return {
        "input_users": len(diagnosed),
        "sets": len(ok_rows),
        "failures": sum(1 for row in rows if row["status"] == "recommendation_failure"),
        "escalations": escalations,
        "truncation_warnings": sum(
            1 for row in ok_rows if any("truncated" in w for w in row["warnings"])
        ),
    }


def stage_interact(
    run_dir: Path, config: PipelineConfig, session: LlmSession, manifest: dict
) -> dict:
    """Pair retained comments with their posts and classify each pair."""
    filtered = runfiles.read_jsonl(run_dir / runfiles.FILTERED, "filter")
    retained_rows = [row for row in filtered if row["disposition"] in _RETAINED]
    retained = [_clean_from_row(row) for row in retained_rows]
    flagged_ids = {
        row["entry"]["id"] for row in retained_rows if row["disposition"] == DISPOSITION_FLAGGED
    }

    pairs, skipped = pair_entries(retained, flagged_ids)

    def process(pair) -> dict:
        record = classify_relation(pair, session)
        return {
            "post_id": record.post_id,
            "comment_id": record.comment_id,
            "post_author": pair.post.entry.author,
            "comment_author": pair.comment.entry.author,
            "relation": record.relation,
            "detail": record.detail,
        }

    rows = _map_items(pairs, process, config.limits.concurrency)
    runfiles.write_jsonl(run_dir / runfiles.RELATIONS, rows)
    return {
        "input_comments": sum(1 for c in retained if c.entry.kind == "comment"),
        "pairs": len(pairs),
        "skipped_no_parent": skipped,
        "classified": len(rows),
        "unprocessed_safety": sum(1 for row in rows if row["relation"] == "unprocessed_safety"),
    }


def stage_report(run_dir: Path, config: PipelineConfig, session: None, manifest: dict) -> dict:
    stage_stats = {
        name: record.get("stats", {})
        for name, record in manifest.get("stages", {}).items()
        if record.get("status") == "ok" and name != "report"
    }
    return emit_reports(run_dir, config, stage_stats)


# ---------------------------------------------------------------------------
# Stage table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageDef:
    """One stage: its function, the stages it follows, the run-dir files it
    reads and writes, and the resource files whose bytes its outputs depend on."""

    name: str
    run: Callable[[Path, PipelineConfig, LlmSession | None, dict], dict]
    deps: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    resources: tuple[str, ...] = ()
    uses_backend: bool = True


# Each entry: name, function, deps / run-dir inputs, outputs / resources.
STAGES: tuple[StageDef, ...] = (
    StageDef(
        "ingest", stage_ingest, (),
        (), (runfiles.ENTRIES, runfiles.REJECTS, runfiles.COHORT),
        uses_backend=False,
    ),
    StageDef(
        "filter", stage_filter, ("ingest",),
        (runfiles.ENTRIES, runfiles.COHORT), (runfiles.FILTERED,),
        ("prompts/relevance.txt", "prompts/safety.txt", LEXICON),
    ),
    StageDef(
        "extract", stage_extract, ("filter",),
        (runfiles.FILTERED,), (runfiles.FEATURES,),
        ("prompts/extract_features.txt", "prompts/extract_temporal.txt"),
    ),
    StageDef(
        "aggregate", stage_aggregate, ("filter", "extract"),
        (runfiles.FILTERED, runfiles.FEATURES, runfiles.COHORT), (runfiles.SUMMARIES,),
        ("prompts/summary_non_temporal.txt", "prompts/summary_temporal.txt"),
    ),
    StageDef(
        "diagnose", stage_diagnose, ("aggregate",),
        (runfiles.SUMMARIES,), (runfiles.DIAGNOSIS,),
        ("prompts/diagnosis.txt",),
    ),
    StageDef(
        "recommend", stage_recommend, ("diagnose", "aggregate"),
        (runfiles.DIAGNOSIS, runfiles.SUMMARIES), (runfiles.RECOMMENDATIONS,),
        ("prompts/recommendation.txt", "data/medication_blocklist.txt"),
    ),
    StageDef(
        "interact", stage_interact, ("filter",),
        (runfiles.FILTERED,), (runfiles.RELATIONS,),
        ("prompts/relation.txt",),
    ),
    StageDef(
        "report",
        stage_report,
        ("ingest", "filter", "extract", "aggregate", "diagnose", "recommend", "interact"),
        (
            runfiles.COHORT,
            runfiles.FILTERED,
            runfiles.FEATURES,
            runfiles.SUMMARIES,
            runfiles.DIAGNOSIS,
            runfiles.RECOMMENDATIONS,
            runfiles.RELATIONS,
        ),
        (runfiles.REPORTS_DIR,),
        ("data/therapy_aliases.json",),
        uses_backend=False,
    ),
)

STAGE_NAMES = tuple(stage.name for stage in STAGES)
_STAGE_BY_NAME = {stage.name: stage for stage in STAGES}


def resource_paths(stage: StageDef, config: PipelineConfig) -> list[Path]:
    """The files outside the run directory whose bytes the stage's outputs depend on."""
    names = list(stage.resources)
    if stage.uses_backend and config.backend.kind != BACKEND_HTTP:
        names.append(MOCK_RULES)
    paths = []
    for name in names:
        folder, _, file_name = name.partition("/")
        if name == LEXICON:
            paths.append(config.lexicon_path())
        elif folder == "prompts":
            paths.append(config.prompts_dir() / file_name)
        else:
            paths.append(packaged_path(name))
    return paths


# ---------------------------------------------------------------------------
# Manifest, digests, resume
# ---------------------------------------------------------------------------


def _digest_paths(paths: list[Path], base: Path | None = None) -> str:
    hasher = hashlib.sha256()
    for path in paths:
        label = str(path.relative_to(base)) if base and path.is_relative_to(base) else path.name
        hasher.update(label.encode("utf-8"))
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
        hasher.update(b"\0")
    return hasher.hexdigest()


def _expand(run_dir: Path, names: tuple[str, ...]) -> list[Path]:
    paths: list[Path] = []
    for name in names:
        path = run_dir / name
        if path.is_dir():
            paths.extend(sorted(p for p in path.rglob("*") if p.is_file()))
        else:
            paths.append(path)
    return paths


def stage_input_digest(
    stage: StageDef, run_dir: Path, config: PipelineConfig, input_paths: list[str]
) -> str:
    if stage.name == "ingest":
        inputs = [Path(p) for p in input_paths]
    else:
        inputs = _expand(run_dir, stage.inputs)
    return _digest_paths(inputs + resource_paths(stage, config), base=run_dir)


def stage_output_digest(stage: StageDef, run_dir: Path) -> str | None:
    paths = _expand(run_dir, stage.outputs)
    if not paths or not all(p.exists() for p in paths):
        return None
    return _digest_paths(paths, base=run_dir)


def config_digest(config: PipelineConfig) -> str:
    """Digest of the config and the tool version; a change in either re-runs every stage."""
    source = f"{__version__}\0{config.digest_source()}"
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def load_manifest(run_dir: Path) -> dict | None:
    path = run_dir / runfiles.MANIFEST
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def save_manifest(run_dir: Path, manifest: dict) -> None:
    runfiles.write_json(run_dir / runfiles.MANIFEST, manifest)


def new_manifest(config: PipelineConfig, input_paths: list[str]) -> dict:
    return {
        "tool_version": __version__,
        "config": config.snapshot(),
        "config_digest": config_digest(config),
        "input_paths": input_paths,
        "stages": {},
        "stage_order": [],
        "cache": {"hits": 0, "misses": 0, "hit_ratio": None},
    }


@contextmanager
def _open_run(
    config: PipelineConfig, input_paths: list[Path] | None, run_dir: Path
) -> Iterator[dict]:
    """Lock the run directory and yield its manifest, set to this config and these inputs."""
    run_dir.mkdir(parents=True, exist_ok=True)
    with RunLock(run_dir):
        manifest = load_manifest(run_dir) or new_manifest(config, [])
        manifest["tool_version"] = __version__
        manifest["config"] = config.snapshot()
        manifest["config_digest"] = config_digest(config)
        if input_paths:
            manifest["input_paths"] = [str(p) for p in input_paths]
        yield manifest


class RunLock:
    """One process owns one run directory; stale locks from dead pids are reclaimed."""

    def __init__(self, run_dir: Path):
        self.path = run_dir / runfiles.LOCK_FILE

    def __enter__(self) -> "RunLock":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            handle = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            owner = self._owner()
            if owner is not None and _pid_alive(owner):
                raise RunLockedError(
                    f"run directory locked by pid {owner}: {self.path}"
                ) from None
            self.path.unlink(missing_ok=True)
            handle = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.write(handle, str(os.getpid()).encode("ascii"))
        os.close(handle)
        return self

    def __exit__(self, *exc_info) -> None:
        self.path.unlink(missing_ok=True)

    def _owner(self) -> int | None:
        try:
            return int(self.path.read_text(encoding="ascii").strip())
        except (OSError, ValueError):
            return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def execute_stage(name: str, run_dir: Path, config: PipelineConfig, manifest: dict) -> dict:
    """Run one stage, record its manifest entry, persist the backend log."""
    stage = _STAGE_BY_NAME[name]
    session = build_session(config, run_dir) if stage.uses_backend else None
    started = time.time()
    logger.info("stage %s: running", name)
    try:
        stats = stage.run(run_dir, config, session, manifest)
        # a resource file that is missing fails the stage here, not in a traceback
        input_digest = stage_input_digest(stage, run_dir, config, manifest["input_paths"])
    except Exception as exc:
        manifest["stages"][name] = {
            "status": "failed",
            "error": str(exc),
            "started_at": started,
            "finished_at": time.time(),
        }
        manifest["stage_order"].append(name)
        save_manifest(run_dir, manifest)
        if isinstance(exc, StageError):
            raise
        raise StageError(name, str(exc)) from exc
    finally:
        if session is not None:
            session.close()

    stats["cache_hits"] = session.hits if session else 0
    stats["cache_misses"] = session.misses if session else 0
    _write_backend_log(run_dir, name, session)
    record = {
        "status": "ok",
        "input_digest": input_digest,
        "output_digest": stage_output_digest(stage, run_dir),
        "config_digest": manifest["config_digest"],
        "started_at": started,
        "finished_at": time.time(),
        "stats": stats,
    }
    manifest["stages"][name] = record
    manifest["stage_order"].append(name)
    _refresh_cache_totals(manifest)
    save_manifest(run_dir, manifest)
    logger.info("stage %s: done", name)
    return record


def _refresh_cache_totals(manifest: dict) -> None:
    ok = [r["stats"] for r in manifest["stages"].values() if r.get("status") == "ok"]
    hits = sum(stats["cache_hits"] for stats in ok)
    misses = sum(stats["cache_misses"] for stats in ok)
    total = hits + misses
    manifest["cache"] = {
        "hits": hits,
        "misses": misses,
        "hit_ratio": (hits / total) if total else None,
    }


def _stage_clean(
    stage: StageDef, run_dir: Path, config: PipelineConfig, manifest: dict, reran: set[str]
) -> bool:
    if any(dep in reran for dep in stage.deps):
        return False
    record = manifest["stages"].get(stage.name)
    if record is None or record.get("status") != "ok":
        return False
    if record.get("config_digest") != manifest["config_digest"]:
        return False
    try:
        digest = stage_input_digest(stage, run_dir, config, manifest["input_paths"])
    except FileNotFoundError:
        return False
    if record.get("input_digest") != digest:
        return False
    current_output = stage_output_digest(stage, run_dir)
    return current_output is not None and current_output == record.get("output_digest")


def run_all(
    config: PipelineConfig,
    input_paths: list[Path] | None,
    run_dir: Path,
) -> dict:
    """Execute all stages in order, resuming past intact ones.

    Returns the final run manifest. ``input_paths`` may be omitted when
    resuming a directory whose manifest already records them.
    """
    with _open_run(config, input_paths, run_dir) as manifest:
        if not manifest["input_paths"]:
            raise StageError("ingest", "no input paths given and none recorded in the manifest")
        reran: set[str] = set()
        for stage in STAGES:
            if _stage_clean(stage, run_dir, config, manifest, reran):
                logger.info("stage %s: up to date, skipping", stage.name)
                continue
            execute_stage(stage.name, run_dir, config, manifest)
            reran.add(stage.name)
        save_manifest(run_dir, manifest)
    return manifest


def run_stage(
    name: str, config: PipelineConfig, input_paths: list[Path] | None, run_dir: Path
) -> dict:
    """Execute one stage on a run directory, whether or not its record is intact."""
    with _open_run(config, input_paths, run_dir) as manifest:
        return execute_stage(name, run_dir, config, manifest)


def cache_stats(
    run_dir: Path | None = None, cache_dir: Path | None = None
) -> tuple[int, int, float | None]:
    """(entries, database file bytes, last-run hit ratio) for a cache or run directory.

    A cache directory without a database reads as (0, 0, ...) and is left as it is.
    """
    if cache_dir is None:
        if run_dir is None:
            raise ValueError("cache_stats needs a run or cache directory")
        cache_dir = run_dir / "cache"
    if not Path(cache_dir).exists():
        raise FileNotFoundError(f"cache directory does not exist: {cache_dir}")
    entries, size = read_stats(cache_dir)
    ratio = None
    if run_dir is not None:
        manifest = load_manifest(Path(run_dir))
        if manifest is not None:
            ratio = manifest.get("cache", {}).get("hit_ratio")
    return entries, size, ratio
