"""Stage orchestration: the stage table, run directory, manifest and resume.

Stage graph (deps in parentheses):

    ingest() -> filter(ingest) -> extract(filter)
    aggregate(ingest, filter, extract) -> diagnose(aggregate) -> recommend(diagnose, aggregate)
    interact(filter)
    report(extract, aggregate, diagnose, recommend, interact)

``STAGES`` is the one description of a stage: its function, the run-dir
files it reads and writes, and the resource files (prompt templates, data
files) it reads. A stage's deps are the producers of its inputs, and it
uses the backend when it renders prompts. ``run-all``, the single-stage CLI
and the skip check all read the table.

Only ``execute_stage`` touches the run directory for a stage. It reads the
declared inputs, calls ``stage.run(inputs, config, session, manifest)``,
which returns ``({relative path: rows | object | text}, stats)``, and
writes those files only after the stage body and its input digest have
both succeeded. The files must fill exactly the stage's declared outputs
(a directory output, ``reports``, holds several, and any other file in it
is deleted). One backend session serves the whole run: it is built at the
first backend stage that executes and closed when the run ends.

A stage's ``stats`` hold only facts about its rows. A backend stage's
manifest record also holds its cache hits and misses (``cache``), and the
manifest's ``cache`` block totals them; ``reports/`` holds neither, so it
is the same for a cold and a warm-cache run. The manifest's ``request``
block holds the parameters that every logged request was sent with.

A stage is skipped on rerun when its manifest record is intact: same
config digest (the config plus the tool version), same input digest,
outputs present with the recorded digest, and no upstream stage
re-executed this invocation. The input digest covers the bytes of the
stage's run-dir inputs (the dump files, for ingest), of its resource
files, and of the mock rule table when a backend stage runs on the mock.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields
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
from .config import BACKEND_HTTP, PipelineConfig, packaged_path, run_cache_dir
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
    EntryRef,
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
from .llm.session import CallRecord, LlmSession
from .llm.templates import load_templates
from .recommendation import load_aliases, recommend, safety_notice
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


def _write_backend_log(run_dir: Path, stage: str, records: list[CallRecord]) -> None:
    path = run_dir / runfiles.LOGS_DIR / f"backend_{stage}.jsonl"
    # a CallRecord nests no dataclass, so vars() is already its row, in field order
    runfiles.write_jsonl(path, (vars(record) for record in records))


# ---------------------------------------------------------------------------
# Stage implementations
# ---------------------------------------------------------------------------


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
    cohort_entries = sum(user["entry_count"] for user in cohort.users)
    files = {
        runfiles.ENTRIES: [vars(entry) for entry in entries],
        runfiles.REJECTS: reject_rows,
        runfiles.COHORT: vars(cohort),
    }
    return files, {
        "lines": lines,
        "parsed": len(entries),
        "rejected": len(reject_rows),
        "distinct_authors": len({entry.author for entry in entries}),
        "cohort_authors": len(cohort.users),
        "cohort_entries": cohort_entries,
        "noncohort_entries": len(entries) - cohort_entries,
    }


def stage_filter(
    inputs: dict, config: PipelineConfig, session: LlmSession, manifest: dict
) -> StageResult:
    """Clean, safety-screen, and relevance-filter the cohort's entries."""
    cohort_authors = Cohort(**inputs[runfiles.COHORT]).authors()
    lexicon = load_lexicon(config.lexicon_path())

    cohort_rows = [row for row in inputs[runfiles.ENTRIES] if row["author"] in cohort_authors]

    def process(entry_row: dict) -> dict:
        clean = clean_entry(RawEntry(**entry_row))
        row = {**vars(clean), "entry": vars(clean.entry), "relevant": None, "safety": None}
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


def _from_row(cls, row: dict):
    """The dataclass ``cls`` built from the row keys that name its fields."""
    return cls(**{f.name: row[f.name] for f in fields(cls)})


def _clean_from_row(row: dict) -> CleanEntry:
    return CleanEntry(EntryRef(**row["entry"]), row["clean_text"], row["removed"])


def stage_extract(
    inputs: dict, config: PipelineConfig, session: LlmSession, manifest: dict
) -> StageResult:
    """Per-entry non-temporal features and temporal annotations."""
    retained = [row for row in inputs[runfiles.FILTERED] if row["disposition"] in _RETAINED]

    def process(row: dict) -> dict:
        clean = _clean_from_row(row)
        flagged = row["disposition"] == DISPOSITION_FLAGGED
        flag = SafetyFlag(entry_id=clean.entry.id, flagged=flagged)
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
            status="ok", **vars(features), timeline=annotation.timeline, temporal_degraded=degraded
        )
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
    cohort = Cohort(**inputs[runfiles.COHORT])
    clean_text_by_id = {row["entry"]["id"]: row["clean_text"] for row in inputs[runfiles.FILTERED]}
    entries: list[UserEntry] = []
    authors_by_entry: dict[str, str] = {}
    for row in inputs[runfiles.FEATURES]:
        if row["status"] != "ok":
            continue
        entries.append(
            UserEntry(
                entry_id=row["entry_id"],
                created_utc=row["created_utc"],
                kind=row["kind"],
                clean_text=clean_text_by_id[row["entry_id"]],
                features=_from_row(NonTemporalFeatures, row),
                annotation=TemporalAnnotation(
                    creation_time=row["created_utc"], timeline=row.get("timeline")
                ),
                flagged=row["flagged"],
            )
        )
        authors_by_entry[row["entry_id"]] = row["author"]

    cohort_order = [user["author"] for user in cohort.users]
    records, omitted = build_user_records(cohort_order, entries, authors_by_entry)

    def process(record: UserRecord) -> dict:
        chronology = build_chronology(record, config.pipeline.event_content_budget)
        row = {
            "author": record.author,
            "status": None,
            "non_temporal": None,
            "temporal": None,
            "failure": None,
            "chronology": [vars(event) for event in chronology.events],
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
        row["non_temporal"] = vars(non_temporal)
        if temporal is not None:
            row["temporal"] = vars(temporal)
        return row

    rows = _map_items(records, process, config.limits.concurrency)
    statuses = [row["status"] for row in rows]
    return {runfiles.SUMMARIES: rows}, {
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
    inputs: dict, config: PipelineConfig, session: LlmSession, manifest: dict
) -> StageResult:
    """Fused diagnosis summary for every successfully summarized user."""
    ready = [row for row in inputs[runfiles.SUMMARIES] if row["status"] == "ok"]

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
        return {"author": summary.author, "status": "ok", **vars(summary)}

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
        diag = _from_row(DiagnosisSummary, diagnosis_by_author[row["author"]])
        rec, failure = recommend(diag, session, blocklist)
        if failure is not None:
            return {
                "author": row["author"],
                "status": "recommendation_failure",
                "failure": failure,
            }
        return {"author": rec.author, "status": "ok", **vars(rec)}

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
    retained_rows = [row for row in inputs[runfiles.FILTERED] if row["disposition"] in _RETAINED]
    retained = [_clean_from_row(row) for row in retained_rows]
    flagged_ids = {
        row["entry"]["id"] for row in retained_rows if row["disposition"] == DISPOSITION_FLAGGED
    }

    pairs, skipped = pair_entries(retained, flagged_ids)

    def process(pair) -> dict:
        return vars(classify_relation(pair, session))

    rows = _map_items(pairs, process, config.limits.concurrency)
    return {runfiles.RELATIONS: rows}, {
        "input_comments": sum(1 for c in retained if c.entry.kind == "comment"),
        "pairs": len(pairs),
        "skipped_no_parent": skipped,
        "classified": len(rows),
        "unprocessed_safety": sum(1 for row in rows if row["relation"] == "unprocessed_safety"),
    }


def stage_report(
    inputs: dict, config: PipelineConfig, session: None, manifest: dict
) -> StageResult:
    """Per-user and run reports from the stage rows and the recorded stage stats."""
    stage_stats = {
        name: record.get("stats", {})
        for name, record in manifest.get("stages", {}).items()
        if record.get("status") == "ok" and name != "report"
    }
    aliases = load_aliases(packaged_path("data/therapy_aliases.json"))
    files = emit_reports(inputs, stage_stats, aliases)
    users = {row["author"] for row in inputs[runfiles.SUMMARIES]}
    return files, {"users_reported": len(users), "run_report": 1}


# ---------------------------------------------------------------------------
# Stage table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageDef:
    """One stage: its function, the run-dir files it reads and writes, and the
    resource files whose bytes its outputs depend on."""

    name: str
    run: Callable[[dict, PipelineConfig, LlmSession | None, dict], StageResult]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    resources: tuple[str, ...] = ()

    @property
    def deps(self) -> tuple[str, ...]:
        """The stages that produce this stage's inputs."""
        return tuple(dict.fromkeys(_PRODUCERS[name] for name in self.inputs))

    @property
    def uses_backend(self) -> bool:
        return any(name.startswith("prompts/") for name in self.resources)


# Each entry: name, function, run-dir inputs, outputs, resources.
STAGES: tuple[StageDef, ...] = (
    StageDef("ingest", stage_ingest, (), (runfiles.ENTRIES, runfiles.REJECTS, runfiles.COHORT)),
    StageDef(
        "filter", stage_filter,
        (runfiles.ENTRIES, runfiles.COHORT), (runfiles.FILTERED,),
        ("prompts/relevance.txt", "prompts/safety.txt", LEXICON),
    ),
    StageDef(
        "extract", stage_extract,
        (runfiles.FILTERED,), (runfiles.FEATURES,),
        ("prompts/extract_features.txt", "prompts/extract_temporal.txt"),
    ),
    StageDef(
        "aggregate", stage_aggregate,
        (runfiles.FILTERED, runfiles.FEATURES, runfiles.COHORT), (runfiles.SUMMARIES,),
        ("prompts/summary_non_temporal.txt", "prompts/summary_temporal.txt"),
    ),
    StageDef(
        "diagnose", stage_diagnose,
        (runfiles.SUMMARIES,), (runfiles.DIAGNOSIS,),
        ("prompts/diagnosis.txt",),
    ),
    StageDef(
        "recommend", stage_recommend,
        (runfiles.DIAGNOSIS, runfiles.SUMMARIES), (runfiles.RECOMMENDATIONS,),
        ("prompts/recommendation.txt", "data/medication_blocklist.txt"),
    ),
    StageDef(
        "interact", stage_interact,
        (runfiles.FILTERED,), (runfiles.RELATIONS,),
        ("prompts/relation.txt",),
    ),
    StageDef(
        "report", stage_report,
        (
            runfiles.FEATURES,
            runfiles.SUMMARIES,
            runfiles.DIAGNOSIS,
            runfiles.RECOMMENDATIONS,
            runfiles.RELATIONS,
        ),
        (runfiles.REPORTS_DIR,),
        ("data/therapy_aliases.json",),
    ),
)

STAGE_NAMES = tuple(stage.name for stage in STAGES)
_STAGE_BY_NAME = {stage.name: stage for stage in STAGES}
_PRODUCERS = {output: stage.name for stage in STAGES for output in stage.outputs}


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


# a file is hashed through one buffer of this size, not read whole: even a
# 1 MiB buffer raises every stage's heap peak at 3x by about 0.8 MB
_DIGEST_CHUNK = 64 * 1024


def _digest_paths(paths: list[Path], base: Path | None = None) -> str:
    hasher = hashlib.sha256()
    buffer = bytearray(_DIGEST_CHUNK)
    view = memoryview(buffer)
    for path in paths:
        label = str(path.relative_to(base)) if base and path.is_relative_to(base) else path.name
        hasher.update(label.encode("utf-8"))
        hasher.update(b"\0")
        with path.open("rb") as handle:
            while size := handle.readinto(buffer):
                hasher.update(view[:size])
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
) -> Iterator[tuple[dict, Callable[[], LlmSession]]]:
    """Lock the run directory; yield its manifest, set to this config and these
    inputs, and a getter for the run's one backend session.

    The session is built at the getter's first call and closed when the run
    ends, so a run that executes no backend stage needs no credentials.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    with RunLock(run_dir):
        manifest = load_manifest(run_dir) or new_manifest(config, [])
        manifest["tool_version"] = __version__
        manifest["config"] = config.snapshot()
        manifest["config_digest"] = config_digest(config)
        if input_paths:
            manifest["input_paths"] = [str(p) for p in input_paths]
        built: list[LlmSession] = []

        def get_session() -> LlmSession:
            if not built:
                built.append(build_session(config, run_dir))
                # the parameters every logged request was sent with, recorded once
                manifest["request"] = built[0].params
            return built[0]

        try:
            yield manifest, get_session
        finally:
            for opened in built:
                opened.close()


class RunLock:
    """One process owns one run directory, through an exclusive ``flock`` on ``.lock``.

    The kernel releases the lock when its owner exits, however it exits, so
    a lock is never stale. The file stays in place: unlinking it would let
    one process lock a new file of that name while another still holds the
    old one. While held, it carries the owner's pid, for the error message.
    """

    def __init__(self, run_dir: Path):
        self.path = run_dir / runfiles.LOCK_FILE

    def __enter__(self) -> "RunLock":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            owner = os.read(fd, 32).decode("ascii", "replace").strip() or "unknown"
            os.close(fd)
            raise RunLockedError(f"run directory locked by pid {owner}: {self.path}") from None
        os.ftruncate(fd, 0)
        os.write(fd, str(os.getpid()).encode("ascii"))
        self._fd = fd
        return self

    def __exit__(self, *exc_info) -> None:
        os.ftruncate(self._fd, 0)
        os.close(self._fd)  # releases the lock


def execute_stage(
    name: str,
    run_dir: Path,
    config: PipelineConfig,
    manifest: dict,
    get_session: Callable[[], LlmSession],
) -> dict:
    """Run one stage: read its inputs, call it, write its outputs and backend log,
    and record it in the manifest. ``get_session`` returns the run's backend session."""
    stage = _STAGE_BY_NAME[name]
    session = get_session() if stage.uses_backend else None
    records: list[CallRecord] = []
    started = time.time()
    logger.info("stage %s: running", name)
    try:
        inputs = {path: runfiles.read(run_dir / path, _PRODUCERS[path]) for path in stage.inputs}
        files, stats = stage.run(inputs, config, session, manifest)
        # a resource file that is missing fails the stage here, before any output is written
        input_digest = stage_input_digest(stage, run_dir, config, manifest["input_paths"])
        written = {path.split("/")[0] for path in files}
        if written != set(stage.outputs):
            raise StageError(name, f"wrote {sorted(written)}, declares {sorted(stage.outputs)}")
        for path, content in files.items():
            runfiles.write(run_dir / path, content)
        # a directory output holds exactly what the stage returned, not an earlier run's files
        for path in _expand(run_dir, stage.outputs):
            if path.relative_to(run_dir).as_posix() not in files:
                path.unlink()
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
            records = session.take_records()  # the next stage's calls are numbered from 1

    counts = {}
    if session is not None:
        _write_backend_log(run_dir, name, records)
        hits = sum(r.cache_hit for r in records)
        counts["cache"] = {"hits": hits, "misses": len(records) - hits}
    record = {
        "status": "ok",
        "input_digest": input_digest,
        "output_digest": stage_output_digest(stage, run_dir),
        "config_digest": manifest["config_digest"],
        "started_at": started,
        "finished_at": time.time(),
        "stats": stats,
        **counts,
    }
    manifest["stages"][name] = record
    manifest["stage_order"].append(name)
    _refresh_cache_totals(manifest)
    save_manifest(run_dir, manifest)
    logger.info("stage %s: done", name)
    return record


def _refresh_cache_totals(manifest: dict) -> None:
    # only an ok record of a backend stage, written by this version, has counts
    counts = [r["cache"] for r in manifest["stages"].values() if "cache" in r]
    hits = sum(c["hits"] for c in counts)
    misses = sum(c["misses"] for c in counts)
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
    with _open_run(config, input_paths, run_dir) as (manifest, get_session):
        if not manifest["input_paths"]:
            raise StageError("ingest", "no input paths given and none recorded in the manifest")
        reran: set[str] = set()
        for stage in STAGES:
            if _stage_clean(stage, run_dir, config, manifest, reran):
                logger.info("stage %s: up to date, skipping", stage.name)
                continue
            execute_stage(stage.name, run_dir, config, manifest, get_session)
            reran.add(stage.name)
        save_manifest(run_dir, manifest)
    return manifest


def run_stage(
    name: str, config: PipelineConfig, input_paths: list[Path] | None, run_dir: Path
) -> dict:
    """Execute one stage on a run directory, whether or not its record is intact."""
    with _open_run(config, input_paths, run_dir) as (manifest, get_session):
        return execute_stage(name, run_dir, config, manifest, get_session)


def cache_stats(
    run_dir: Path | None = None, cache_dir: Path | None = None
) -> tuple[int, int, float | None]:
    """(entries, database file bytes, last-run hit ratio) for a cache or run directory.

    A run directory's cache is the ``paths.cache_dir`` its manifest records, if
    any, else ``<run>/cache``; a recorded relative path is refused, since it
    names a directory relative to wherever the run was started. A cache
    directory without a database reads as (0, 0, ...) and is left as it is.
    """
    manifest = load_manifest(Path(run_dir)) if run_dir is not None else None
    if cache_dir is None:
        if run_dir is None:
            raise ValueError("cache_stats needs a run or cache directory")
        recorded = manifest["config"]["paths"]["cache_dir"] if manifest else None
        if recorded and not Path(recorded).is_absolute():
            raise ValueError(
                f"run {run_dir} used the relative paths.cache_dir {recorded!r}; "
                "name its cache with --cache-dir"
            )
        cache_dir = run_cache_dir(recorded, Path(run_dir))
    if not Path(cache_dir).exists():
        raise FileNotFoundError(f"cache directory does not exist: {cache_dir}")
    entries, size = read_stats(cache_dir)
    ratio = None if manifest is None else manifest.get("cache", {}).get("hit_ratio")
    return entries, size, ratio
