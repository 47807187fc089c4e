"""Stage orchestration: the stage table, the executor, the manifest and resume.

Stage graph (deps in parentheses):

    ingest() -> filter(ingest) -> extract(filter)
    aggregate(ingest, filter, extract) -> diagnose(aggregate) -> recommend(diagnose, aggregate)
    interact(filter)
    report(extract, aggregate, diagnose, recommend, interact)

``STAGES`` is the one description of a stage: its function, the run-dir
files it reads and writes, and the resource files (prompt templates, data
files) it reads. A stage's deps are the producers of its inputs, and it
uses the backend when it renders prompts. ``run-all``, the single-stage CLI
and the skip check all read the table. The stage bodies are in ``stages``,
except ``stage_report``, which reads the manifest's stage records.

Only ``execute_stage`` touches the run directory for a stage. It reads the
declared inputs, calls ``stage.run(inputs, config, session, manifest)``,
which returns ``({relative path: rows | object | text}, stats)``, and
writes those files only after the stage body and its input digest have
both succeeded. The files must fill exactly the stage's declared outputs
(a directory output, ``reports``, holds several, and any other file in it
is deleted). One backend session serves the whole run: it is built at the
first backend stage that executes and closed when the run ends.

A stage's ``stats`` hold only facts about its rows. A backend stage's
manifest record also holds its cache hits and misses (``cache``) and the
number of its calls that failed on a backend error (``failed_calls``); the
manifest's ``cache`` block totals the hits and misses. ``reports/`` holds
none of these, so it is the same for a cold and a warm-cache run. The
manifest's ``request`` block holds the parameters that every logged
request was sent with.

A stage is skipped on rerun when its manifest record is intact: same
config digest (the config plus the package's Python source, so any edit
to the code re-runs every stage), same input digest, outputs present with
the recorded digest, no failed backend call, and no upstream stage
re-executed this invocation. The input digest covers the bytes of the
stage's run-dir inputs (the dump files, for ingest), of its resource
files, and of the mock rule table when a backend stage runs on the mock.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import json
import logging
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from . import __version__, runfiles, stages
from .config import BACKEND_HTTP, PipelineConfig, packaged_path, run_cache_dir
from .errors import RunLockedError, StageError
from .llm.cache import ResponseCache, read_stats
from .llm.mock_backend import MockBackend
from .llm.ratelimit import RateLimiter
from .llm.session import CallRecord, LlmSession
from .llm.templates import load_templates
from .recommendation import load_aliases
from .reports import emit_reports

logger = logging.getLogger(__name__)


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
        from .llm.http_backend import HttpBackend  # imports http.client, which mock runs never use

        backend = HttpBackend(
            base_url=config.backend.base_url,
            api_key_env=config.backend.api_key_env,
            max_attempts=config.retry.max_attempts,
            limiter=RateLimiter(config.limits.rps),
        )
    else:
        backend = MockBackend(packaged_path(MOCK_RULES))
    cache = ResponseCache(config.cache_dir(run_dir), backend.identity)
    return LlmSession(backend, templates, model=config.backend.model, cache=cache)


def _write_backend_log(run_dir: Path, stage: str, records: list[CallRecord]) -> None:
    path = run_dir / runfiles.LOGS_DIR / f"backend_{stage}.jsonl"
    # a CallRecord nests no dataclass, so vars() is already its row, in field order
    runfiles.write_jsonl(path, (vars(record) for record in records))


# ---------------------------------------------------------------------------
# Stage implementations
# ---------------------------------------------------------------------------



def stage_report(
    inputs: dict, config: PipelineConfig, session: None, manifest: dict
) -> stages.StageResult:
    """Per-user and run reports from the stage rows and the recorded stage stats."""
    stage_stats = {
        name: record.get("stats", {})
        for name, record in manifest.get("stages", {}).items()
        if record.get("status") == "ok" and name != "report"
    }
    aliases = load_aliases(packaged_path("data/therapy_aliases.json"))
    files = emit_reports(inputs, stage_stats, aliases)
    return files, {"users_reported": len(inputs[runfiles.SUMMARIES]), "run_report": 1}


# ---------------------------------------------------------------------------
# Stage table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageDef:
    """One stage: its function, the run-dir files it reads and writes, and the
    resource files whose bytes its outputs depend on."""

    name: str
    run: Callable[[dict, PipelineConfig, LlmSession | None, dict], stages.StageResult]
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
    StageDef(
        "ingest", stages.stage_ingest,
        (), (runfiles.ENTRIES, runfiles.REJECTS, runfiles.COHORT),
    ),
    StageDef(
        "filter", stages.stage_filter,
        (runfiles.ENTRIES, runfiles.COHORT), (runfiles.FILTERED,),
        ("prompts/relevance.txt", "prompts/safety.txt", LEXICON),
    ),
    StageDef(
        "extract", stages.stage_extract,
        (runfiles.FILTERED,), (runfiles.FEATURES,),
        ("prompts/extract_features.txt", "prompts/extract_temporal.txt"),
    ),
    StageDef(
        "aggregate", stages.stage_aggregate,
        (runfiles.FILTERED, runfiles.FEATURES, runfiles.COHORT), (runfiles.SUMMARIES,),
        ("prompts/summary_non_temporal.txt", "prompts/summary_temporal.txt"),
    ),
    StageDef(
        "diagnose", stages.stage_diagnose,
        (runfiles.SUMMARIES,), (runfiles.DIAGNOSIS,),
        ("prompts/diagnosis.txt",),
    ),
    StageDef(
        "recommend", stages.stage_recommend,
        (runfiles.DIAGNOSIS, runfiles.SUMMARIES), (runfiles.RECOMMENDATIONS,),
        ("prompts/recommendation.txt", "data/medication_blocklist.txt"),
    ),
    StageDef(
        "interact", stages.stage_interact,
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


@functools.cache
def code_digest() -> str:
    """Digest of the package's Python source, computed once per process."""
    package = Path(__file__).parent
    return _digest_paths(sorted(package.rglob("*.py")), base=package)


def config_digest(config: PipelineConfig) -> str:
    """Digest of the package source and the config; a change in either re-runs every stage."""
    source = f"{code_digest()}\0{config.digest_source()}"
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def load_manifest(run_dir: Path) -> dict | None:
    path = run_dir / runfiles.MANIFEST
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def save_manifest(run_dir: Path, manifest: dict) -> None:
    runfiles.write_json(run_dir / runfiles.MANIFEST, manifest)


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
        manifest = load_manifest(run_dir) or {"input_paths": [], "stages": {}, "stage_order": []}
        manifest.setdefault("cache", {"hits": 0, "misses": 0, "hit_ratio": None})
        manifest.update(
            tool_version=__version__,
            code_digest=code_digest(),
            config=config.snapshot(),
            config_digest=config_digest(config),
        )
        if input_paths:
            manifest["input_paths"] = [os.path.abspath(p) for p in input_paths]
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
    failed_calls = 0
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
            # the next stage's calls are numbered from 1, and its failures counted from 0
            records, failed_calls = session.take_records()

    counts = {}
    if session is not None:
        _write_backend_log(run_dir, name, records)
        hits = sum(r.cache_hit for r in records)
        counts["cache"] = {"hits": hits, "misses": len(records) - hits}
        counts["failed_calls"] = failed_calls
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
    # only an ok record of a backend stage in the current layout has counts
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
    # a failed call is not cached, so a rerun may answer it: never trust such a record
    if record.get("failed_calls", 0):
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
