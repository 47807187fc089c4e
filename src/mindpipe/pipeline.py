"""Stage orchestration: the stage table, the executor, the manifest and resume.

Stage graph (each stage reads the outputs of those in parentheses):

    ingest() -> filter(ingest) -> extract(filter)
    aggregate(ingest, filter, extract) -> diagnose(aggregate) -> recommend(diagnose, aggregate)
    interact(filter)
    report(extract, aggregate, diagnose, recommend, interact)

``STAGES`` is the one description of a stage: its function, the run-dir
files it reads and writes, and the resource files it reads that a config
key can point elsewhere (its prompt templates, the safety lexicon). A
stage uses the backend when it renders prompts. ``run-all``, the
single-stage CLI and the skip check all read the table. The stage bodies
are in ``stages``, except ``stage_report``, which reads the manifest's
stage records.

Only ``execute_stage`` touches the run directory for a stage. It reads the
declared inputs, calls ``stage.run(inputs, config, session, manifest)``,
which returns ``({relative path: rows | object | text}, stats)``, and
writes those files only after the stage body and its input digest have
both succeeded. The files must fill exactly the stage's declared outputs
(a directory output, ``reports``, holds several, and any other file in it
is deleted). The run has one backend and one response cache: they are
opened at the first backend stage that executes and closed when the run
ends. Each backend stage gets its own session on them, made after the
stage's input digest is taken, with its declared templates loaded then, so
what a stage reads is exactly what its skip check digests.

A stage's ``stats`` hold only facts about its rows. A backend stage's
manifest record also holds its cache hits and misses (``cache``) and the
number of its calls that failed on a backend error (``failed_calls``); the
manifest's ``cache`` block totals the hits and misses. ``reports/`` holds
none of these, so it is the same for a cold and a warm-cache run. The
manifest's ``request`` block holds the parameters that every logged
request was sent with.

A stage is skipped on rerun when its manifest record is intact: same
config digest, same input digest, outputs present with the recorded
digest, and no failed backend call. The digests alone decide, so a stage
after one that re-ran re-runs only if the bytes it reads changed (early
cutoff). Each file a run reads is covered by one of the two digests.
The config digest covers the config and every file the package ships, its
source and its data, so any edit to the package re-runs every stage at the
next process's run. The input digest covers the bytes of the stage's
run-dir inputs (the dump files, for ingest) and of its resource files; for
ingest, also the dump files' paths, which ``rejects.jsonl`` names; for
report, also the other stages' recorded ``stats``, which it reports.
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
from .config import BACKEND_HTTP, PipelineConfig, packaged_path, require_utf8, run_cache_dir
from .errors import ConfigError, RunLockedError, StageError, TemplateError
from .llm.cache import ResponseCache, read_stats
from .llm.mock_backend import MockBackend
from .llm.ratelimit import RateLimiter
from .llm.session import LlmSession
from .llm.templates import PromptTemplate, load_template
from .recommendation import load_aliases
from .reports import emit_reports

logger = logging.getLogger(__name__)


# Resource names: "prompts/<file>" resolves under config.prompts_dir(),
# LEXICON to config.lexicon_path().
LEXICON = "lexicon"
MOCK_RULES = "data/mock_rules.json"


# ---------------------------------------------------------------------------
# Backend wiring
# ---------------------------------------------------------------------------


def open_backend(config: PipelineConfig, run_dir: Path) -> tuple[object, ResponseCache]:
    """The run's backend and its response cache."""
    if config.backend.kind == BACKEND_HTTP:
        from .llm.http_backend import HttpBackend  # imports http.client, which mock runs never use

        backend = HttpBackend(
            base_url=config.backend.base_url,
            api_key_env=config.backend.api_key_env,
            limiter=RateLimiter(config.limits.rps),
        )
    else:
        backend = MockBackend(packaged_path(MOCK_RULES))
    return backend, ResponseCache(config.cache_dir(run_dir), backend.identity)


# ---------------------------------------------------------------------------
# Stage implementations
# ---------------------------------------------------------------------------


def reported_stats(manifest: dict) -> dict:
    """The ``stats`` of every other stage's ok record: what ``report`` reads of the manifest."""
    return {
        name: record.get("stats", {})
        for name, record in manifest.get("stages", {}).items()
        if record.get("status") == "ok" and name != "report"
    }


def stage_report(
    inputs: dict, config: PipelineConfig, session: None, manifest: dict
) -> stages.StageResult:
    """Per-user and run reports from the stage rows and the recorded stage stats."""
    aliases = load_aliases(packaged_path("data/therapy_aliases.json"))
    files = emit_reports(inputs, reported_stats(manifest), aliases)
    return files, {"users_reported": len(inputs[runfiles.SUMMARIES]), "run_report": 1}


# ---------------------------------------------------------------------------
# Stage table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageDef:
    """One stage: its function, the run-dir files it reads and writes, and the
    resource files, located by the config, whose bytes its outputs depend on."""

    name: str
    run: Callable[[dict, PipelineConfig, LlmSession | None, dict], stages.StageResult]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    resources: tuple[str, ...] = ()

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
        ("prompts/recommendation.txt",),
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
    ),
)

STAGE_NAMES = tuple(stage.name for stage in STAGES)
_STAGE_BY_NAME = {stage.name: stage for stage in STAGES}
_PRODUCERS = {output: stage.name for stage in STAGES for output in stage.outputs}


def resource_paths(stage: StageDef, config: PipelineConfig) -> list[Path]:
    """The files that the config locates and whose bytes the stage's outputs depend on."""
    prompts = config.prompts_dir()
    return [
        config.lexicon_path() if name == LEXICON else prompts / name.removeprefix("prompts/")
        for name in stage.resources
    ]


def _load_templates(stage: StageDef, config: PipelineConfig) -> dict[str, PromptTemplate]:
    """The stage's declared prompt templates, by template name."""
    templates: dict[str, PromptTemplate] = {}
    for name, path in zip(stage.resources, resource_paths(stage, config)):
        if name.startswith("prompts/"):
            template = load_template(path)
            if templates.setdefault(template.name, template) is not template:
                raise TemplateError(f"{path}: duplicate template name: {template.name}")
    return templates


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
    stage: StageDef, run_dir: Path, config: PipelineConfig, manifest: dict
) -> str:
    if stage.name == "ingest":
        inputs = [Path(p) for p in manifest["input_paths"]]
    else:
        inputs = _expand(run_dir, stage.inputs)
    digest = _digest_paths(inputs + resource_paths(stage, config), base=run_dir)
    # ingest's rejects name its dump files' paths; report reports the other stages' stats
    if stage.name not in ("ingest", "report"):
        return digest
    read = manifest["input_paths"] if stage.name == "ingest" else reported_stats(manifest)
    return hashlib.sha256(f"{digest}\0{json.dumps(read)}".encode("utf-8")).hexdigest()


def stage_output_digest(stage: StageDef, run_dir: Path) -> str | None:
    paths = _expand(run_dir, stage.outputs)
    if not paths or not all(p.exists() for p in paths):
        return None
    return _digest_paths(paths, base=run_dir)


# every file the package ships: its source and pyproject.toml's package data
PACKAGE_FILES = ("**/*.py", "prompts/*.txt", "data/*")


@functools.cache
def code_digest() -> str:
    """Digest of every file the package ships, computed once per process; a run
    takes it when it opens, before any stage reads package data."""
    package = Path(__file__).parent
    files = sorted(path for pattern in PACKAGE_FILES for path in package.glob(pattern))
    return _digest_paths(files, base=package)


def config_digest(config: PipelineConfig) -> str:
    """Digest of the package's files and the config; a change in either re-runs every stage."""
    source = f"{code_digest()}\0{config.digest_source()}"
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def load_manifest(run_dir: Path) -> dict | None:
    path = run_dir / runfiles.MANIFEST
    return runfiles.read_json(path, "run") if path.exists() else None


def save_manifest(run_dir: Path, manifest: dict) -> None:
    runfiles.write_json(run_dir / runfiles.MANIFEST, manifest)


@contextmanager
def _open_run(
    config: PipelineConfig, input_paths: list[Path] | None, run_dir: Path
) -> Iterator[tuple[dict, Callable[[], tuple[object, ResponseCache]]]]:
    """Lock the run directory; yield its manifest, set to this config and these
    inputs, and a getter for the run's one backend and response cache.

    They are opened at the getter's first call, so a run that executes no
    backend stage needs no credentials. When the run ends the cache is closed,
    then the backend's pooled connections, if it keeps any, also when closing
    the cache raises. A run given input paths refuses any the manifest could
    not hold, then makes its directory; any other needs a run's manifest there.
    """
    if input_paths:
        for path in input_paths:
            require_utf8("input path", str(path))
        run_dir.mkdir(parents=True, exist_ok=True)
    elif not (run_dir / runfiles.MANIFEST).exists():
        raise ConfigError(f"no run in {run_dir}")
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
        opened: list[tuple[object, ResponseCache]] = []

        def get_backend() -> tuple[object, ResponseCache]:
            if not opened:
                opened.append(open_backend(config, run_dir))
            return opened[0]

        try:
            yield manifest, get_backend
        finally:
            for backend, cache in opened:
                try:
                    cache.close()
                finally:
                    if hasattr(backend, "close"):
                        backend.close()


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
    get_backend: Callable[[], tuple[object, ResponseCache]],
) -> dict:
    """Run one stage: read and digest its inputs, call it, write its outputs and
    backend log, and record it in the manifest. ``get_backend`` returns the run's
    backend and response cache, on which a backend stage gets its own session."""
    stage = _STAGE_BY_NAME[name]
    backend, cache = get_backend() if stage.uses_backend else (None, None)
    session = None
    started = time.time()
    logger.info("stage %s: running", name)
    try:
        inputs = {path: runfiles.read(run_dir / path, _PRODUCERS[path]) for path in stage.inputs}
        # digested before the stage loads its resources, so that an edit made while it
        # runs re-runs it; a resource file that is missing fails the stage here
        input_digest = stage_input_digest(stage, run_dir, config, manifest)
        if backend is not None:
            templates = _load_templates(stage, config)
            session = LlmSession(backend, templates, config.backend.model, cache)
            # the parameters every logged request was sent with
            manifest["request"] = session.params
        files, stats = stage.run(inputs, config, session, manifest)
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

    counts = {}
    if session is not None:
        records = session.records
        runfiles.write_jsonl(run_dir / runfiles.LOGS_DIR / f"backend_{name}.jsonl", records)
        hits = sum(r["cache_hit"] for r in records)
        counts["cache"] = {"hits": hits, "misses": len(records) - hits}
        counts["failed_calls"] = session.failed_calls
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
    stage: StageDef, run_dir: Path, config: PipelineConfig, manifest: dict
) -> bool:
    record = manifest["stages"].get(stage.name)
    if record is None or record.get("status") != "ok":
        return False
    # a failed call is not cached, so a rerun may answer it: never trust such a record
    if record.get("failed_calls", 0):
        return False
    if record.get("config_digest") != manifest["config_digest"]:
        return False
    try:
        digest = stage_input_digest(stage, run_dir, config, manifest)
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
    with _open_run(config, input_paths, run_dir) as (manifest, get_backend):
        if not manifest["input_paths"]:
            raise StageError("ingest", "no input paths given and none recorded in the manifest")
        for stage in STAGES:
            if _stage_clean(stage, run_dir, config, manifest):
                logger.info("stage %s: up to date, skipping", stage.name)
                continue
            execute_stage(stage.name, run_dir, config, manifest, get_backend)
        save_manifest(run_dir, manifest)
    return manifest


def run_stage(
    name: str, config: PipelineConfig, input_paths: list[Path] | None, run_dir: Path
) -> dict:
    """Execute one stage on a run directory, whether or not its record is intact."""
    with _open_run(config, input_paths, run_dir) as (manifest, get_backend):
        return execute_stage(name, run_dir, config, manifest, get_backend)


def cache_stats(
    run_dir: Path | None = None, cache_dir: Path | None = None
) -> tuple[int, int, float | None]:
    """(entries, database file bytes, last-run hit ratio) for a cache or run directory.

    A run directory's cache is the ``paths.cache_dir`` its manifest records, if
    any, else ``<run>/cache``. A recorded relative path, which names a directory
    relative to where the run started, or a path that is no directory, is a
    ``ConfigError``; a cache directory without a database reads as (0, 0, ...).
    """
    manifest = load_manifest(Path(run_dir)) if run_dir is not None else None
    if cache_dir is None:
        if run_dir is None:
            raise ValueError("cache_stats needs a run or cache directory")
        recorded = manifest["config"]["paths"]["cache_dir"] if manifest else None
        if recorded and not Path(recorded).is_absolute():
            raise ConfigError(
                f"run {run_dir} used the relative paths.cache_dir {recorded!r}; "
                "name its cache with --cache-dir"
            )
        cache_dir = run_cache_dir(recorded, Path(run_dir))
    if not Path(cache_dir).is_dir():
        raise ConfigError(f"not a cache directory: {cache_dir}")
    entries, size = read_stats(cache_dir)
    ratio = None if manifest is None else manifest.get("cache", {}).get("hit_ratio")
    return entries, size, ratio
