"""Key-removal audit: every key a stage file holds is read, or kept for a stated reason.

For each stage file of ``pipeline.STAGES`` and each key of its rows, the
audit drops the key from every row of a copy of a pinned run directory,
re-runs every stage downstream of the file with ``pipeline.run_stage``, and
compares the files those stages write (their stage files, ``reports/`` and
``logs/``) with an unmodified rerun of the same stages. The baseline is a
rerun, not the original run, because a rerun logs every call as a cache
hit. A key is read when its removal changes one of those files or makes a
stage raise. The keys are the top-level keys of the rows and, one level
down, ``key.sub`` for each key of a dict value, or of the dicts in a list
value, of a top-level key that is not in ``KEPT_UNREAD``.

Both pinned runs are audited: the healthy fixture run and the fixture run
on the failing backend of ``conftest.failing_complete``, whose reruns fail
the same calls again. Some keys are read only by a failure path; the
``detail`` of ``relations.jsonl``, for one, counts only in the degraded
run. A key read in neither run must be in ``KEPT_UNREAD`` with its reason,
and every key there must still be written.
"""

from __future__ import annotations

import contextlib
import shutil
from pathlib import Path
from typing import Iterator

import pytest

from conftest import COHORT_SIZE, degraded_config, failing_complete
from mindpipe import pipeline, runfiles
from mindpipe.config import load_config
from mindpipe.errors import StageError
from mindpipe.llm.mock_backend import MockBackend

_RAW_POST = "the raw post is kept verbatim in entries.jsonl"
_REJECT_REPORT = "rejects.jsonl is the operator's report of the dump lines that were not parsed"
_ROW_IDENTITY = "names the post and the comment the relation row is about"

# (stage file, key) -> why the key is written although no stage reads it
KEPT_UNREAD = {
    (runfiles.ENTRIES, "title"): _RAW_POST,
    (runfiles.ENTRIES, "subreddit"): _RAW_POST,
    (runfiles.REJECTS, "file"): _REJECT_REPORT,
    (runfiles.REJECTS, "line_no"): _REJECT_REPORT,
    (runfiles.REJECTS, "reason"): _REJECT_REPORT,
    (runfiles.FILTERED, "removed"): "why cleaning dropped the entry (deleted or empty body)",
    (runfiles.FILTERED, "safety"): "the trigger that quarantined the entry, or null",
    (runfiles.FEATURES, "failure"): "why the entry's feature extraction failed",
    (runfiles.FEATURES, "temporal_degraded"): "the temporal answer was unusable after the re-ask",
    (runfiles.SUMMARIES, "failure"): "why the author's summary failed",
    (runfiles.RELATIONS, "post_id"): _ROW_IDENTITY,
    (runfiles.RELATIONS, "comment_id"): _ROW_IDENTITY,
    (runfiles.RELATIONS, "post_author"): _ROW_IDENTITY,
    (runfiles.RELATIONS, "comment_author"): _ROW_IDENTITY,
}

_STAGE_FILES = tuple(
    name for stage in pipeline.STAGES for name in stage.outputs if name != runfiles.REPORTS_DIR
)


def _downstream(name: str) -> list[pipeline.StageDef]:
    """The stages that read the stage file ``name``, directly or through another stage, in order."""
    reached: set[str] = set()
    for stage in pipeline.STAGES:
        producers = {pipeline._PRODUCERS[read] for read in stage.inputs}
        if name in stage.inputs or reached & producers:
            reached.add(stage.name)
    return [stage for stage in pipeline.STAGES if stage.name in reached]


def _nested(value) -> list[dict]:
    """The dicts one level below a row key: its dict value, or the dicts in its list value."""
    if isinstance(value, dict):
        return [value]
    return [item for item in value if isinstance(item, dict)] if isinstance(value, list) else []


def _keys(run_dir: Path, name: str) -> list[str]:
    content = runfiles.read(run_dir / name, "audit")
    keys: dict[str, None] = {}
    for row in content if isinstance(content, list) else [content]:
        for key, value in row.items():
            keys[key] = None
            if (name, key) not in KEPT_UNREAD:
                keys.update((f"{key}.{sub}", None) for inner in _nested(value) for sub in inner)
    return list(keys)


def _drop(run_dir: Path, name: str, key: str) -> None:
    """Drop ``key`` from every row, or ``sub`` from every dict below ``outer`` for ``outer.sub``."""
    content = runfiles.read(run_dir / name, "audit")
    outer, _, sub = key.partition(".")
    for row in content if isinstance(content, list) else [content]:
        for holder in _nested(row.get(outer)) if sub else [row]:
            holder.pop(sub or outer, None)
    runfiles.write(run_dir / name, content)


def _written(run_dir: Path, stage: pipeline.StageDef) -> dict[str, bytes]:
    """The bytes of the files a stage writes: its outputs and its backend log."""
    paths = [run_dir / name for name in stage.outputs]
    paths.append(run_dir / runfiles.LOGS_DIR / f"backend_{stage.name}.jsonl")
    files = {}
    for path in paths:
        found = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for file in found:
            if file.exists():
                files[file.relative_to(run_dir).as_posix()] = file.read_bytes()
    return files


class _Run:
    """A pinned run directory and how to re-run its stages."""

    def __init__(self, run_dir: Path, config, degraded: bool, scratch: Path):
        self.run_dir = run_dir
        self.config = config
        self.degraded = degraded
        self.scratch = scratch

    @contextlib.contextmanager
    def _copy(self) -> Iterator[Path]:
        work = self.scratch / "work"
        shutil.copytree(self.run_dir, work)
        try:
            with pytest.MonkeyPatch.context() as patch:
                if self.degraded:
                    patch.setattr(MockBackend, "complete", failing_complete(set(), []))
                yield work
        finally:
            shutil.rmtree(work)

    def rerun(self, stages: list[pipeline.StageDef]) -> list[dict[str, bytes]]:
        """What each stage writes when the stages re-run on an unmodified copy."""
        with self._copy() as work:
            written = []
            for stage in stages:
                pipeline.run_stage(stage.name, self.config, None, work)
                written.append(_written(work, stage))
        return written

    def is_read(self, name: str, key: str, stages, expected: list[dict[str, bytes]]) -> bool:
        """Whether dropping ``key`` from ``name``'s rows changes what ``stages`` write."""
        with self._copy() as work:
            _drop(work, name, key)
            for stage, files in zip(stages, expected):
                try:
                    pipeline.run_stage(stage.name, self.config, None, work)
                except StageError:
                    return True
                if _written(work, stage) != files:
                    return True
        return False

    def audit(self) -> tuple[set, set]:
        """(every (stage file, key) the run writes, those that nothing reads)."""
        written, unread = set(), set()
        for name in _STAGE_FILES:
            stages = _downstream(name)
            expected = self.rerun(stages)
            for key in _keys(self.run_dir, name):
                written.add((name, key))
                if not self.is_read(name, key, stages, expected):
                    unread.add((name, key))
        return written, unread


@pytest.fixture(scope="module")
def audits(fixture_run, degraded, tmp_path_factory) -> list[tuple[set, set]]:
    healthy = load_config(overrides={"pipeline.cohort_size": COHORT_SIZE})
    runs = [
        _Run(fixture_run, healthy, False, tmp_path_factory.mktemp("audit_healthy")),
        _Run(degraded[0], degraded_config(), True, tmp_path_factory.mktemp("audit_degraded")),
    ]
    return [run.audit() for run in runs]


def test_the_audit_reaches_every_stage_file():
    assert set(_STAGE_FILES) == {
        runfiles.ENTRIES, runfiles.REJECTS, runfiles.COHORT, runfiles.FILTERED,
        runfiles.FEATURES, runfiles.SUMMARIES, runfiles.DIAGNOSIS,
        runfiles.RECOMMENDATIONS, runfiles.RELATIONS,
    }
    assert [stage.name for stage in _downstream(runfiles.FILTERED)] == [
        "extract", "aggregate", "diagnose", "recommend", "interact", "report"
    ]
    assert _downstream(runfiles.REJECTS) == []


def test_the_audit_reaches_one_level_down(audits, tmp_path):
    written = set().union(*(keys for keys, _ in audits))
    assert {
        (runfiles.COHORT, "users.author"),
        (runfiles.FILTERED, "entry.parent_id"),
        (runfiles.SUMMARIES, "chronology.content"),
        (runfiles.SUMMARIES, "non_temporal.triggers"),
    } <= written
    # no kept key holds a dict in the pinned runs; a built row shows that none is descended into
    row = {"entry": {"id": "e1"}, "removed": {"why": "x"}}
    runfiles.write_jsonl(tmp_path / runfiles.FILTERED, [row])
    keys = _keys(tmp_path, runfiles.FILTERED)
    assert {"removed", "entry.id"} <= set(keys)
    assert not any(key.startswith("removed.") for key in keys)


def test_every_stage_file_key_is_read_or_kept_for_a_reason(audits):
    written = set().union(*(keys for keys, _ in audits))
    # a key is unread when no run that writes it reads it
    unread = {
        key for key in written if all(key in skipped or key not in keys for keys, skipped in audits)
    }
    unkept = sorted(unread - KEPT_UNREAD.keys())
    assert not unkept, f"written and read by nothing, with no reason to keep them: {unkept}"
    stale = sorted(KEPT_UNREAD.keys() - unread)
    assert not stale, f"kept for a reason, but read or no longer written: {stale}"
