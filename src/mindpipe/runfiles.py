"""Run-directory contract: stage file names and JSON/JSONL helpers.

The run directory is the only persistence. ``read`` and ``write`` pick
the format from the file suffix: ``.jsonl`` holds rows, ``.json`` one
object, anything else (the Markdown reports) text. All writes are atomic
(temp file + rename) and byte-deterministic for fixed inputs.

A JSONL file is decoded in one pass, as one JSON array of its non-blank
lines, because the decoder memoizes object keys within one call: all rows
then share one string per key name, where a decode per line gives each row
its own copies. The result must hold exactly one object per non-blank line,
so the one pass is as strict as decoding each line alone. Writes stream each
row into the temp file, which is renamed over the target once every row is
written and removed if a row fails, so a failed write leaves the old file.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .errors import MissingStageFileError

ENTRIES = "entries.jsonl"
REJECTS = "rejects.jsonl"
COHORT = "cohort.json"
FILTERED = "filtered.jsonl"
FEATURES = "features.jsonl"
SUMMARIES = "summaries.jsonl"
DIAGNOSIS = "diagnosis.jsonl"
RECOMMENDATIONS = "recommendations.jsonl"
RELATIONS = "relations.jsonl"
REPORTS_DIR = "reports"
MANIFEST = "run_manifest.json"
LOGS_DIR = "logs"
LOCK_FILE = ".lock"


@contextmanager
def _atomic_open(path: Path) -> Iterator[TextIO]:
    """A text handle on ``path``'s temp file: renamed over ``path`` when the
    block succeeds, removed when it raises."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            yield handle
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _atomic_write(path: Path, text: str) -> None:
    with _atomic_open(path) as handle:
        handle.write(text)


# json.dumps(row, ensure_ascii=False) builds a new encoder per call; this one is shared
_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False)


def write_jsonl(path: Path, rows: Iterable[dict]) -> int:
    """Write one JSON object per line; returns the row count."""
    count = 0
    with _atomic_open(path) as handle:
        for count, row in enumerate(rows, 1):
            handle.write(_ROW_ENCODER.encode(row) + "\n")
    return count


def read_jsonl(path: Path, stage: str) -> list[dict]:
    """The rows of a JSONL file, one object per non-blank line; ``stage`` is its producer."""
    if not path.exists():
        raise MissingStageFileError(stage, str(path))
    lines = [line for line in path.read_text(encoding="utf-8").split("\n") if line.strip()]
    try:
        rows = json.loads("[" + ",".join(lines) + "]")
    except json.JSONDecodeError:
        rows = None
    if rows is None or len(rows) != len(lines) or not all(isinstance(row, dict) for row in rows):
        rows = _read_lines(path)
    return rows


def _read_lines(path: Path) -> list[dict]:
    """Decode ``path`` line by line, raising ``<file> line <n>: <reason>`` at the first
    line that is not one JSON object."""
    rows = []
    with path.open(encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} line {number}: {exc.msg}: column {exc.colno}") from None
            if not isinstance(row, dict):
                raise ValueError(f"{path} line {number}: not a JSON object")
            rows.append(row)
    return rows


def write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, ensure_ascii=False, indent=2) + "\n")


def read_json(path: Path, stage: str) -> dict:
    if not path.exists():
        raise MissingStageFileError(stage, str(path))
    return json.loads(path.read_text(encoding="utf-8"))


def read(path: Path, stage: str) -> list[dict] | dict:
    """A stage file's rows (``.jsonl``) or object (``.json``); ``stage`` is its producer."""
    return (read_jsonl if path.suffix == ".jsonl" else read_json)(path, stage)


def write(path: Path, content: list[dict] | dict | str) -> None:
    """Write rows (``.jsonl``), one object (``.json``) or text (any other suffix)."""
    if path.suffix == ".jsonl":
        write_jsonl(path, content)
    elif path.suffix == ".json":
        write_json(path, content)
    else:
        _atomic_write(path, content)
