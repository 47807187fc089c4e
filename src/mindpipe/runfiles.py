"""Run-directory contract: stage file names and JSON/JSONL helpers.

The run directory is the only persistence. ``read`` and ``write`` pick
the format from the file suffix: ``.jsonl`` holds rows, ``.json`` one
object, anything else (the Markdown reports) text. All writes are atomic
(temp file + rename) and byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable

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


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


# json.dumps(row, ensure_ascii=False) builds a new encoder per call; this one is shared
_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False)


def write_jsonl(path: Path, rows: Iterable[dict]) -> int:
    """Write one JSON object per line; returns the row count."""
    lines = [_ROW_ENCODER.encode(row) for row in rows]
    _atomic_write(path, "".join(line + "\n" for line in lines))
    return len(lines)


def read_jsonl(path: Path, stage: str) -> list[dict]:
    if not path.exists():
        raise MissingStageFileError(stage, str(path))
    rows = []
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                rows.append(json.loads(line))
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
