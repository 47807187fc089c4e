"""Byte oracle of the fixture run: SHA-256 of every stage, report and log file.

The digests in ``fixtures/oracle_digests.json`` pin the fixture run's
stage files, ``reports/`` and ``logs/``, plus each stage's manifest
``stats`` and the manifest ``cache`` totals. A change that alters any of
these bytes on purpose rewrites the file and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_oracle.py

``rejects.jsonl`` names the corpus file by its full path, which depends on
the checkout, so its rows are hashed with ``file`` reduced to its name.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from mindpipe import runfiles

ORACLE = Path(__file__).parent / "fixtures" / "oracle_digests.json"
STAGE_FILES = (
    runfiles.ENTRIES,
    runfiles.REJECTS,
    runfiles.COHORT,
    runfiles.FILTERED,
    runfiles.FEATURES,
    runfiles.SUMMARIES,
    runfiles.DIAGNOSIS,
    runfiles.RECOMMENDATIONS,
    runfiles.RELATIONS,
)


def _file_bytes(run_dir: Path, relative: str) -> bytes:
    data = (run_dir / relative).read_bytes()
    if relative != runfiles.REJECTS:
        return data
    rows = [json.loads(line) for line in data.decode("utf-8").splitlines()]
    for row in rows:
        row["file"] = Path(row["file"]).name
    return "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows).encode("utf-8")


def oracle(run_dir: Path) -> dict:
    """The pinned facts of a finished run directory."""
    generated = sorted(
        path.relative_to(run_dir).as_posix()
        for folder in (runfiles.REPORTS_DIR, runfiles.LOGS_DIR)
        for path in (run_dir / folder).rglob("*")
        if path.is_file()
    )
    manifest = json.loads((run_dir / runfiles.MANIFEST).read_text(encoding="utf-8"))
    return {
        "files": {
            relative: hashlib.sha256(_file_bytes(run_dir, relative)).hexdigest()
            for relative in (*STAGE_FILES, *generated)
        },
        "stats": {name: record["stats"] for name, record in manifest["stages"].items()},
        "cache": manifest["cache"],
    }


def test_fixture_run_matches_the_oracle(fixture_run):
    assert oracle(fixture_run) == json.loads(ORACLE.read_text(encoding="utf-8"))


if __name__ == "__main__":
    from conftest import COHORT_SIZE, CORPUS

    from mindpipe import pipeline
    from mindpipe.config import load_config

    with tempfile.TemporaryDirectory() as scratch:
        run_dir = Path(scratch) / "run"
        config = load_config(overrides={"pipeline.cohort_size": COHORT_SIZE})
        pipeline.run_all(config, [CORPUS], run_dir)
        ORACLE.write_text(json.dumps(oracle(run_dir), indent=2) + "\n", encoding="utf-8")
