"""Stage-file helpers: one-pass JSONL decoding and atomic streaming writes."""

from __future__ import annotations

import json
import shutil

import pytest

from conftest import COHORT_SIZE
from mindpipe import pipeline, runfiles
from mindpipe.config import load_config
from mindpipe.errors import StageError


def _per_line(path) -> list:
    """The reference decoding: one ``json.loads`` per non-blank line."""
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


@pytest.mark.parametrize(
    "text, line",
    [
        ('{"a": 1}, {"b": 2}\n', 1),
        ("1, 2\n", 1),
        ("[1]\n", 1),
        ('{"a": [1\n2]}\n', 1),
        ('{"a": 1}\n\n{"b": 2}\n[1]\n', 4),
        ('{"a": 1}\n{"a": 2}, \n{"a": 3}\n', 2),
    ],
)
def test_a_line_that_is_not_one_object_is_rejected_by_number(tmp_path, text, line):
    path = tmp_path / "rows.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=rf"rows\.jsonl line {line}: "):
        runfiles.read_jsonl(path, "test")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n\n",
        '{"a": 1}\n\n{"b": 2}\n',
        '{"a": 1}\n   \n\t\n{"b": [1, 2]}',
        '{"a": 1}\r\n{"b": 2}\r\n',
        '{"a": "x\u2028y\x85z"}\n{"a": {"b": null}}\n',
    ],
)
def test_one_pass_decode_gives_the_rows_of_a_per_line_decode(tmp_path, text):
    path = tmp_path / "rows.jsonl"
    path.write_text(text, encoding="utf-8")
    assert runfiles.read_jsonl(path, "test") == _per_line(path)


def test_rows_share_their_key_strings(tmp_path):
    path = tmp_path / "rows.jsonl"
    runfiles.write_jsonl(path, [{"author": "a"}, {"author": "b"}])
    rows = runfiles.read_jsonl(path, "test")
    assert next(iter(rows[0])) is next(iter(rows[1]))


def test_a_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "rows.jsonl"
    runfiles.write_jsonl(path, [{"a": 1}])
    before = path.read_bytes()
    with pytest.raises(TypeError):
        runfiles.write_jsonl(path, [{"a": 2}, {"b": object()}])
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_a_damaged_stage_file_names_its_file_and_line(fixture_run, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(fixture_run, run_dir)
    filtered = run_dir / runfiles.FILTERED
    lines = filtered.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[16] = lines[16][: len(lines[16]) // 2] + "\n"
    filtered.write_text("".join(lines), encoding="utf-8")
    config = load_config(overrides={"pipeline.cohort_size": COHORT_SIZE})
    with pytest.raises(StageError, match=r"filtered\.jsonl line 17: Invalid control character"):
        pipeline.run_stage("extract", config, None, run_dir)
