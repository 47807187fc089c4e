"""Stage-file helpers: one-pass JSONL decoding and atomic streaming writes."""

from __future__ import annotations

import json
import shutil

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import COHORT_SIZE
from mindpipe import pipeline, runfiles
from mindpipe.config import load_config
from mindpipe.errors import RunFileError, StageError


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


def test_a_deeply_nested_line_is_rejected_by_number(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n' + "[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"rows\.jsonl line 2: maximum recursion depth"):
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


def test_d28_a_stage_file_that_is_not_utf8_names_its_file_and_line(fixture_run, tmp_path):
    # the file was once decoded outside the error handling, so the message named
    # neither the file nor the line
    run_dir = tmp_path / "run"
    shutil.copytree(fixture_run, run_dir)
    features = run_dir / runfiles.FEATURES
    lines = features.read_bytes().count(b"\n")
    with features.open("ab") as handle:
        handle.write(b"\xff")
    config = load_config(overrides={"pipeline.cohort_size": COHORT_SIZE})
    with pytest.raises(StageError, match=rf"features\.jsonl line {lines + 1}: not UTF-8$"):
        pipeline.run_stage("aggregate", config, None, run_dir)


# each stage file that a stage reads, and the first stage that reads it
_FIRST_READER = {name: stage.name for stage in reversed(pipeline.STAGES) for name in stage.inputs}


def _edited(data: bytes, edit: str, at: float, byte: int) -> bytes:
    position = int(at * len(data))
    if edit == "truncate":
        return data[:position]
    if edit == "append":
        return data + bytes([byte]) * 3 + b"\n"
    if edit == "insert_ff":
        return data[:position] + b"\xff" + data[position:]
    return data[:position] + bytes([byte]) + data[position + 1 :]


@settings(max_examples=50, deadline=None)
@example(name=runfiles.FEATURES, edit="append", at=0.0, byte=0xFF)  # D28
@given(
    name=st.sampled_from(sorted(_FIRST_READER)),
    edit=st.sampled_from(["truncate", "append", "insert_ff", "replace"]),
    at=st.floats(0, 1, exclude_max=True),
    byte=st.integers(0, 255),
)
def test_a_stage_file_edited_by_hand_runs_or_fails_naming_it(
    name, edit, at, byte, fixture_run, tmp_path_factory
):
    # a file that no longer reads as rows fails its first reader naming the file,
    # and the line for JSONL. An edit that leaves other valid JSON, such as a
    # renamed key, can fail the stage naming neither (D29, a bare KeyError): such
    # a failure must still be one StageError line.
    run_dir = tmp_path_factory.mktemp("edited") / "run"
    shutil.copytree(fixture_run, run_dir)
    path = run_dir / name
    path.write_bytes(_edited(path.read_bytes(), edit, at, byte))
    try:
        runfiles.read(path, "test")
        unreadable = None
    except RunFileError as exc:
        unreadable = str(exc)
        assert unreadable.startswith(f"{path} line " if path.suffix == ".jsonl" else f"{path}: ")
    config = load_config(overrides={"pipeline.cohort_size": COHORT_SIZE})
    try:
        pipeline.run_stage(_FIRST_READER[name], config, None, run_dir)
    except StageError as exc:
        assert "\n" not in str(exc)
        assert unreadable is None or str(exc).endswith(unreadable)
    else:
        assert unreadable is None


def test_a_damaged_json_stage_file_names_its_file(fixture_run, tmp_path):
    # read_json once let the decoder's error through, naming no file
    run_dir = tmp_path / "run"
    shutil.copytree(fixture_run, run_dir)
    (run_dir / runfiles.COHORT).write_text("[" * 5000, encoding="utf-8")
    config = load_config(overrides={"pipeline.cohort_size": COHORT_SIZE})
    with pytest.raises(StageError, match=r"cohort\.json: maximum recursion depth"):
        pipeline.run_stage("aggregate", config, None, run_dir)
