from __future__ import annotations

import os
import shutil
from dataclasses import asdict

import pytest

from conftest import COHORT_SIZE, run_outputs
from mindpipe import pipeline
from mindpipe.cli import build_parser, main
from mindpipe.config import PipelineConfig
from mindpipe.llm.cache import DB_NAME


def test_version(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert "mindpipe" in capsys.readouterr().out


def test_usage_error_without_command():
    with pytest.raises(SystemExit) as exit_info:
        main([])
    assert exit_info.value.code == 2


def test_invalid_config_exits_2(tmp_path, corpus_path):
    code = main(
        ["run-all", "--input", str(corpus_path), "--out", str(tmp_path / "r"), "--rps", "0"]
    )
    assert code == 2


def test_run_all_and_cache_command(tmp_path, corpus_path, capsys):
    run_dir = tmp_path / "run"
    code = main(
        [
            "run-all",
            "--input", str(corpus_path),
            "--out", str(run_dir),
            "--cohort-size", str(COHORT_SIZE),
        ]
    )
    assert code == 0
    assert (run_dir / "reports" / "run_report.json").exists()

    code = main(["cache", "--run", str(run_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "entries=" in out and "last_run_hit_ratio=" in out
    assert f" bytes={(run_dir / 'cache' / DB_NAME).stat().st_size} " in out


def test_cache_on_unreadable_database_reports_it_empty(tmp_path, capsys):
    (tmp_path / DB_NAME).write_bytes(b"not a database " * 300)
    assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("entries=0 bytes=")


def test_stage_by_stage_matches_run_all(tmp_path, corpus_path):
    staged = tmp_path / "staged"
    args = ["--cohort-size", str(COHORT_SIZE)]
    assert main(["ingest", "--input", str(corpus_path), "--out", str(staged)] + args) == 0
    for stage in ["filter", "extract", "aggregate", "diagnose", "recommend", "interact", "report"]:
        assert main([stage, "--run", str(staged)] + args) == 0, stage

    reference = tmp_path / "reference"
    assert main(
        ["run-all", "--input", str(corpus_path), "--out", str(reference)] + args
    ) == 0
    assert run_outputs(staged) == run_outputs(reference)


def test_filter_without_ingest_fails_cleanly(tmp_path, capsys):
    code = main(["filter", "--run", str(tmp_path / "empty")])
    assert code == 1
    assert "requires missing file" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("text", "reason"),
    [("{\n", "Expecting property name"), ("[]\n", "not a JSON object")],
    ids=["not_json", "not_an_object"],
)
def test_a_damaged_manifest_exits_1_naming_it(tmp_path, capsys, text, reason):
    # the manifest was once decoded unguarded, ending the CLI in a traceback
    manifest = tmp_path / "run" / "run_manifest.json"
    manifest.parent.mkdir()
    manifest.write_text(text, encoding="utf-8")
    assert main(["report", "--run", str(manifest.parent)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: {reason}") and err.count("\n") == 1


def test_cache_requires_a_directory_argument(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["cache"])
    assert exit_info.value.code == 2


def test_cache_missing_dir_exits_2(tmp_path):
    assert main(["cache", "--cache-dir", str(tmp_path / "absent")]) == 2


def test_cache_of_a_run_with_a_relative_cache_dir_exits_2(
    tmp_path, corpus_path, capsys, monkeypatch
):
    # a relative --cache-dir is recorded absolute, so the run's cache is
    # found from any working directory
    start, elsewhere = tmp_path / "start", tmp_path / "elsewhere"
    start.mkdir()
    elsewhere.mkdir()
    monkeypatch.chdir(start)
    common = ["--input", str(corpus_path), "--cohort-size", str(COHORT_SIZE)]
    assert main(["run-all", *common, "--out", "run", "--cache-dir", "shared"]) == 0
    capsys.readouterr()
    run_dir = start / "run"
    monkeypatch.chdir(elsewhere)
    assert main(["cache", "--run", str(run_dir)]) == 0
    assert f" bytes={(start / 'shared' / DB_NAME).stat().st_size} " in capsys.readouterr().out

    # only a manifest written by an earlier version still holds a relative path
    manifest = pipeline.load_manifest(run_dir)
    manifest["config"]["paths"]["cache_dir"] = "shared"
    pipeline.save_manifest(run_dir, manifest)
    with pytest.raises(ValueError, match="relative paths.cache_dir 'shared'"):
        pipeline.cache_stats(run_dir=run_dir)
    assert main(["cache", "--run", str(run_dir)]) == 2
    assert "--cache-dir" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting",
    ["limits:\n  rps: fast\n", "paths:\n  cache_dir: 5\n", "[" * 5000],
    ids=["rps", "cache_dir", "nested"],
)
def test_config_value_of_the_wrong_type_exits_2_before_any_stage(
    tmp_path, corpus_path, capsys, setting
):
    config = tmp_path / "config.yaml"
    config.write_text(setting, encoding="utf-8")
    run_dir = tmp_path / "run"
    args = ["run-all", "--input", str(corpus_path), "--out", str(run_dir), "--config", str(config)]
    assert main(args) == 2
    assert "config error" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "key, flag, value",
    [
        ("retry.max_attempts", "--max-attempts", "3"),
        ("pipeline.event_content_budget", "--event-content-budget", "100"),
        ("pipeline.word_budget_slack", "--word-budget-slack", "1.5"),
    ],
)
def test_a_removed_config_key_exits_2_by_flag_or_file(
    tmp_path, corpus_path, capsys, key, flag, value
):
    run_dir = tmp_path / "run"
    args = ["run-all", "--input", str(corpus_path), "--out", str(run_dir)]
    with pytest.raises(SystemExit) as exit_info:
        main(args + [flag, value])
    assert exit_info.value.code == 2
    section, _, name = key.partition(".")
    config = tmp_path / "config.yaml"
    config.write_text(f"{section}:\n  {name}: {value}\n", encoding="utf-8")
    assert main(args + ["--config", str(config)]) == 2
    assert "config error: unknown config" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize("flag, yaml_value", [("nan", ".nan"), ("inf", ".inf"), ("-inf", "-.inf")])
def test_d17_a_rate_that_is_not_finite_exits_2_by_flag_or_file(
    tmp_path, corpus_path, capsys, flag, yaml_value
):
    # a NaN rate once failed the limiter's first start, and an infinite one turned pacing off
    run_dir = tmp_path / "run"
    args = ["run-all", "--input", str(corpus_path), "--out", str(run_dir)]
    assert main(args + [f"--rps={flag}"]) == 2
    config = tmp_path / "config.yaml"
    config.write_text(f"limits:\n  rps: {yaml_value}\n", encoding="utf-8")
    assert main(args + ["--config", str(config)]) == 2
    assert capsys.readouterr().err.count("limits.rps must be finite") == 2
    assert not run_dir.exists()


def test_d15_a_dump_path_that_is_not_utf8_exits_2_before_the_run_dir_is_made(
    tmp_path, corpus_path, capsys
):
    # the manifest once failed to save the path, ending the CLI in a traceback
    dump = tmp_path / os.fsdecode(b"dump\xff.jsonl")
    shutil.copy(corpus_path, dump)
    run_dir = tmp_path / "run"
    assert main(["ingest", "--input", str(dump), "--out", str(run_dir)]) == 2
    assert capsys.readouterr().err == "config error: input path is not UTF-8: {!r}\n".format(
        str(dump)
    )
    assert not run_dir.exists()


def test_config_flags_are_the_config_fields():
    fields = sorted(
        f"{section}.{key}" for section, values in asdict(PipelineConfig()).items() for key in values
    )
    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    for name, parser in commands.choices.items():
        if name != "cache":
            flags = sorted(a.dest for a in parser._actions if "." in a.dest)
            assert flags == fields, name


def test_stage_subcommands_are_the_stage_table():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    stage_commands = [name for name in commands.choices if name not in ("run-all", "cache")]
    assert stage_commands == list(pipeline.STAGE_NAMES)
