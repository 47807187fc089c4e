from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import COHORT_SIZE, run_outputs
from mindpipe import pipeline, runfiles
from mindpipe.cli import build_parser, main
from mindpipe.config import PipelineConfig, packaged_path
from mindpipe.errors import ConfigError
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
    run_dir = tmp_path / "run"
    assert main(["ingest", "--input", str(tmp_path / "absent.jsonl"), "--out", str(run_dir)]) == 1
    code = main(["filter", "--run", str(run_dir)])
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
    with pytest.raises(ConfigError, match="relative paths.cache_dir 'shared'"):
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


def _fails_naming(capsys, argv: list[str], code: int, path) -> None:
    """The CLI exits ``code``, and its last stderr line, the only one, is the
    message, which names ``path``."""
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("config error: " if code == 2 else "error: ")
    assert str(path) in err


def _run_all(corpus_path, run_dir, *flags) -> list[str]:
    return [
        "run-all", "--input", str(corpus_path), "--out", str(run_dir),
        "--cohort-size", str(COHORT_SIZE), *flags,
    ]


def test_d20_a_cache_dir_that_is_a_regular_file_exits_1_naming_it(tmp_path, corpus_path, capsys):
    # the cache's mkdir once ended the CLI in a FileExistsError traceback
    cache_dir = tmp_path / "cache"
    cache_dir.touch()
    argv = _run_all(corpus_path, tmp_path / "run", "--cache-dir", str(cache_dir))
    _fails_naming(capsys, argv, 1, cache_dir)


@pytest.mark.parametrize("command", ["run-all", "cache"])
def test_d20_a_database_that_sqlite_cannot_open_exits_1_naming_it(
    tmp_path, corpus_path, capsys, command
):
    # "unable to open database file" once ended the CLI in a traceback, naming no file
    cache_dir = tmp_path / "cache"
    (cache_dir / DB_NAME).mkdir(parents=True)
    if command == "run-all":
        argv = _run_all(corpus_path, tmp_path / "run", "--cache-dir", str(cache_dir))
    else:
        argv = ["cache", "--cache-dir", str(cache_dir)]
    _fails_naming(capsys, argv, 1, cache_dir / DB_NAME)


@pytest.mark.parametrize(
    "content", [None, b"limits:\n  rps: \xff\n", b"limits:\n  rps: " + b"9" * 4400 + b"\n"],
    ids=["directory", "not_utf8", "int_of_4400_digits"],
)
def test_d21_a_config_file_that_cannot_be_read_exits_2_naming_it(
    tmp_path, corpus_path, capsys, content
):
    # IsADirectoryError, UnicodeDecodeError and PyYAML's int ValueError once escaped
    config = tmp_path / "config.yaml"
    if content is None:
        config.mkdir()
    else:
        config.write_bytes(content)
    run_dir = tmp_path / "run"
    _fails_naming(capsys, _run_all(corpus_path, run_dir, "--config", str(config)), 2, config)
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "kind", ["out_is_a_file", "out_under_a_file", "manifest_is_a_directory", "lock_is_a_directory"]
)
def test_d22_a_run_dir_that_cannot_be_used_exits_1_naming_it(tmp_path, corpus_path, capsys, kind):
    # FileExistsError, NotADirectoryError and IsADirectoryError once escaped main
    run_dir = tmp_path / "run"
    if kind == "out_is_a_file":
        run_dir.touch()
        named = run_dir
    elif kind == "out_under_a_file":
        run_dir.touch()
        run_dir = named = run_dir / "run"
    else:
        named = run_dir / (runfiles.MANIFEST if kind == "manifest_is_a_directory" else ".lock")
        named.mkdir(parents=True)
    _fails_naming(capsys, _run_all(corpus_path, run_dir), 1, named)
    if kind == "manifest_is_a_directory":
        _fails_naming(capsys, ["cache", "--run", str(run_dir)], 1, named)


def test_d23_cache_of_a_regular_file_exits_2(tmp_path, capsys):
    # it once reported an empty cache and exited 0
    path = tmp_path / "cache"
    path.touch()
    _fails_naming(capsys, ["cache", "--cache-dir", str(path)], 2, path)


@pytest.mark.parametrize(
    "argv, exists",
    [(["report", "--run"], False), (["run-all", "--out"], False), (["filter", "--run"], True)],
    ids=["report", "run_all_without_input", "empty_dir"],
)
def test_d24_a_command_that_starts_no_run_exits_2_and_creates_nothing(
    tmp_path, capsys, argv, exists
):
    # such a command once made the directory, its .lock and a manifest
    run_dir = tmp_path / "run"
    if exists:
        run_dir.mkdir()
    _fails_naming(capsys, [*argv, str(run_dir)], 2, f"no run in {run_dir}")
    assert list(tmp_path.iterdir()) == ([run_dir] if exists else [])
    assert not exists or list(run_dir.iterdir()) == []


def test_d25_a_lexicon_that_is_not_utf8_exits_1_naming_it(tmp_path, corpus_path, capsys):
    # the decoder's message once named no file
    lexicon = tmp_path / "lex.txt"
    lexicon.write_bytes(b"\xff\xfe bad\n")
    argv = _run_all(corpus_path, tmp_path / "run", "--lexicon", str(lexicon))
    _fails_naming(capsys, argv, 1, f"stage 'filter' failed: {lexicon}: 'utf-8' codec")


def test_d25_a_prompt_template_that_is_not_utf8_exits_1_naming_it(tmp_path, corpus_path, capsys):
    prompts = tmp_path / "prompts"
    shutil.copytree(packaged_path("prompts"), prompts)
    diagnosis = prompts / "diagnosis.txt"
    diagnosis.write_bytes(diagnosis.read_bytes() + b"\xff")
    argv = _run_all(corpus_path, tmp_path / "run", "--prompts-dir", str(prompts))
    _fails_naming(capsys, argv, 1, f"stage 'diagnose' failed: {diagnosis}: 'utf-8' codec")


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run Python with ``args`` in a new process that imports this mindpipe."""
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_a_multi_line_message_is_one_line_and_v_logs_the_traceback(tmp_path, corpus_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("limits: [\n", encoding="utf-8")  # PyYAML's message ends in a caret line
    argv = _run_all(corpus_path, tmp_path / "run", "--config", str(config))
    _fails_naming(capsys, argv, 2, config)
    done = _python("-m", "mindpipe.cli", "-v", *argv)
    lines = done.stderr.splitlines()
    assert done.returncode == 2 and "Traceback (most recent call last):" in lines
    assert lines[-1].startswith(f"config error: config file {config}: while parsing")


PATH_FLAGS = ("--out", "--config", "--cache-dir", "--input", "--lexicon", "--prompts-dir")
CONFIG_PATH_FLAGS = ("--cache-dir", "--lexicon", "--prompts-dir")
PATH_KINDS = (
    "missing", "empty_file", "directory", "under_a_file", "not_utf8_bytes", "not_utf8_name",
    DB_NAME, runfiles.MANIFEST, runfiles.LOCK_FILE, "empty",
)


def _drawn_path(base, kind: str) -> str:
    """A path of the given kind under ``base``, or the empty string; the kinds
    named after a file are a directory that holds a directory of that name."""
    if kind == "empty":
        return ""
    path = base / "drawn"
    if kind == "empty_file":
        path.touch()
    elif kind == "directory":
        path.mkdir()
    elif kind == "under_a_file":
        path.touch()
        path = path / "below"
    elif kind == "not_utf8_bytes":
        path.write_bytes(b"\xff\xfe\x00 not utf-8\n")
    elif kind == "not_utf8_name":
        path = base / os.fsdecode(b"drawn\xff")
        path.write_bytes(b"")
    elif kind != "missing":
        (path / kind).mkdir(parents=True)
    return str(path)


@settings(max_examples=30, deadline=None)
@example(flag="--cache-dir", kind="empty_file")  # D20: FileExistsError escaped main
@example(flag="--cache-dir", kind=DB_NAME)  # D20: sqlite3.OperationalError escaped main
@example(flag="--config", kind="directory")  # D21: IsADirectoryError escaped main
@example(flag="--config", kind="not_utf8_bytes")  # D21: UnicodeDecodeError escaped main
@example(flag="--out", kind="under_a_file")  # D22: NotADirectoryError escaped main
@example(flag="--out", kind=runfiles.LOCK_FILE)  # D22: IsADirectoryError escaped main
@example(flag="--lexicon", kind="empty")  # D26: filter failed reading the working directory
@example(flag="--cache-dir", kind="empty")  # D26: the cache was made in the working directory
@given(flag=st.sampled_from(PATH_FLAGS), kind=st.sampled_from(PATH_KINDS))
def test_any_path_flag_ends_in_an_exit_code_and_one_line(
    flag, kind, corpus_path, tmp_path_factory
):
    base, cwd = tmp_path_factory.mktemp("paths"), tmp_path_factory.mktemp("cwd")
    err = io.StringIO()
    # an empty path names the working directory, which must never be the checkout
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(err):
        patch.chdir(cwd)
        code = main(_run_all(corpus_path, base / "run", flag, _drawn_path(base, kind)))
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert not any(line.startswith("Traceback") for line in lines)
    if code:
        assert lines[-1].startswith("config error: " if code == 2 else "error: ")
    if kind == "empty" and flag in CONFIG_PATH_FLAGS:
        assert code == 2 and list(cwd.iterdir()) == []


def test_a_mock_run_through_the_cli_imports_no_http_tls_or_yaml(corpus_path, tmp_path):
    # each import raises the peak RSS of every run; only an HTTP run or a config file needs them
    script = (
        "import sys\n"
        "from mindpipe import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, sorted({'http.client', 'ssl', 'yaml'} & set(sys.modules)))\n"
    )
    done = _python("-c", script, *_run_all(corpus_path, tmp_path / "run"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
