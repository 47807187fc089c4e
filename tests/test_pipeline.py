from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import shutil
import sqlite3
import subprocess
import sys
from contextlib import closing
from pathlib import Path

import pytest

from conftest import (
    COHORT_SIZE,
    generative_records,
    read_backend_log,
    read_jsonl,
    run_outputs,
)
from mindpipe import pipeline, runfiles
from mindpipe.config import PipelineConfig, load_config, packaged_path
from mindpipe.errors import ConfigError, RunLockedError, StageError
from mindpipe.llm.cache import DB_NAME, read_stats
from mindpipe.llm.completion import CompletionRequest
from mindpipe.llm.mock_backend import MockBackend
from mindpipe.llm.session import REASK_REMINDER
from mindpipe.llm.templates import render

STAGE_FILES = [
    "entries.jsonl",
    "rejects.jsonl",
    "cohort.json",
    "filtered.jsonl",
    "features.jsonl",
    "summaries.jsonl",
    "diagnosis.jsonl",
    "recommendations.jsonl",
    "relations.jsonl",
]


def _config(**overrides):
    merged = {"pipeline.cohort_size": COHORT_SIZE}
    merged.update(overrides)
    return load_config(overrides=merged)


def test_run_all_completes_all_stages(fixture_run):
    manifest = pipeline.load_manifest(fixture_run)
    assert [s for s in manifest["stages"]] == list(pipeline.STAGE_NAMES)
    assert all(r["status"] == "ok" for r in manifest["stages"].values())
    for name in STAGE_FILES:
        assert (fixture_run / name).exists(), name


def test_rerun_skips_every_stage(fixture_run, corpus_path):
    manifest_before = pipeline.load_manifest(fixture_run)
    executed_before = len(manifest_before["stage_order"])
    pipeline.run_all(_config(), [corpus_path], fixture_run)
    manifest_after = pipeline.load_manifest(fixture_run)
    assert len(manifest_after["stage_order"]) == executed_before


def test_resume_reruns_only_downstream_of_missing_output(corpus_path, tmp_path):
    run_dir = tmp_path / "run"
    config = _config()
    pipeline.run_all(config, [corpus_path], run_dir)
    executed = len(pipeline.load_manifest(run_dir)["stage_order"])
    (run_dir / "diagnosis.jsonl").unlink()
    pipeline.run_all(config, [corpus_path], run_dir)
    order = pipeline.load_manifest(run_dir)["stage_order"]
    assert order[executed:] == ["diagnose", "recommend", "report"]


def test_config_change_invalidates_everything(corpus_path, tmp_path):
    run_dir = tmp_path / "run"
    pipeline.run_all(_config(), [corpus_path], run_dir)
    executed = len(pipeline.load_manifest(run_dir)["stage_order"])
    pipeline.run_all(_config(**{"pipeline.cohort_size": COHORT_SIZE - 1}), [corpus_path], run_dir)
    order = pipeline.load_manifest(run_dir)["stage_order"]
    assert order[executed:] == list(pipeline.STAGE_NAMES)


def test_d9_a_run_resumes_from_another_working_directory(corpus_path, tmp_path, monkeypatch):
    """A relative input path is recorded absolute, so the run resumes from anywhere."""
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
    shutil.copy(corpus_path, tmp_path / "a" / "corpus.jsonl")
    run_dir = tmp_path / "run"
    config = _config()
    monkeypatch.chdir(tmp_path / "a")
    pipeline.run_all(config, [Path("corpus.jsonl")], run_dir)
    executed = len(pipeline.load_manifest(run_dir)["stage_order"])
    monkeypatch.chdir(tmp_path / "b")
    pipeline.run_all(config, None, run_dir)
    assert pipeline.load_manifest(run_dir)["stage_order"][executed:] == []


def test_manifest_digests_stable_across_reruns(fixture_run, corpus_path, tmp_path):
    other = tmp_path / "other"
    pipeline.run_all(_config(), [corpus_path], other)
    first = pipeline.load_manifest(fixture_run)
    second = pipeline.load_manifest(other)
    for name in pipeline.STAGE_NAMES:
        assert first["stages"][name]["output_digest"] == second["stages"][name]["output_digest"]
        assert first["stages"][name]["input_digest"] == second["stages"][name]["input_digest"]


def test_concurrency_produces_identical_stage_files(fixture_run, corpus_path, tmp_path):
    # neither the stage files nor reports/ hold cache counts, so however the
    # parallel calls interleave, the outputs must equal the serial run's
    serial = run_outputs(fixture_run)
    for attempt in range(15):
        run_dir = tmp_path / f"parallel{attempt}"
        pipeline.run_all(_config(**{"limits.concurrency": 8}), [corpus_path], run_dir)
        outputs = run_outputs(run_dir)
        assert outputs.keys() == serial.keys()
        assert [name for name in serial if outputs[name] != serial[name]] == [], attempt


def test_run_lock_excludes_second_owner(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    with pipeline.RunLock(run_dir):
        with pytest.raises(RunLockedError):
            with pipeline.RunLock(run_dir):
                pass
    # released on exit
    with pipeline.RunLock(run_dir):
        pass


def test_stale_lock_from_dead_pid_is_reclaimed(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / ".lock").write_text("999999999")
    with pipeline.RunLock(run_dir):
        pass


def test_lock_file_naming_a_live_pid_without_a_lock_is_acquired(tmp_path):
    # pid reuse: the recorded owner is alive but holds no lock on the file
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / ".lock").write_text(str(os.getpid()))
    with pipeline.RunLock(run_dir):
        pass


def test_lock_of_a_killed_owner_is_released(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    script = (
        "import sys, time\n"
        "from pathlib import Path\n"
        "from mindpipe import pipeline\n"
        "pipeline.RunLock(Path(sys.argv[1])).__enter__()\n"
        "print('locked', flush=True)\n"
        "time.sleep(120)\n"
    )
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.Popen(
        [sys.executable, "-c", script, str(run_dir)], stdout=subprocess.PIPE, text=True, env=env
    )
    try:
        assert child.stdout.readline() == "locked\n"
        with pytest.raises(RunLockedError, match=f"pid {child.pid}"):
            with pipeline.RunLock(run_dir):
                pass
    finally:
        child.kill()  # SIGKILL: the child runs no cleanup
        child.wait(timeout=30)
        child.stdout.close()
    with pipeline.RunLock(run_dir):
        pass


def test_invalid_config_rejected_before_any_stage():
    with pytest.raises(ConfigError, match="rps"):
        load_config(overrides={"limits.rps": 0})


def test_stage_failure_recorded_and_resumable(tmp_path, corpus_path):
    run_dir = tmp_path / "run"
    config = _config()
    pipeline.run_all(config, [corpus_path], run_dir)
    manifest = pipeline.load_manifest(run_dir)
    manifest["stages"]["diagnose"]["status"] = "failed"
    pipeline.save_manifest(run_dir, manifest)
    executed = len(manifest["stage_order"])
    pipeline.run_all(config, [corpus_path], run_dir)
    order = pipeline.load_manifest(run_dir)["stage_order"]
    assert order[executed:] == ["diagnose", "recommend", "report"]


def test_cache_stats_empty_and_after_run(tmp_path, fixture_run):
    empty = tmp_path / "cache"
    empty.mkdir()
    entries, size, ratio = pipeline.cache_stats(cache_dir=empty)
    assert (entries, size, ratio) == (0, 0, None)
    assert list(empty.iterdir()) == []

    entries, size, ratio = pipeline.cache_stats(run_dir=fixture_run)
    manifest = pipeline.load_manifest(fixture_run)
    assert entries == manifest["cache"]["misses"]
    assert size == (fixture_run / "cache" / DB_NAME).stat().st_size
    assert ratio is not None and ratio < 1.0
    assert [p.name for p in (fixture_run / "cache").iterdir()] == [DB_NAME]


def test_unreadable_cache_is_replaced_and_old_layout_left_alone(
    fixture_run, corpus_path, tmp_path, caplog
):
    cache_dir = tmp_path / "cache"
    (cache_dir / "objects").mkdir(parents=True)
    old_object = cache_dir / "objects" / "0123.txt"
    old_object.write_text('{"text": "yes"}', encoding="utf-8")
    (cache_dir / DB_NAME).write_bytes(b"not a database " * 300)
    run_dir = tmp_path / "run"
    with caplog.at_level(logging.WARNING, logger="mindpipe.llm.cache"):
        manifest = pipeline.run_all(
            _config(**{"paths.cache_dir": str(cache_dir)}), [corpus_path], run_dir
        )
    assert "unreadable" in caplog.text
    assert manifest["cache"] == pipeline.load_manifest(fixture_run)["cache"]
    assert run_outputs(run_dir) == run_outputs(fixture_run)
    assert old_object.read_text(encoding="utf-8") == '{"text": "yes"}'
    assert sorted(p.name for p in cache_dir.iterdir()) == ["objects", DB_NAME]


def test_mock_run_does_not_import_requests(corpus_path, tmp_path):
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from mindpipe import pipeline\n"
        "from mindpipe.config import load_config\n"
        f"config = load_config(overrides={{'pipeline.cohort_size': {COHORT_SIZE}}})\n"
        f"pipeline.run_all(config, [Path({str(corpus_path)!r})], Path({str(tmp_path / 'run')!r}))\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'requests'"
        " or name in ('mindpipe.llm.http_backend', 'http.client')))\n"
    )
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_cache_stats_missing_dir_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        pipeline.cache_stats(cache_dir=tmp_path / "absent")


def test_cache_stats_of_a_run_reads_its_shared_cache_dir(corpus_path, tmp_path):
    shared, run_dir = tmp_path / "shared", tmp_path / "run"
    manifest = pipeline.run_all(
        _config(**{"paths.cache_dir": str(shared)}), [corpus_path], run_dir
    )
    assert not (run_dir / "cache").exists()
    entries, size, ratio = pipeline.cache_stats(run_dir=run_dir)
    assert entries == manifest["cache"]["misses"]
    assert size == (shared / DB_NAME).stat().st_size
    assert ratio == manifest["cache"]["hit_ratio"]


def test_each_backend_log_holds_only_its_stages_templates(fixture_run):
    # a stage that renders a template its skip check does not digest fails here
    expected = {
        stage.name: {Path(name).stem for name in stage.resources if name.startswith("prompts/")}
        for stage in pipeline.STAGES
        if stage.uses_backend
    }
    logs = {
        path.stem.removeprefix("backend_"): read_jsonl(path)
        for path in (fixture_run / "logs").glob("backend_*.jsonl")
    }
    assert set(logs) == set(expected)
    for stage, records in logs.items():
        assert {record["template"] for record in records} == expected[stage], stage
    assert all("entry_id" in rec["tags"] for rec in logs["filter"])


def test_backend_log_keeps_ids_and_digests_only(fixture_run):
    records = read_backend_log(fixture_run)
    assert records
    for record in records:
        assert "messages" not in record
        assert "stage" not in record["tags"]
    # no text of the run's users, nor any text derived from it, reaches the logs
    texts = [row["clean_text"] for row in read_jsonl(fixture_run / "filtered.jsonl")]
    for row in read_jsonl(fixture_run / "summaries.jsonl"):
        for summary in (row["non_temporal"], row["temporal"]):
            for value in (summary or {}).values():
                texts += value if isinstance(value, list) else [value]
    texts += [row.get("text") for row in read_jsonl(fixture_run / "diagnosis.jsonl")]
    for row in read_jsonl(fixture_run / "recommendations.jsonl"):
        texts += row.get("therapies", []) + row.get("behavior_changes", [])
    texts = [text for text in texts if text]
    assert len(texts) > 100
    lines = [
        line
        for log in sorted((fixture_run / "logs").glob("backend_*.jsonl"))
        for line in log.read_text(encoding="utf-8").splitlines()
    ]
    assert len(lines) == len(records)
    for text in texts:
        encoded = json.dumps(text, ensure_ascii=False)[1:-1]
        assert not any(text in line or encoded in line for line in lines), text


def test_backend_log_digest_joins_a_record_to_its_request(fixture_run, templates):
    clean_text = {
        row["entry"]["id"]: row["clean_text"]
        for row in read_jsonl(fixture_run / "filtered.jsonl")
    }
    model = _config().backend.model
    identity = MockBackend(packaged_path(pipeline.MOCK_RULES)).identity
    with closing(sqlite3.connect(fixture_run / "cache" / DB_NAME)) as db:
        row_keys = {key for (key,) in db.execute("SELECT key FROM responses")}
    joined = 0
    for record in read_jsonl(fixture_run / "logs" / "backend_filter.jsonl"):
        assert record["template"] in ("relevance", "safety")
        text = clean_text[record["tags"]["entry_id"]]
        messages = render(templates[record["template"]], {"text": text})
        if record["reask"]:
            messages[-1] = {"role": "user", "content": messages[-1]["content"] + REASK_REMINDER}
        request = CompletionRequest(model=model, messages=messages)
        assert record["request_digest"] == request.cache_key()
        row_key = hashlib.sha256(f"{identity}\0{record['request_digest']}".encode()).hexdigest()
        assert row_key in row_keys
        joined += 1
    assert joined > 0


def test_filtered_rows_carry_disposition_and_safety(fixture_run):
    rows = read_jsonl(fixture_run / "filtered.jsonl")
    assert {row["disposition"] for row in rows} == {
        "removed", "flagged", "retained", "irrelevant", "relevance_unknown",
    }
    for row in rows:
        if row["disposition"] == "removed":
            assert row["clean_text"] == "" and row["removed"] is not None
        if row["disposition"] == "flagged":
            assert row["safety"]


def test_filtered_rows_keep_no_raw_text(fixture_run):
    rows = read_jsonl(fixture_run / "filtered.jsonl")
    assert rows
    for row in rows:
        assert list(row["entry"]) == ["id", "author", "kind", "created_utc", "parent_id"]


def test_backend_log_records_leave_the_request_parameters_to_the_manifest(fixture_run):
    records = read_backend_log(fixture_run)
    assert records
    for record in records:
        assert list(record) == [
            "seq", "template", "tags", "cache_hit", "reask", "request_digest",
        ]
    assert set(pipeline.load_manifest(fixture_run)["request"]) == {
        "model", "temperature", "max_tokens", "top_p", "stop",
    }


def test_features_gate_flagged_entries(fixture_run):
    rows = read_jsonl(fixture_run / "features.jsonl")
    flagged = [r for r in rows if r["flagged"]]
    assert flagged
    for row in flagged:
        assert row["severity"] == "extreme_uncategorized"
        assert row["causes"] == [] and row["tone"] == [] and row["disorders"] == []
        assert row["timeline"] is None


def test_d8_an_author_with_a_retained_entry_is_not_escalated_after_its_extraction(tmp_path):
    # D8: escalation was inferred from the entries that survived extraction, so an
    # author whose only unflagged entry failed extraction was escalated after the
    # generative calls about that entry
    posts = [
        ("p_one", "I keep thinking about self-harm and I do not know how to stop."),
        ("p_two", "zzzbadformat my insomnia brain refuses to explain itself."),
    ]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        "".join(
            json.dumps({
                "id": entry_id, "author": "wren_moor", "created_utc": 1577757600 + i,
                "subreddit": "mentalhealth", "selftext": text, "title": "untitled",
            }) + "\n"
            for i, (entry_id, text) in enumerate(posts)
        ),
        encoding="utf-8",
    )
    run_dir = tmp_path / "run"
    manifest = pipeline.run_all(_config(**{"pipeline.cohort_size": 1}), [corpus], run_dir)

    dispositions = [row["disposition"] for row in read_jsonl(run_dir / "filtered.jsonl")]
    assert dispositions == ["flagged", "retained"]
    features = read_jsonl(run_dir / "features.jsonl")
    assert [row["status"] for row in features] == ["ok", "parse_failure"]
    escalated = {
        row["author"]
        for row in read_jsonl(run_dir / "recommendations.jsonl")
        if row["status"] == "escalation"
    }
    assert generative_records(run_dir, escalated) == []
    assert escalated == set()
    aggregate = manifest["stages"]["aggregate"]["stats"]
    assert (aggregate["safety_excluded"], aggregate["omitted_no_entries"]) == (0, 1)
    report = json.loads((run_dir / "reports" / "run_report.json").read_text(encoding="utf-8"))
    assert report["conservation_violations"] == []


def _rerun_order(config, corpus_path, run_dir, edit) -> list[str]:
    """Run, apply ``edit``, run again; the stages the second run executed."""
    pipeline.run_all(config, [corpus_path], run_dir)
    executed = len(pipeline.load_manifest(run_dir)["stage_order"])
    edit()
    pipeline.run_all(config, [corpus_path], run_dir)
    return pipeline.load_manifest(run_dir)["stage_order"][executed:]


def test_lexicon_edit_reruns_filter_and_downstream_like_a_fresh_run(corpus_path, tmp_path):
    lexicon = tmp_path / "lexicon.txt"
    shutil.copy(packaged_path("data/safety_lexicon.txt"), lexicon)
    config = _config(**{"paths.lexicon": str(lexicon)})

    def add_term():
        lexicon.write_text(lexicon.read_text(encoding="utf-8") + "anxious\n", encoding="utf-8")

    order = _rerun_order(config, corpus_path, tmp_path / "run", add_term)
    assert order == list(pipeline.STAGE_NAMES[1:])
    resumed = pipeline.load_manifest(tmp_path / "run")["stages"]["filter"]["stats"]
    fresh = pipeline.run_all(config, [corpus_path], tmp_path / "fresh")["stages"]["filter"]["stats"]
    assert resumed["flagged"] == fresh["flagged"]
    assert run_outputs(tmp_path / "run") == run_outputs(tmp_path / "fresh")


def test_prompt_edit_reruns_exactly_the_stages_that_read_it(corpus_path, tmp_path):
    prompts = tmp_path / "prompts"
    shutil.copytree(packaged_path("prompts"), prompts)
    config = _config(**{"paths.prompts_dir": str(prompts)})
    diagnosis = prompts / "diagnosis.txt"

    def edit_prompt():
        text = diagnosis.read_text(encoding="utf-8")
        diagnosis.write_text(text.replace("You are an", "You are a careful"), encoding="utf-8")

    order = _rerun_order(config, corpus_path, tmp_path / "run", edit_prompt)
    assert order == ["diagnose", "recommend", "report"]


def test_missing_resource_file_fails_the_stage_that_reads_it(corpus_path, tmp_path):
    prompts = tmp_path / "prompts"
    shutil.copytree(packaged_path("prompts"), prompts)
    (prompts / "relation.txt").rename(prompts / "relation_v2.txt")
    config = _config(**{"paths.prompts_dir": str(prompts)})
    with pytest.raises(StageError, match="relation.txt"):
        pipeline.run_all(config, [corpus_path], tmp_path / "run")
    assert pipeline.load_manifest(tmp_path / "run")["stages"]["interact"]["status"] == "failed"


def test_a_failed_stage_writes_no_outputs(fixture_run, corpus_path, tmp_path):
    prompts = tmp_path / "prompts"
    shutil.copytree(packaged_path("prompts"), prompts)
    # the template still loads, so the stage body succeeds and its input digest fails
    (prompts / "relation.txt").rename(prompts / "relation_v2.txt")
    config = _config(**{"paths.prompts_dir": str(prompts)})
    with pytest.raises(StageError, match="relation.txt"):
        pipeline.run_all(config, [corpus_path], tmp_path / "run")
    assert not (tmp_path / "run" / "relations.jsonl").exists()
    assert not (tmp_path / "run" / "logs" / "backend_interact.jsonl").exists()
    # closing the run flushed the cache: every answer of the earlier stages, and of
    # interact's body, is there
    stages = pipeline.load_manifest(tmp_path / "run")["stages"]
    # only the ok records of backend stages hold counts
    misses = sum(r["cache"]["misses"] for r in stages.values() if "cache" in r)
    interact = pipeline.load_manifest(fixture_run)["stages"]["interact"]["cache"]
    assert misses > 0
    assert read_stats(tmp_path / "run" / "cache")[0] == misses + interact["misses"]


def _cache_counts_in_stats(run_dir: Path) -> None:
    # every stage's stats end with its cache counts, and the run dir kept no cache
    shutil.rmtree(run_dir / "cache")
    manifest = pipeline.load_manifest(run_dir)
    for record in manifest["stages"].values():
        counts = record.pop("cache", {"hits": 0, "misses": 0})
        record["stats"].update(cache_hits=counts["hits"], cache_misses=counts["misses"])
    pipeline.save_manifest(run_dir, manifest)


def _raw_text_in_filtered_rows(run_dir: Path) -> None:
    # each filtered row's entry is the whole entries row
    entries = {row["id"]: row for row in read_jsonl(run_dir / "entries.jsonl")}
    rows = read_jsonl(run_dir / "filtered.jsonl")
    for row in rows:
        row["entry"] = entries[row["entry"]["id"]]
    (run_dir / "filtered.jsonl").write_text(
        "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8"
    )


def _prompts_and_stage_tags_in_its_logs(run_dir: Path) -> None:
    # every log record carries `messages` and a `stage` tag
    for log in (run_dir / "logs").glob("backend_*.jsonl"):
        stage = log.stem.removeprefix("backend_")
        records = [
            {**record, "tags": {"stage": stage, **record["tags"]}, "messages": None}
            for record in read_jsonl(log)
        ]
        log.write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
        )


def _the_keys_nothing_read(run_dir: Path) -> None:
    # seven stage-file keys that no stage read
    unread = {
        "filtered.jsonl": {"relevant": None},
        "features.jsonl": {"kind": "post"},
        "summaries.jsonl": {"monthly_counts": {}, "entry_count": 0, "flagged_entries": 0},
        "recommendations.jsonl": {"raw_text": ""},
    }
    for name, keys in unread.items():
        rows = [{**row, **keys} for row in read_jsonl(run_dir / name)]
        runfiles.write(run_dir / name, rows)
    cohort = runfiles.read(run_dir / "cohort.json", "ingest")
    runfiles.write(run_dir / "cohort.json", {"selection_size": COHORT_SIZE, **cohort})


def _asks_every_call_again(resumed: dict, run_dir: Path, fixture_run: Path) -> None:
    assert resumed["cache"] == pipeline.load_manifest(fixture_run)["cache"]


def _logs_in_the_current_layout(resumed: dict, run_dir: Path, fixture_run: Path) -> None:
    assert resumed["cache"]["misses"] == 0  # the run's own cache serves every call
    for log in sorted((fixture_run / "logs").glob("backend_*.jsonl")):
        records = read_jsonl(run_dir / "logs" / log.name)
        assert not any("messages" in r or "stage" in r["tags"] for r in records)
        assert records == [{**r, "cache_hit": True} for r in read_jsonl(log)]


@pytest.mark.parametrize(
    ("version", "layout", "check"),
    [
        ("0.1.0", _cache_counts_in_stats, _asks_every_call_again),
        ("0.2.0", _raw_text_in_filtered_rows, None),
        ("0.3.0", _prompts_and_stage_tags_in_its_logs, _logs_in_the_current_layout),
        ("0.5.0", _the_keys_nothing_read, None),
    ],
    ids=[
        "cache_counts_in_stats",
        "raw_text_in_filtered_rows",
        "prompts_and_stage_tags_in_logs",
        "the_keys_nothing_read",
    ],
)
def test_an_older_layout_resumes_like_a_fresh_run(
    version, layout, check, fixture_run, corpus_path, tmp_path
):
    run_dir = tmp_path / "run"
    shutil.copytree(fixture_run, run_dir)
    layout(run_dir)
    config = _config()
    manifest = _record_as_written_by(run_dir, config, version)
    resumed = pipeline.run_all(config, [corpus_path], run_dir)
    # the earlier code's config digest differs from this code's, so every stage re-runs
    assert resumed["stage_order"][len(manifest["stage_order"]):] == list(pipeline.STAGE_NAMES)
    assert run_outputs(run_dir) == run_outputs(fixture_run)
    assert all("cache_hits" not in r["stats"] for r in resumed["stages"].values())
    if check is not None:
        check(resumed, run_dir, fixture_run)


def _record_as_written_by(run_dir: Path, config: PipelineConfig, version: str) -> dict:
    """Make the manifest one that ``version`` wrote: no ``code_digest``, the config
    digest that version computed (over the version string, where this code hashes
    its source), and every stage record agreeing with the files as they are now.
    Returns the manifest."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "code_digest", lambda: version)
        old_digest = pipeline.config_digest(config)
    manifest = pipeline.load_manifest(run_dir)
    del manifest["code_digest"]
    manifest.update(tool_version=version, config_digest=old_digest)
    for stage in pipeline.STAGES:
        record = manifest["stages"][stage.name]
        record["config_digest"] = old_digest
        record["input_digest"] = pipeline.stage_input_digest(
            stage, run_dir, config, manifest["input_paths"]
        )
        record["output_digest"] = pipeline.stage_output_digest(stage, run_dir)
    pipeline.save_manifest(run_dir, manifest)
    return manifest


def test_a_smaller_cohort_rerun_leaves_no_stale_reports(corpus_path, tmp_path):
    run_dir = tmp_path / "run"
    pipeline.run_all(_config(), [corpus_path], run_dir)
    smaller = {"pipeline.cohort_size": COHORT_SIZE // 2}
    pipeline.run_all(_config(**smaller), [corpus_path], run_dir)
    fresh = tmp_path / "fresh"
    pipeline.run_all(_config(**smaller), [corpus_path], fresh)
    assert run_outputs(run_dir) == run_outputs(fresh)
    stats = pipeline.load_manifest(run_dir)["stages"]["report"]["stats"]
    assert len(read_jsonl(run_dir / "reports" / "users.jsonl")) == stats["users_reported"]
    assert len(list((run_dir / "reports" / "users").glob("*.md"))) == stats["users_reported"]


def test_a_stage_returning_an_undeclared_file_fails_and_writes_nothing(
    fixture_run, tmp_path, monkeypatch
):
    run_dir = tmp_path / "run"
    shutil.copytree(fixture_run, run_dir)
    before = run_outputs(run_dir)
    report = pipeline._STAGE_BY_NAME["report"]
    stray = dataclasses.replace(
        report, run=lambda *args: ({**report.run(*args)[0], "stray.json": {}}, {})
    )
    monkeypatch.setitem(pipeline._STAGE_BY_NAME, "report", stray)
    with pytest.raises(StageError, match="declares"):
        pipeline.run_stage("report", _config(), None, run_dir)
    assert not (run_dir / "stray.json").exists()
    assert run_outputs(run_dir) == before


def test_a_source_edit_reruns_every_stage_once(corpus_path, tmp_path):
    package = tmp_path / "src" / "mindpipe"
    shutil.copytree(
        Path(pipeline.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__")
    )
    run_dir = tmp_path / "run"
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    command = [
        sys.executable, "-m", "mindpipe.cli", "run-all", "--input", str(corpus_path),
        "--out", str(run_dir), "--cohort-size", str(COHORT_SIZE),
    ]

    def run_all() -> tuple[list[str], str]:
        """Run the copy in a new process: (the stages it executed, its code digest)."""
        before = pipeline.load_manifest(run_dir)
        executed = len(before["stage_order"]) if before else 0
        done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        manifest = pipeline.load_manifest(run_dir)
        return manifest["stage_order"][executed:], manifest["code_digest"]

    order, first = run_all()
    assert order == list(pipeline.STAGE_NAMES)
    assert first == pipeline.code_digest()  # the digest does not depend on where the code is
    stages = package / "stages.py"
    stages.write_text(stages.read_text(encoding="utf-8") + "# an edit\n", encoding="utf-8")
    order, edited = run_all()
    assert order == list(pipeline.STAGE_NAMES) and edited != first
    assert run_all() == ([], edited)


def test_the_manifest_explains_its_config_digest(fixture_run):
    manifest = pipeline.load_manifest(fixture_run)
    config = json.dumps(manifest["config"], sort_keys=True, separators=(",", ":"))
    source = f"{manifest['code_digest']}\0{config}"
    assert manifest["config_digest"] == hashlib.sha256(source.encode("utf-8")).hexdigest()
    assert manifest["code_digest"] == pipeline.code_digest()


def test_stages_come_after_their_deps():
    seen: set[str] = set()
    for stage in pipeline.STAGES:
        assert set(stage.deps) <= seen, stage.name
        seen.add(stage.name)


def test_stage_inputs_are_outputs_of_transitive_deps():
    by_name = {stage.name: stage for stage in pipeline.STAGES}

    def upstream(name: str) -> set[str]:
        deps = set(by_name[name].deps)
        return deps.union(*(upstream(dep) for dep in deps))

    for stage in pipeline.STAGES:
        produced = {out for dep in upstream(stage.name) for out in by_name[dep].outputs}
        assert set(stage.inputs) <= produced, stage.name


def test_stage_resources_exist_under_the_default_config():
    config = PipelineConfig()
    for stage in pipeline.STAGES:
        paths = pipeline.resource_paths(stage, config)
        assert len(paths) == len(stage.resources) + stage.uses_backend, stage.name
        for path in paths:
            assert path.is_file(), (stage.name, path)
