from __future__ import annotations

import json
import shutil

import pytest

from conftest import COHORT_SIZE, SAFETY_USERS, read_backend_log, read_jsonl, run_outputs
from mindpipe import pipeline
from mindpipe.config import load_config
from mindpipe.diagnosis import serialize_dataframe
from mindpipe.errors import MissingStageFileError, StageError
from mindpipe.llm.completion import CompletionRequest
from mindpipe.llm.templates import render
from mindpipe.reports import author_slug


def _user_row(run_dir, author: str) -> dict:
    """The author's row of ``reports/users.jsonl``."""
    return next(r for r in read_jsonl(run_dir / "reports" / "users.jsonl") if r["author"] == author)


def test_one_report_pair_per_user_plus_run_report(fixture_run):
    assert len(read_jsonl(fixture_run / "reports" / "users.jsonl")) == 12
    assert len(list((fixture_run / "reports" / "users").glob("*.md"))) == 12
    assert (fixture_run / "reports" / "run_report.json").exists()
    assert (fixture_run / "reports" / "run_report.md").exists()


def test_safety_excluded_report_has_escalation_only(fixture_run):
    users_dir = fixture_run / "reports" / "users"
    for author in SAFETY_USERS:
        payload = _user_row(fixture_run, author)
        assert payload["status"] == "safety_excluded"
        assert payload["escalation"] == "content withheld; route to qualified practitioner"
        assert "diagnosis" not in payload
        assert "recommendations" not in payload
        markdown = (users_dir / f"{author_slug(author)}.md").read_text()
        assert "Safety escalation" in markdown
        assert "Diagnosis summary" not in markdown


def test_regular_report_carries_all_sections(fixture_run):
    users_dir = fixture_run / "reports" / "users"
    payload = _user_row(fixture_run, "ash_ember")
    assert payload["status"] == "ok"
    assert payload["non_temporal_summary"]["overall_severity"]
    assert payload["temporal_summary"]["frequency"]
    assert payload["chronology"]
    assert payload["diagnosis"]["status"] == "ok"
    assert payload["recommendations"]["status"] == "ok"
    markdown = (users_dir / "ash_ember.md").read_text()
    for heading in (
        "Non-temporal summary", "Temporal summary", "Chronology",
        "Diagnosis summary", "Recommendations",
    ):
        assert heading in markdown


def test_report_summary_lines_are_the_dataframe_lines_of_the_diagnosis_prompt(
    fixture_run, templates
):
    author = "ash_ember"
    payload = _user_row(fixture_run, author)
    assert payload["non_temporal_summary"] and payload["temporal_summary"]
    record = next(
        r for r in read_backend_log(fixture_run)
        if r["template"] == "diagnosis" and r["tags"]["author"] == author
    )
    # the log keeps the request's digest only: rebuild the prompt from the summaries row
    row = next(r for r in read_jsonl(fixture_run / "summaries.jsonl") if r["author"] == author)
    messages = render(
        templates["diagnosis"],
        {"Dataframe": serialize_dataframe(row["non_temporal"], row["temporal"])},
    )
    request = CompletionRequest(model=load_config().backend.model, messages=messages)
    assert request.cache_key() == record["request_digest"]
    prompt = messages[-1]["content"]
    before, after = templates["diagnosis"].user.split("[Dataframe]")
    assert prompt.startswith(before) and prompt.endswith(after)
    dataframe = prompt[len(before) : len(prompt) - len(after)].splitlines()
    markdown = (fixture_run / "reports" / "users" / f"{author}.md").read_text().splitlines()
    start, end = markdown.index("## Non-temporal summary"), markdown.index("## Chronology")
    report_lines = [line for line in markdown[start:end] if line.startswith("- ")]
    dataframe_lines = [
        line for line in dataframe if line not in ("", "NON-TEMPORAL SUMMARY", "TEMPORAL SUMMARY")
    ]
    assert len(report_lines) == 11
    assert report_lines == [f"- {line}" for line in dataframe_lines]


def test_report_fractions_rounded_in_markdown(fixture_run):
    markdown = (fixture_run / "reports" / "run_report.md").read_text()
    assert "| mild | 0.23 |" in markdown
    report = json.loads((fixture_run / "reports" / "run_report.json").read_text())
    # structured output keeps full precision
    assert report["severity"]["entry_level"]["mild"] == 23 / 100


def test_missing_stage_file_names_the_stage(fixture_run, tmp_path):
    partial = tmp_path / "partial"
    shutil.copytree(fixture_run, partial)
    (partial / "relations.jsonl").unlink()
    with pytest.raises(StageError) as err:
        pipeline.run_stage("report", load_config(), None, partial)
    assert isinstance(err.value.__cause__, MissingStageFileError)
    assert err.value.__cause__.stage == "interact"


def test_a_safety_excluded_author_without_an_escalation_row_fails_the_report(
    fixture_run, tmp_path
):
    run_dir = tmp_path / "run"
    shutil.copytree(fixture_run, run_dir)
    path = run_dir / "recommendations.jsonl"
    rows = [row for row in read_jsonl(path) if row["author"] not in SAFETY_USERS]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(StageError) as err:
        pipeline.run_stage("report", load_config(), None, run_dir)
    assert err.value.stage == "report"
    assert isinstance(err.value.__cause__, KeyError)
    assert err.value.__cause__.args[0] in SAFETY_USERS


def test_author_slug_sanitizes_and_disambiguates():
    assert author_slug("ash_ember") == "ash_ember"
    slug = author_slug("weird/../name")
    assert "/" not in slug
    assert author_slug("weird/../name") == slug  # deterministic
    assert author_slug("weird_.._name") != slug  # no collision after sanitizing


def test_user_rows_follow_summaries_with_one_profile_each(fixture_run):
    authors = [row["author"] for row in read_jsonl(fixture_run / "reports" / "users.jsonl")]
    assert authors == [row["author"] for row in read_jsonl(fixture_run / "summaries.jsonl")]
    profiles = sorted(p.name for p in (fixture_run / "reports" / "users").iterdir())
    assert profiles == sorted(f"{author_slug(author)}.md" for author in authors)


def test_cold_and_warm_cache_runs_give_identical_reports(corpus_path, tmp_path):
    config = load_config(
        overrides={"pipeline.cohort_size": COHORT_SIZE, "paths.cache_dir": str(tmp_path / "cache")}
    )
    cold = pipeline.run_all(config, [corpus_path], tmp_path / "cold")
    warm = pipeline.run_all(config, [corpus_path], tmp_path / "warm")
    assert cold["cache"]["misses"] > 0 and warm["cache"]["misses"] == 0
    assert run_outputs(tmp_path / "cold") == run_outputs(tmp_path / "warm")
