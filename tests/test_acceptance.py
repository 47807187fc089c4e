"""Acceptance suite: one test per release criterion, printed pass lines included.

Run with: pytest -v -s tests/test_acceptance.py
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    COHORT_SIZE,
    SAFETY_USERS,
    generative_records,
    read_backend_log,
    read_jsonl,
    run_outputs,
)
from mindpipe import pipeline
from mindpipe.aggregation import UserRecord, build_chronology, utc_date
from mindpipe.config import load_config, packaged_path
from mindpipe.llm.http_backend import HttpBackend
from mindpipe.llm.mock_backend import MockBackend
from mindpipe.llm.session import LlmSession
from mindpipe.recommendation import load_aliases

# Content-addressed canonical prompt texts; any drift in the shipped
# diagnosis/recommendation templates must fail loudly here.
DIAGNOSIS_SYSTEM_SHA = "c9c128b7baddf52ec9a76747ccf8bd0155a3a61109fedbe624c59dc2221c66d1"
DIAGNOSIS_USER_SHA = "3352f1b98666cbb12c65d4a51c2182f6bb652141ba27ca6e800bb3f48d10d1bd"
RECOMMEND_SYSTEM_SHA = "54e625b95fd45f11b831a04549e6b65ac9a45d12d7bdf2b4aaed7d1833c1847f"
RECOMMEND_USER_SHA = "951695eaa6c41a12031cd513d61402847c44e5ef11e1e175d1c01a6fdbcff82a"

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

MUTATION_ENTRY = "p_cedar_02"
MUTATION_AUTHOR = "cedar_lane"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _passed(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} ({label}): PASS")


@pytest.fixture(scope="module")
def twin_runs(tmp_path_factory, corpus_path):
    """Two independent full runs with per-run caches, with wall-clock timing."""
    config = load_config(overrides={"pipeline.cohort_size": COHORT_SIZE})
    runs = []
    for name in ("a", "b"):
        run_dir = tmp_path_factory.mktemp(f"accept_{name}")
        started = time.monotonic()
        pipeline.run_all(config, [corpus_path], run_dir)
        runs.append((run_dir, time.monotonic() - started))
    return runs


@pytest.fixture(scope="module")
def sent_run(tmp_path_factory, corpus_path):
    """A full run on a fresh cache, with every request that reached the backend as sent."""
    sent = []
    complete = MockBackend.complete

    def capture(backend, request):
        sent.append(request)
        return complete(backend, request)

    config = load_config(overrides={"pipeline.cohort_size": COHORT_SIZE})
    run_dir = tmp_path_factory.mktemp("accept_sent")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MockBackend, "complete", capture)
        pipeline.run_all(config, [corpus_path], run_dir)
    return run_dir, sent, config


def test_criterion_1_determinism_and_runtime(twin_runs):
    (run_a, elapsed_a), (run_b, elapsed_b) = twin_runs
    assert elapsed_a < 30.0 and elapsed_b < 30.0, (elapsed_a, elapsed_b)
    outputs_a = run_outputs(run_a)
    assert set(STAGE_FILES) < set(outputs_a)
    assert outputs_a == run_outputs(run_b)
    _passed(1, "determinism, byte-identical outputs, < 30 s")


def test_criterion_2_prompt_fidelity(sent_run, templates):
    diagnosis = templates["diagnosis"]
    recommendation = templates["recommendation"]
    assert _sha(diagnosis.system) == DIAGNOSIS_SYSTEM_SHA
    assert _sha(diagnosis.user) == DIAGNOSIS_USER_SHA
    assert _sha(recommendation.system) == RECOMMEND_SYSTEM_SHA
    assert _sha(recommendation.user) == RECOMMEND_USER_SHA
    assert "limited to 400 words" in diagnosis.system
    assert "three most suitable therapies and five actionable behavior changes" in (
        recommendation.system
    )

    # the logs keep no prompt text, so audit each record's request as it was sent:
    # the cache starts empty, so each hit's digest is an earlier miss's
    run_dir, sent, _ = sent_run
    sent_by_key = {request.cache_key(): request for request in sent}
    checked = 0
    for record in read_backend_log(run_dir):
        if record["template"] not in ("diagnosis", "recommendation"):
            continue
        template = templates[record["template"]]
        prefix, suffix = template.user.split("[Dataframe]")
        messages = sent_by_key[record["request_digest"]].messages
        system, user = messages[0], messages[-1]
        assert system["role"] == "system"
        assert system["content"] == template.system
        assert user["content"].startswith(prefix)
        assert user["content"].endswith(suffix)
        checked += 1
    assert checked >= 20  # every summarized user, both templates
    _passed(2, "sent prompts hash-match the canonical text")


def test_criterion_3_parameter_fidelity(sent_run):
    run_dir, sent, config = sent_run
    pinned = {
        "model": config.backend.model,
        "temperature": 0,
        "max_tokens": 1000,
        "top_p": 1.0,
        "stop": None,
    }
    assert sent
    for request in sent:
        assert {name: getattr(request, name) for name in pinned} == pinned
    # the cache starts empty, so each miss is sent once and each hit's key is an earlier miss's
    records = read_backend_log(run_dir)
    assert len(sent) == sum(not record["cache_hit"] for record in records)
    sent_keys = {request.cache_key() for request in sent}
    assert all(record["request_digest"] in sent_keys for record in records)
    assert pipeline.load_manifest(run_dir)["request"] == pinned
    _passed(3, f"all {len(records)} requests carry the pinned parameter set")


def test_criterion_4_safety_gate(twin_runs):
    run_a, _ = twin_runs[0]
    assert generative_records(run_a, SAFETY_USERS) == []
    recommendations = read_jsonl(run_a / "recommendations.jsonl")
    escalations = [r for r in recommendations if r["status"] == "escalation"]
    assert len(escalations) == 2
    assert {r["author"] for r in escalations} == SAFETY_USERS
    assert all(
        r["notice"] == "content withheld; route to qualified practitioner" for r in escalations
    )
    _passed(4, "zero generative requests for quarantined users; 2 escalations")


def test_criterion_5_recommendation_cardinality(twin_runs):
    run_a, _ = twin_runs[0]
    rows = [r for r in read_jsonl(run_a / "recommendations.jsonl") if r["status"] == "ok"]
    assert rows
    for row in rows:
        assert 1 <= len(row["therapies"]) <= 3, row
        assert 1 <= len(row["behavior_changes"]) <= 5, row
    truncated = [r for r in rows if any("truncated" in w for w in r["warnings"])]
    assert truncated, "the forced four-therapy response must exercise truncation"
    _passed(5, f"cardinality bounds hold on all {len(rows)} sets; truncation exercised")


def test_criterion_6_statistics_match_brute_force_recount(twin_runs):
    run_a, _ = twin_runs[0]
    report = json.loads((run_a / "reports" / "run_report.json").read_text())
    features = [r for r in read_jsonl(run_a / "features.jsonl") if r["status"] == "ok"]
    summaries = read_jsonl(run_a / "summaries.jsonl")
    recommendations = read_jsonl(run_a / "recommendations.jsonl")
    relations = read_jsonl(run_a / "relations.jsonl")

    # severity, entry level: plain tally
    tally = Counter(r["severity"] for r in features)
    for band, fraction in report["severity"]["entry_level"].items():
        assert abs(fraction - tally.get(band, 0) / len(features)) <= 1e-9

    # severity, user level: reapply the documented roll-up longhand
    per_user: dict[str, list[str]] = {}
    for row in features:
        if not row["flagged"]:
            per_user.setdefault(row["author"], []).append(row["severity"])
    bands = []
    for severities in per_user.values():
        p_severe = sum(1 for s in severities if s == "severe") / len(severities)
        p_moderate = sum(1 for s in severities if s == "moderate") / len(severities)
        if p_severe >= 0.5:
            bands.append("severe")
        elif p_severe + p_moderate >= 0.5:
            bands.append("moderate_to_severe")
        else:
            bands.append("mild_to_moderate")
    for band, fraction in report["severity"]["user_level"].items():
        assert abs(fraction - bands.count(band) / len(bands)) <= 1e-9

    # temporal coverage
    with_timeline = sum(1 for r in features if r["timeline"] is not None)
    assert abs(
        report["temporal_coverage"]["entry_fraction_with_timeline"]
        - with_timeline / len(features)
    ) <= 1e-9
    summarized = [r for r in summaries if r["status"] == "ok"]
    with_temporal = sum(1 for r in summarized if r["temporal"] is not None)
    assert abs(
        report["temporal_coverage"]["user_fraction_with_temporal_summary"]
        - with_temporal / len(summarized)
    ) <= 1e-9

    # therapy frequency: independent canonicalization walk
    aliases = load_aliases(packaged_path("data/therapy_aliases.json"))
    counts: Counter[str] = Counter()
    for row in recommendations:
        if row["status"] != "ok":
            continue
        seen = set()
        for name in row["therapies"]:
            cleaned = re.sub(r"\s*\([^)]*\)", "", name).strip().rstrip(".")
            cleaned = re.sub(r"\s+", " ", cleaned)
            seen.add(aliases.get(cleaned.casefold(), cleaned))
        counts.update(seen)
    expected_table = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    actual_table = [(r["therapy"], r["users"]) for r in report["therapy_frequency"]]
    assert actual_table == expected_table

    # relation fractions
    label_tally = Counter(r["relation"] for r in relations)
    for label, fraction in report["relations"]["fractions"].items():
        assert abs(fraction - label_tally[label] / len(relations)) <= 1e-9
    unrelated = sum(
        1
        for r in relations
        if r["relation"] in ("not_related", "unprocessed_safety")
        or (r["relation"] == "other" and r.get("detail") == "backend_error")
    )
    assert abs(
        report["relations"]["related_fraction"] - (1 - unrelated / len(relations))
    ) <= 1e-9
    _passed(6, "all reported statistics equal independent recounts (1e-9)")


@st.composite
def _user_records(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    entries = []
    for i in range(n):
        timeline = draw(
            st.one_of(st.none(), st.text(min_size=1, max_size=10).map(str.strip).filter(bool))
        )
        created = draw(st.integers(min_value=1, max_value=2_000_000_000))
        entries.append(
            {
                "entry_id": f"e{i}",
                "author": "u",
                "created_utc": created,
                "flagged": False,
                "status": "ok",
                "severity": "mild",
                "causes": [],
                "tone": [],
                "disorders": [],
                "timeline": timeline,
                "temporal_degraded": False,
                "clean_text": draw(st.text(max_size=40)),
            }
        )
    entries.sort(key=lambda e: (e["created_utc"], e["entry_id"]))
    return UserRecord(author="u", entries=entries)


@settings(max_examples=1000, deadline=None)
@given(_user_records())
def test_criterion_7_chronology_invariants(record):
    chronology = build_chronology(record)
    dates = [event["date"] for event in chronology]
    assert dates == sorted(dates)
    expected = [e for e in record.entries if e["timeline"] is not None]
    assert len(chronology) == len(expected)
    for event, entry in zip(chronology, expected):
        assert event["timeline"] == entry["timeline"]
        assert event["date"] == utc_date(entry["created_utc"])


def test_criterion_7_pass_line():
    _passed(7, "chronology invariants over 1000 randomized records")


def test_criterion_8_cache_idempotence_and_targeted_invalidation(
    tmp_path_factory, corpus_path
):
    cache_dir = tmp_path_factory.mktemp("shared_cache")
    config = load_config(
        overrides={"pipeline.cohort_size": COHORT_SIZE, "paths.cache_dir": str(cache_dir)}
    )
    run1 = tmp_path_factory.mktemp("cache_run1")
    manifest1 = pipeline.run_all(config, [corpus_path], run1)
    total_requests = manifest1["cache"]["hits"] + manifest1["cache"]["misses"]

    run2 = tmp_path_factory.mktemp("cache_run2")
    manifest2 = pipeline.run_all(config, [corpus_path], run2)
    assert manifest2["cache"]["hit_ratio"] == 1.0
    assert manifest2["cache"]["misses"] == 0
    assert manifest2["cache"]["hits"] == total_requests
    assert all(rec["cache_hit"] for rec in read_backend_log(run2))

    # mutate exactly one entry's text with a rule-neutral suffix
    mutated = tmp_path_factory.mktemp("mutated") / "corpus.jsonl"
    lines = []
    for line in corpus_path.read_text(encoding="utf-8").splitlines():
        if f'"{MUTATION_ENTRY}"' in line:
            obj = json.loads(line)
            obj["selftext"] += " today."
            line = json.dumps(obj, ensure_ascii=False)
        lines.append(line)
    mutated.write_text("".join(l + "\n" for l in lines), encoding="utf-8")

    run3 = tmp_path_factory.mktemp("cache_run3")
    pipeline.run_all(config, [mutated], run3)
    misses = [rec for rec in read_backend_log(run3) if not rec["cache_hit"]]
    assert len(misses) == 4
    assert {m["template"] for m in misses} == {
        "relevance", "safety", "extract_features", "extract_temporal",
    }
    assert all(m["tags"]["entry_id"] == MUTATION_ENTRY for m in misses)
    assert all(m["tags"]["author"] == MUTATION_AUTHOR for m in misses)
    _passed(8, "hit ratio 1.0 on rerun; mutation invalidates exactly 4 requests")


def test_criterion_9_conservation(twin_runs, corpus_path):
    run_a, _ = twin_runs[0]
    report = json.loads((run_a / "reports" / "run_report.json").read_text())
    assert report["conservation_violations"] == []

    # independent recount directly over the files
    corpus_lines = [l for l in corpus_path.read_text(encoding="utf-8").splitlines()]
    entries = read_jsonl(run_a / "entries.jsonl")
    rejects = read_jsonl(run_a / "rejects.jsonl")
    assert len(corpus_lines) == len(entries) + len(rejects)

    cohort = json.loads((run_a / "cohort.json").read_text())
    cohort_authors = {u["author"] for u in cohort["users"]}
    filtered = read_jsonl(run_a / "filtered.jsonl")
    assert len(filtered) == sum(1 for e in entries if e["author"] in cohort_authors)
    dispositions = Counter(r["disposition"] for r in filtered)
    assert sum(dispositions.values()) == len(filtered)

    features = read_jsonl(run_a / "features.jsonl")
    retained = dispositions["flagged"] + dispositions["retained"]
    assert len(features) == retained
    parse_failures = sum(1 for r in features if r["status"] != "ok")
    assert parse_failures + sum(1 for r in features if r["status"] == "ok") == retained

    summaries = read_jsonl(run_a / "summaries.jsonl")
    statuses = Counter(r["status"] for r in summaries)
    assert sum(statuses.values()) == len(summaries)
    assert len(summaries) + report["stage_counts"]["aggregate"]["omitted_no_entries"] == len(
        cohort_authors
    )

    relations = read_jsonl(run_a / "relations.jsonl")
    retained_comments = sum(
        1
        for r in filtered
        if r["disposition"] in ("flagged", "retained") and r["entry"]["kind"] == "comment"
    )
    skipped = report["stage_counts"]["interact"]["skipped_no_parent"]
    assert retained_comments == len(relations) + skipped
    _passed(9, "every entry accounted for in exactly one terminal disposition")


LIVE_URL_ENV = "MINDPIPE_LIVE_BASE_URL"
LIVE_MODEL_ENV = "MINDPIPE_LIVE_MODEL"
LIVE_KEY_ENV = "MINDPIPE_LIVE_API_KEY_ENV"


@pytest.mark.skipif(
    not os.environ.get(LIVE_URL_ENV),
    reason=f"set {LIVE_URL_ENV}, {LIVE_MODEL_ENV}, {LIVE_KEY_ENV} to run the live smoke test",
)
def test_criterion_10_live_smoke(corpus_path, templates):
    from mindpipe.extraction import extract_entry
    from mindpipe.filtering import filter_entry
    from mindpipe.ingestion import read_dumps

    backend = HttpBackend(
        base_url=os.environ[LIVE_URL_ENV],
        api_key_env=os.environ.get(LIVE_KEY_ENV, "MINDPIPE_API_KEY"),
        max_attempts=4,
    )
    session = LlmSession(
        backend, templates, model=os.environ.get(LIVE_MODEL_ENV, "llama-3.1-8b-instant")
    )
    entries, _ = read_dumps([corpus_path])
    sample = [e for e in entries if e["id"] in ("p_ash_01", "p_briar_01", "p_cedar_01")]
    assert len(sample) == 3
    try:
        for entry in sample:
            filtered = filter_entry(entry, session, [])
            assert filtered["disposition"] in (
                "flagged", "retained", "irrelevant", "relevance_unknown"
            )
            row = extract_entry({**filtered, "disposition": "retained"}, session)
            assert (row["status"] == "ok") != ("failure" in row)
            assert row.get("timeline") is None or isinstance(row["timeline"], str)
            assert row["created_utc"] == entry["created_utc"]
    finally:
        backend.close()  # its pooled connections
    _passed(10, "live endpoint smoke: parse or well-formed failure, no crash")
