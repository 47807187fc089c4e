from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from mindpipe import pipeline, runfiles
from mindpipe.aggregation import utc_date
from mindpipe.config import load_config
from mindpipe.ingestion import MAX_EPOCH, read_dumps, select_cohort
from mindpipe.stages import stage_ingest


def parse_dump(lines):
    """(entries rows, rejects rows) of ``read_dumps`` over one dump file of these lines."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "dump.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return read_dumps([path])


def _post(entry_id="p1", author="alice", created=100, **extra):
    obj = {
        "id": entry_id,
        "author": author,
        "created_utc": created,
        "subreddit": "mentalhealth",
        "title": "Title",
        "selftext": "Body text",
    }
    obj.update(extra)
    return json.dumps(obj)


def _comment(entry_id="c1", author="bob", created=200, parent="t3_p1", body="reply"):
    return json.dumps(
        {
            "id": entry_id,
            "author": author,
            "created_utc": created,
            "subreddit": "mentalhealth",
            "body": body,
            "parent_id": parent,
        }
    )


def test_empty_stream():
    assert parse_dump([]) == ([], [])


def test_four_line_fixture_with_missing_author():
    lines = [
        _post("p1", "alice"),
        _post("p2", "bob"),
        json.dumps(
            {"id": "p3", "created_utc": 5, "subreddit": "s", "title": "t", "selftext": "x"}
        ),
        _comment("c1", "carol"),
    ]
    entries, rejects = parse_dump(lines)
    assert [e["id"] for e in entries] == ["p1", "p2", "c1"]
    assert [(r["line_no"], r["reason"]) for r in rejects] == [(3, "missing_field:author")]


def test_post_title_and_selftext_concatenated_with_blank_line():
    (entry,), rejects = parse_dump([_post(title="My title", selftext="First.\nSecond.")])
    assert rejects == []
    assert entry["body"] == "My title\n\nFirst.\nSecond."
    assert entry["title"] == "My title"
    assert entry["kind"] == "post"
    assert entry["parent_id"] is None


def test_title_only_and_selftext_only_posts():
    obj = {"id": "p9", "author": "a", "created_utc": 1, "subreddit": "s", "title": "Just title"}
    (entry,), _ = parse_dump([json.dumps(obj)])
    assert entry["body"] == "Just title"
    obj = {"id": "p10", "author": "a", "created_utc": 1, "subreddit": "s", "selftext": "Only body"}
    (entry,), _ = parse_dump([json.dumps(obj)])
    assert entry["body"] == "Only body"
    assert entry["title"] is None


def test_comment_requires_body_and_keeps_parent():
    (entry,), _ = parse_dump([_comment()])
    assert entry["kind"] == "comment"
    assert entry["parent_id"] == "t3_p1"
    bad = json.dumps(
        {"id": "c9", "author": "a", "created_utc": 1, "subreddit": "s", "parent_id": "t3_x"}
    )
    _, rejects = parse_dump([bad])
    assert rejects[0]["reason"] == "missing_field:body"


def test_malformed_and_invalid_created_and_duplicates():
    lines = [
        "{not json",
        _post("p1", created=0),
        _post("p2", created="soon"),
        _post("p3"),
        _post("p3"),
        "[1, 2]",
        "",
    ]
    entries, rejects = parse_dump(lines)
    assert [e["id"] for e in entries] == ["p3"]
    assert [(r["line_no"], r["reason"]) for r in rejects] == [
        (1, "malformed"),
        (2, "invalid_field:created_utc"),
        (3, "invalid_field:created_utc"),
        (5, "duplicate_id"),
        (6, "malformed"),
        (7, "malformed"),
    ]


@pytest.mark.parametrize(
    "created", ["1e400", "Infinity", "-Infinity", "99999999999999", str(MAX_EPOCH + 1)]
)
def test_d10_an_epoch_past_the_datetime_range_is_invalid(created):
    # an infinity once failed the ingest stage; a finite epoch past year 9999
    # was accepted and then failed aggregate for every user
    line = _post().replace('"created_utc": 100', f'"created_utc": {created}')
    entries, rejects = parse_dump([line])
    assert entries == []
    assert [r["reason"] for r in rejects] == ["invalid_field:created_utc"]


def test_the_last_second_of_year_9999_is_a_valid_epoch():
    (entry,), _ = parse_dump([_post(created=MAX_EPOCH)])
    assert utc_date(entry["created_utc"]) == "9999-12-31"


def test_d12_a_line_that_is_not_utf8_is_rejected(tmp_path):
    # a lone surrogate once failed ingest when entries.jsonl was written, and a
    # byte that is not UTF-8 failed it when the dump was read
    good = [_post("p1", "alice"), _comment("c1", "bob"), _post("p2", "carol")]
    escaped = _post("p3", selftext="\ud800").encode("ascii")
    in_string = _post("p4", title="XX").encode("ascii").replace(b"XX", b"\xff")
    outside = _post("p5").encode("ascii").replace(b", ", b", \xff", 1)
    lines = [good[0].encode(), escaped, good[1].encode(), in_string, outside, good[2].encode()]
    (tmp_path / "bad.jsonl").write_bytes(b"".join(line + b"\n" for line in lines))
    (tmp_path / "good.jsonl").write_text("".join(line + "\n" for line in good), encoding="utf-8")
    for name in ("bad", "good"):
        pipeline.run_stage("ingest", load_config(), [tmp_path / f"{name}.jsonl"], tmp_path / name)
    rejects = runfiles.read_jsonl(tmp_path / "bad" / runfiles.REJECTS, "ingest")
    assert [(row["line_no"], row["reason"]) for row in rejects] == [
        (2, "invalid_field:body"),
        (4, "invalid_field:title"),
        (5, "malformed"),
    ]
    for name in (runfiles.ENTRIES, runfiles.COHORT):
        assert (tmp_path / "bad" / name).read_bytes() == (tmp_path / "good" / name).read_bytes()


def test_missing_created_utc_is_missing_field():
    obj = {"id": "p1", "author": "a", "subreddit": "s", "title": "t"}
    _, rejects = parse_dump([json.dumps(obj)])
    assert rejects[0]["reason"] == "missing_field:created_utc"


@given(
    st.lists(
        st.one_of(
            # a line ends at a line break, so a generated line holds none
            st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=30),
            st.builds(
                lambda i, a, c: _post(f"p{i}", a, c),
                st.integers(0, 50),
                st.text(min_size=1, max_size=5),
                st.integers(-5, 10**9),
            ),
        ),
        max_size=30,
    )
)
def test_every_line_lands_in_exactly_one_bucket(lines):
    entries, rejects = parse_dump(lines)
    assert len(entries) + len(rejects) == len(lines)
    claimed = sorted(r["line_no"] for r in rejects)
    assert len(set(claimed)) == len(claimed)


def test_reparse_is_identical(corpus_path):
    first = read_dumps([corpus_path])
    second = read_dumps([corpus_path])
    assert first == second


def test_select_cohort_zero():
    entries, _ = parse_dump([_post("p1", "alice")])
    assert select_cohort(entries, 0) == {"users": []}


def test_select_cohort_tie_breaks_lexicographically():
    lines = (
        [_post(f"a{i}", "a", created=i + 1) for i in range(3)]
        + [_post(f"b{i}", "b", created=i + 1) for i in range(3)]
        + [_post("c0", "c", created=1)]
    )
    entries, _ = parse_dump(lines)
    cohort = select_cohort(entries, 2)
    assert cohort["users"] == [{"author": "a"}, {"author": "b"}]


def test_select_cohort_larger_n_returns_all():
    entries, _ = parse_dump([_post("p1", "alice"), _post("p2", "bob")])
    cohort = select_cohort(entries, 10)
    assert len(cohort["users"]) == 2


@given(st.permutations(list(range(12))))
def test_select_cohort_invariant_under_permutation(order):
    authors = ["a", "b", "b", "c", "c", "c", "d", "d", "d", "d", "e", "e"]
    entries = [_row(id=f"p{i}", author=authors[i], body="x") for i in range(12)]
    base = select_cohort(entries, 3)
    shuffled = select_cohort([entries[i] for i in order], 3)
    assert base == shuffled


def test_cohort_roundtrip_dict():
    users = [{"author": "a"}, {"author": "b"}]
    entries = [_row(id=f"p{i}", author=author, body="x") for i, author in enumerate("aaab")]
    cohort = select_cohort(entries, 2)
    assert cohort == {"users": users}
    # the row written as cohort.json, in field order, reads back as the same cohort
    row = json.loads(json.dumps(cohort))
    assert list(row) == ["users"]
    assert row == cohort


# The parser's contract, pinned through the ingest stage body: one case per
# dump line, each giving the line's reject reason or its ``entries.jsonl`` row.
def _ingest_dumps(tmp_path, *dumps):
    """(entries rows, rejects rows) of ``stage_ingest`` over one dump file per line list."""
    paths = []
    for number, lines in enumerate(dumps):
        path = tmp_path / f"dump{number}.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        paths.append(str(path))
    files, _stats = stage_ingest({}, load_config(), None, {"input_paths": paths})
    return files[runfiles.ENTRIES], files[runfiles.REJECTS], paths


_BASE = {"id": "x1", "author": "ann", "subreddit": "s", "created_utc": 100}


def _row(**fields) -> dict:
    """The entries row of _BASE as a post, with ``fields`` replacing its values."""
    row = {
        "id": "x1", "author": "ann", "kind": "post", "created_utc": 100,
        "subreddit": "s", "title": None, "body": "", "parent_id": None,
    }
    row.update(fields)
    return row


def _without(*fields, **extra) -> dict:
    obj = {key: value for key, value in _BASE.items() if key not in fields}
    obj.update(extra)
    return obj


PARSER_TABLE = [
    # malformed lines
    ("blank", "", "malformed"),
    ("whitespace", "   ", "malformed"),
    ("not json", "{not json", "malformed"),
    ("array", "[1, 2]", "malformed"),
    ("null", "null", "malformed"),
    ("number", "5", "malformed"),
    ("nested too deep", "[" * 100_000 + "]" * 100_000, "malformed"),
    ("int of 5000 digits", '{"id": "x1", "score": ' + "9" * 5000 + "}", "malformed"),
    # the order in which reasons are checked: id, author, subreddit, created_utc, body
    ("empty object", {}, "missing_field:id"),
    ("no id, bad epoch", _without("id", created_utc=True), "missing_field:id"),
    ("no author", _without("author"), "missing_field:author"),
    ("no subreddit, no epoch", _without("subreddit", "created_utc"), "missing_field:subreddit"),
    ("no epoch, no body", _without("created_utc"), "missing_field:created_utc"),
    ("bad epoch, no body", _without(created_utc=True), "invalid_field:created_utc"),
    ("no body", _without(), "missing_field:body"),
    # whitespace-only and non-string identifying fields
    ("blank id", _without(id=" ", title="T"), "missing_field:id"),
    ("blank author", _without(author="\t", title="T"), "missing_field:author"),
    ("blank subreddit", _without(subreddit="  \n", title="T"), "missing_field:subreddit"),
    ("null author", _without(author=None, title="T"), "missing_field:author"),
    ("numeric id", _without(id=7, title="T"), _row(id="7", title="T", body="T")),
    ("padded author", _without(author=" ann ", title="T"),
     _row(author=" ann ", title="T", body="T")),
    # created_utc
    ("bool epoch", _without(created_utc=False, title="T"), "invalid_field:created_utc"),
    ("null epoch", _without(created_utc=None, title="T"), "invalid_field:created_utc"),
    ("numeric string epoch", _without(created_utc="1234", title="T"),
     _row(created_utc=1234, title="T", body="T")),
    ("float epoch", _without(created_utc=100.9, title="T"),
     _row(created_utc=100, title="T", body="T")),
    ("float string epoch", _without(created_utc="100.5", title="T"), "invalid_field:created_utc"),
    ("zero epoch", _without(created_utc=0, title="T"), "invalid_field:created_utc"),
    ("negative epoch", _without(created_utc=-1, title="T"), "invalid_field:created_utc"),
    ("last epoch", _without(created_utc=MAX_EPOCH, title="T"),
     _row(created_utc=MAX_EPOCH, title="T", body="T")),
    ("past last epoch", _without(created_utc=MAX_EPOCH + 1, title="T"),
     "invalid_field:created_utc"),
    # a post's title and selftext
    ("both", _without(title="T", selftext="S"), _row(title="T", body="T\n\nS")),
    ("title only", _without(title="T"), _row(title="T", body="T")),
    ("selftext only", _without(selftext="S"), _row(body="S")),
    ("both null", _without(title=None, selftext=None), "missing_field:body"),
    ("null title", _without(title=None, selftext="S"), _row(body="S")),
    ("both empty", _without(title="", selftext=""), _row(title="", body="")),
    ("empty selftext", _without(title="T", selftext=""), _row(title="T", body="T")),
    ("empty title", _without(title="", selftext="S"), _row(title="", body="S")),
    ("zero selftext", _without(selftext=0), _row(body="0")),
    ("zero title", _without(title=0), _row(title="0", body="0")),
    ("title and zero selftext", _without(title="T", selftext=0), _row(title="T", body="T\n\n0")),
    ("false selftext", _without(title="T", selftext=False), _row(title="T", body="T\n\nFalse")),
    ("false title", _without(title=False, selftext="S"),
     _row(title="False", body="False\n\nS")),
    ("blank selftext", _without(title="T", selftext="  "), _row(title="T", body="T\n\n  ")),
    # comments
    ("comment", _without(body="b", parent_id="t3_p"),
     _row(kind="comment", body="b", parent_id="t3_p")),
    ("comment with title", _without(title="T", selftext="S", body="b", parent_id="t3_p"),
     _row(kind="comment", body="b", parent_id="t3_p")),
    ("comment without body", _without(title="T", parent_id="t3_p"), "missing_field:body"),
    ("comment with null body", _without(body=None, parent_id="t3_p"), "missing_field:body"),
    ("numeric comment", _without(body=0, parent_id=5),
     _row(kind="comment", body="0", parent_id="5")),
    ("null parent with body", _without(body="b", parent_id=None), "missing_field:body"),
    ("null parent with title", _without(title="T", body="b", parent_id=None),
     _row(title="T", body="T")),
]


@pytest.mark.parametrize(
    "line, expected", [case[1:] for case in PARSER_TABLE], ids=[case[0] for case in PARSER_TABLE]
)
def test_the_parser_table(tmp_path, line, expected):
    if not isinstance(line, str):
        line = json.dumps(line)
    entries, rejects, (path,) = _ingest_dumps(tmp_path, [line])
    if isinstance(expected, str):
        assert entries == []
        assert rejects == [{"file": path, "line_no": 1, "reason": expected}]
    else:
        assert rejects == []
        assert [list(row.items()) for row in entries] == [list(expected.items())]


def test_an_id_is_unique_across_dump_files_and_a_rejected_line_claims_none(tmp_path):
    first = [
        json.dumps(_without(id="a", author=None, title="T")),
        json.dumps(_without(id="a", title="T")),
        json.dumps(_without(id="b", title="T")),
    ]
    second = [
        json.dumps(_without(id="b", title="again")),
        json.dumps(_without(id="c", title="T")),
        json.dumps(_without(id="a", title="again")),
    ]
    entries, rejects, paths = _ingest_dumps(tmp_path, first, second)
    assert [row["id"] for row in entries] == ["a", "b", "c"]
    assert rejects == [
        {"file": paths[0], "line_no": 1, "reason": "missing_field:author"},
        {"file": paths[1], "line_no": 1, "reason": "duplicate_id"},
        {"file": paths[1], "line_no": 3, "reason": "duplicate_id"},
    ]
