from __future__ import annotations

import json

from hypothesis import given, strategies as st

from mindpipe.ingestion import (
    Cohort,
    RawEntry,
    Reject,
    iter_parse,
    select_cohort,
)


def parse_dump(lines):
    """(entries, rejects) from ``iter_parse``, each in stream order."""
    items = list(iter_parse(lines))
    entries = [item for item in items if isinstance(item, RawEntry)]
    return entries, [item for item in items if isinstance(item, Reject)]


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
    assert [e.id for e in entries] == ["p1", "p2", "c1"]
    assert rejects == [Reject(line_no=3, reason="missing_field:author")]


def test_post_title_and_selftext_concatenated_with_blank_line():
    (entry,), rejects = parse_dump([_post(title="My title", selftext="First.\nSecond.")])
    assert rejects == []
    assert entry.body == "My title\n\nFirst.\nSecond."
    assert entry.title == "My title"
    assert entry.kind == "post"
    assert entry.parent_id is None


def test_title_only_and_selftext_only_posts():
    obj = {"id": "p9", "author": "a", "created_utc": 1, "subreddit": "s", "title": "Just title"}
    (entry,), _ = parse_dump([json.dumps(obj)])
    assert entry.body == "Just title"
    obj = {"id": "p10", "author": "a", "created_utc": 1, "subreddit": "s", "selftext": "Only body"}
    (entry,), _ = parse_dump([json.dumps(obj)])
    assert entry.body == "Only body"
    assert entry.title is None


def test_comment_requires_body_and_keeps_parent():
    (entry,), _ = parse_dump([_comment()])
    assert entry.kind == "comment"
    assert entry.parent_id == "t3_p1"
    bad = json.dumps(
        {"id": "c9", "author": "a", "created_utc": 1, "subreddit": "s", "parent_id": "t3_x"}
    )
    _, rejects = parse_dump([bad])
    assert rejects[0].reason == "missing_field:body"


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
    assert [e.id for e in entries] == ["p3"]
    assert [(r.line_no, r.reason) for r in rejects] == [
        (1, "malformed"),
        (2, "invalid_field:created_utc"),
        (3, "invalid_field:created_utc"),
        (5, "duplicate_id"),
        (6, "malformed"),
        (7, "malformed"),
    ]


def test_missing_created_utc_is_missing_field():
    obj = {"id": "p1", "author": "a", "subreddit": "s", "title": "t"}
    _, rejects = parse_dump([json.dumps(obj)])
    assert rejects[0].reason == "missing_field:created_utc"


@given(
    st.lists(
        st.one_of(
            st.text(max_size=30),
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
    claimed = sorted(r.line_no for r in rejects)
    assert len(set(claimed)) == len(claimed)


def test_reparse_is_identical(corpus_path):
    lines = corpus_path.read_text(encoding="utf-8").splitlines()
    first = parse_dump(lines)
    second = parse_dump(lines)
    assert first == second


def test_select_cohort_zero():
    entries, _ = parse_dump([_post("p1", "alice")])
    cohort = select_cohort(entries, 0)
    assert cohort.users == []
    assert cohort.selection_size == 0


def test_select_cohort_tie_breaks_lexicographically():
    lines = (
        [_post(f"a{i}", "a", created=i + 1) for i in range(3)]
        + [_post(f"b{i}", "b", created=i + 1) for i in range(3)]
        + [_post("c0", "c", created=1)]
    )
    entries, _ = parse_dump(lines)
    cohort = select_cohort(entries, 2)
    assert cohort.users == [{"author": "a", "entry_count": 3}, {"author": "b", "entry_count": 3}]


def test_select_cohort_larger_n_returns_all():
    entries, _ = parse_dump([_post("p1", "alice"), _post("p2", "bob")])
    cohort = select_cohort(entries, 10)
    assert len(cohort.users) == 2


@given(st.permutations(list(range(12))))
def test_select_cohort_invariant_under_permutation(order):
    authors = ["a", "b", "b", "c", "c", "c", "d", "d", "d", "d", "e", "e"]
    entries = [
        RawEntry(id=f"p{i}", author=authors[i], kind="post", created_utc=1, subreddit="s", body="x")
        for i in range(12)
    ]
    base = select_cohort(entries, 3)
    shuffled = select_cohort([entries[i] for i in order], 3)
    assert base == shuffled


def test_cohort_roundtrip_dict():
    users = [{"author": "a", "entry_count": 3}, {"author": "b", "entry_count": 1}]
    cohort = Cohort(selection_size=2, users=users)
    # the row written as cohort.json, in field order, reads back as the same cohort
    row = json.loads(json.dumps(vars(cohort)))
    assert list(row) == ["selection_size", "users"]
    assert Cohort(**row) == cohort
