from __future__ import annotations

from conftest import ScriptedSession
from mindpipe.errors import BackendExhaustedError
from mindpipe.filtering import CleanEntry, EntryRef
from mindpipe.interaction import (
    Pair,
    classify_relation,
    normalize_relation,
    pair_entries,
)


def _post(entry_id, author="poster", text="post text"):
    entry = EntryRef(id=entry_id, author=author, kind="post", created_utc=100)
    return CleanEntry(entry=entry, clean_text=text)


def _comment(entry_id, parent, author="replier", text="reply text"):
    entry = EntryRef(
        id=entry_id, author=author, kind="comment", created_utc=200, parent_id=parent
    )
    return CleanEntry(entry=entry, clean_text=text)


def test_pairing_direct_parent():
    pairs, skipped = pair_entries([_post("p1"), _comment("c1", "t3_p1")], set())
    assert skipped == 0
    assert len(pairs) == 1
    assert pairs[0].post.entry.id == "p1"
    assert pairs[0].comment.entry.id == "c1"


def test_missing_parent_skipped():
    pairs, skipped = pair_entries([_comment("c1", "t3_absent")], set())
    assert pairs == [] and skipped == 1


def test_comment_parent_not_paired():
    retained = [_post("p1"), _comment("c1", "t3_p1"), _comment("c2", "t1_c1")]
    pairs, skipped = pair_entries(retained, set())
    assert len(pairs) == 1
    assert skipped == 1


def test_fixture_counts_three_posts_five_comments_four_resolvable():
    retained = [
        _post("p1"), _post("p2"), _post("p3"),
        _comment("c1", "t3_p1"), _comment("c2", "t3_p1"),
        _comment("c3", "t3_p2"), _comment("c4", "t3_p3"),
        _comment("c5", "t3_gone"),
    ]
    pairs, skipped = pair_entries(retained, set())
    assert len(pairs) == 4
    assert skipped == 1


def test_unprefixed_parent_ids_resolve():
    pairs, _ = pair_entries([_post("p1"), _comment("c1", "p1")], set())
    assert len(pairs) == 1


def test_flagged_side_marks_pair():
    pairs, _ = pair_entries([_post("p1"), _comment("c1", "t3_p1")], {"p1"})
    assert pairs[0].post_flagged is True
    assert pairs[0].comment_flagged is False


def test_normalize_relation_closed_set():
    assert normalize_relation("Shared Experience") == ("shared_experience", None)
    assert normalize_relation("not related.") == ("not_related", None)
    assert normalize_relation("EMPATHY") == ("empathy", None)
    assert normalize_relation("solidarity") == ("other", "solidarity")


def test_classify_flagged_pair_without_backend():
    session = ScriptedSession({})
    pair = Pair(post=_post("p1"), comment=_comment("c1", "t3_p1"),
                post_flagged=True, comment_flagged=False)
    record = classify_relation(pair, session)
    assert record.relation == "unprocessed_safety"
    assert session.calls == []


def test_classify_normalizes_label():
    session = ScriptedSession({"relation": ["RELATION: shared experience"]})
    pair = Pair(post=_post("p1"), comment=_comment("c1", "t3_p1"),
                post_flagged=False, comment_flagged=False)
    record = classify_relation(pair, session)
    assert record.relation == "shared_experience"
    assert record.detail is None


def test_classify_unknown_label_preserved():
    session = ScriptedSession({"relation": ["RELATION: solidarity"]})
    pair = Pair(post=_post("p1"), comment=_comment("c1", "t3_p1"),
                post_flagged=False, comment_flagged=False)
    record = classify_relation(pair, session)
    assert record.relation == "other"
    assert record.detail == "solidarity"


class _FailingSession:
    def ask(self, *args, **kwargs):
        raise BackendExhaustedError("down")

    ask_parsed = ScriptedSession.ask_parsed


def test_classify_backend_failure_degrades():
    pair = Pair(post=_post("p1"), comment=_comment("c1", "t3_p1"),
                post_flagged=False, comment_flagged=False)
    record = classify_relation(pair, _FailingSession())
    assert record.relation == "other"
    assert record.detail == "backend_error"
