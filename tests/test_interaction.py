from __future__ import annotations

from conftest import ScriptedSession
from mindpipe.config import load_config
from mindpipe.errors import BackendExhaustedError
from mindpipe.interaction import (
    Pair,
    classify_relation,
    normalize_relation,
    pair_entries,
)
from mindpipe.stages import stage_interact


def _row(entry_id, author, kind, created_utc, parent_id, text, disposition):
    """A filtered row's entry, clean text, removal reason and disposition."""
    entry = {
        "id": entry_id, "author": author, "kind": kind,
        "created_utc": created_utc, "parent_id": parent_id,
    }
    return {"entry": entry, "clean_text": text, "removed": None, "disposition": disposition}


def _post(entry_id, author="poster", text="post text", disposition="retained"):
    return _row(entry_id, author, "post", 100, None, text, disposition)


def _comment(entry_id, parent, author="replier", text="reply text", disposition="retained"):
    return _row(entry_id, author, "comment", 200, parent, text, disposition)


def test_pairing_direct_parent():
    pairs, skipped = pair_entries([_post("p1"), _comment("c1", "t3_p1")])
    assert skipped == 0
    assert len(pairs) == 1
    assert pairs[0].post["entry"]["id"] == "p1"
    assert pairs[0].comment["entry"]["id"] == "c1"


def test_missing_parent_skipped():
    pairs, skipped = pair_entries([_comment("c1", "t3_absent")])
    assert pairs == [] and skipped == 1


def test_comment_parent_not_paired():
    retained = [_post("p1"), _comment("c1", "t3_p1"), _comment("c2", "t1_c1")]
    pairs, skipped = pair_entries(retained)
    assert len(pairs) == 1
    assert skipped == 1


def test_fixture_counts_three_posts_five_comments_four_resolvable():
    retained = [
        _post("p1"), _post("p2"), _post("p3"),
        _comment("c1", "t3_p1"), _comment("c2", "t3_p1"),
        _comment("c3", "t3_p2"), _comment("c4", "t3_p3"),
        _comment("c5", "t3_gone"),
    ]
    pairs, skipped = pair_entries(retained)
    assert len(pairs) == 4
    assert skipped == 1


def test_unprefixed_parent_ids_resolve():
    pairs, _ = pair_entries([_post("p1"), _comment("c1", "p1")])
    assert len(pairs) == 1


def test_flagged_side_marks_pair():
    for post, comment in (("flagged", "retained"), ("retained", "flagged")):
        retained = [_post("p1", disposition=post), _comment("c1", "t3_p1", disposition=comment)]
        session = ScriptedSession({})
        files, _ = stage_interact({"filtered.jsonl": retained}, load_config(), session, {})
        assert [row["relation"] for row in files["relations.jsonl"]] == ["unprocessed_safety"]
        assert session.calls == []


def test_normalize_relation_closed_set():
    assert normalize_relation("Shared Experience") == ("shared_experience", None)
    assert normalize_relation("not related.") == ("not_related", None)
    assert normalize_relation("EMPATHY") == ("empathy", None)
    assert normalize_relation("solidarity") == ("other", "solidarity")


def test_classify_flagged_pair_without_backend():
    for post, comment in (("flagged", "retained"), ("retained", "flagged")):
        session = ScriptedSession({})
        pair = Pair(
            post=_post("p1", disposition=post),
            comment=_comment("c1", "t3_p1", disposition=comment),
        )
        record = classify_relation(pair, session)
        assert record["relation"] == "unprocessed_safety"
        assert session.calls == []


def test_classify_normalizes_label():
    session = ScriptedSession({"relation": ["RELATION: shared experience"]})
    pair = Pair(post=_post("p1"), comment=_comment("c1", "t3_p1"))
    record = classify_relation(pair, session)
    assert record["relation"] == "shared_experience"
    assert record["detail"] is None


def test_classify_unknown_label_preserved():
    session = ScriptedSession({"relation": ["RELATION: solidarity"]})
    pair = Pair(post=_post("p1"), comment=_comment("c1", "t3_p1"))
    record = classify_relation(pair, session)
    assert record["relation"] == "other"
    assert record["detail"] == "solidarity"


class _FailingSession(ScriptedSession):
    def __init__(self):
        super().__init__({})

    def ask(self, *args, **kwargs):
        raise BackendExhaustedError("down")


def test_classify_backend_failure_degrades():
    pair = Pair(post=_post("p1"), comment=_comment("c1", "t3_p1"))
    record = classify_relation(pair, _FailingSession())
    assert record["relation"] == "other"
    assert record["detail"] == "backend_error"
