from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from conftest import ScriptedSession
from mindpipe.errors import BackendExhaustedError, ResponseFormatError
from mindpipe.filtering import (
    BACKEND_TRIGGER,
    DISPOSITION_FLAGGED,
    DISPOSITION_IRRELEVANT,
    DISPOSITION_REMOVED,
    DISPOSITION_RETAINED,
    DISPOSITION_UNKNOWN,
    REMOVED_DELETED,
    REMOVED_EMPTY,
    REMOVED_MARKER,
    UNKNOWN_TRIGGER,
    clean_entry,
    clean_string,
    _parse_yes_no,
    filter_entry,
    lexicon_match,
    load_lexicon,
)
from mindpipe.ingestion import RawEntry


def _entry(body: str, entry_id="e1", author="alice") -> dict:
    """The entries row of one post."""
    return vars(RawEntry(
        id=entry_id, author=author, kind="post", created_utc=100, subreddit="s", body=body
    ))


def test_clean_fixed_point():
    clean = clean_entry(_entry("hello world"))
    assert clean["clean_text"] == "hello world"
    assert clean["removed"] is None


def test_removal_markers():
    assert clean_entry(_entry("[deleted]"))["removed"] == REMOVED_DELETED
    assert clean_entry(_entry("  [Removed] "))["removed"] == REMOVED_MARKER
    assert clean_entry(_entry("[deleted]"))["clean_text"] == ""


def test_clean_golden_html_url_punctuation():
    clean = clean_entry(_entry("<b>I feel</b> low!!! see https://x.y/z"))
    assert clean["clean_text"] == "I feel low! see"


def test_markdown_images_dropped_links_keep_text():
    assert clean_string("look ![alt text](http://a.b/c.png) here") == "look here"
    assert clean_string("read [the guide](https://x.y/guide) first") == "read the guide first"
    assert clean_string("visit www.example.com now") == "visit now"


def test_control_characters_stripped():
    assert clean_string("a\x00b\x07c\td") == "a b c d"


def test_punctuation_runs_collapse():
    assert clean_string("what??? no way!!! ok...") == "what? no way! ok."


def test_empty_after_clean():
    clean = clean_entry(_entry("https://only.a.link/here"))
    assert clean["removed"] == REMOVED_EMPTY
    assert clean["clean_text"] == ""


@given(st.text(max_size=300))
def test_clean_is_idempotent(text):
    once = clean_string(text)
    assert clean_string(once) == once


@given(st.text(max_size=300))
def test_clean_output_invariants(text):
    cleaned = clean_string(text)
    assert "  " not in cleaned
    assert cleaned == cleaned.strip()
    assert not any(ord(ch) < 32 or 127 <= ord(ch) < 160 for ch in cleaned)
    assert "http://" not in cleaned.lower()
    assert "https://" not in cleaned.lower()


def test_load_lexicon_skips_comments(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("# comment\nsuicide\n  self-harm  # trailing\n\n", encoding="utf-8")
    assert load_lexicon(path) == ["suicide", "self-harm"]


def test_lexicon_match_word_bounded():
    terms = ["self-harm", "end it all"]
    assert lexicon_match("thinking about Self-Harm today", terms) == "self-harm"
    assert lexicon_match("I want to end it all", terms) == "end it all"
    assert lexicon_match("my self-harmless joke", terms) is None
    assert lexicon_match("nothing here", terms) is None


def test_lexicon_match_golden():
    # the trigger is the first term in lexicon order, not the leftmost match
    assert lexicon_match("I die inside, I want to die", ["want to die", "die"]) == "want to die"
    assert lexicon_match("suicides", ["suicide"]) is None
    # the substring check passes on "suicides"; the bounded occurrence comes later
    assert lexicon_match("suicides, then suicide", ["suicide"]) == "suicide"


@given(
    st.text(alphabet="aB -", max_size=12),
    # lowercase terms, as load_lexicon makes them
    st.lists(st.text(alphabet="ab -", min_size=1, max_size=4), max_size=4),
)
def test_lexicon_match_equals_the_ungated_search(text, terms):
    expected = next(
        (t for t in terms if re.search(rf"(?<!\w){re.escape(t)}(?!\w)", text.lower())), None
    )
    assert lexicon_match(text, terms) == expected


def _filter(text, session, terms=("self-harm",)) -> dict:
    """The filtered row of one post."""
    return filter_entry(_entry(text), session, list(terms))


def _disposition(text, relevance: list[str]) -> str:
    """The disposition of a post the safety screen clears, with scripted relevance answers."""
    return _filter(text, ScriptedSession({"safety": ["no"], "relevance": relevance}))["disposition"]


def test_is_relevant_yes_no():
    assert _disposition("i feel anxious", ["Yes."]) == DISPOSITION_RETAINED
    assert _disposition("selling a bike", ["no"]) == DISPOSITION_IRRELEVANT


def test_is_relevant_reasks_once_then_unknown():
    session = ScriptedSession({"safety": ["no"], "relevance": ["maybe", "cannot say"]})
    assert _filter("odd text", session)["disposition"] == DISPOSITION_UNKNOWN
    assert [(call[0], call[2]) for call in session.calls] == [
        ("safety", False), ("relevance", False), ("relevance", True)
    ]


def test_is_relevant_reask_recovers():
    assert _disposition("odd text", ["hmm", "yes"]) == DISPOSITION_RETAINED


def test_is_relevant_rejects_removed_entries():
    session = ScriptedSession({})  # any ask would raise KeyError
    row = _filter("[deleted]", session)
    assert row["disposition"] == DISPOSITION_REMOVED
    assert row["safety"] is None
    assert session.calls == []


class _FailingSession(ScriptedSession):
    """Answers the scripted templates; an ask of any other one fails."""

    def ask(self, template_name, *args, **kwargs):
        if template_name in self.responses:
            return super().ask(template_name, *args, **kwargs)
        raise BackendExhaustedError("gave up")


def test_is_relevant_backend_failure_is_unknown():
    row = _filter("i feel anxious", _FailingSession({"safety": ["no"]}))
    assert row["disposition"] == DISPOSITION_UNKNOWN


def test_unusable_verdict_error_does_not_quote_the_response():
    assert _parse_yes_no("Yes.") is True
    assert _parse_yes_no(" no, not really") is False
    with pytest.raises(ResponseFormatError) as err:
        _parse_yes_no("perhaps; i feel low")
    assert "perhaps" not in str(err.value) and "low" not in str(err.value)


def test_safety_screen_lexicon_short_circuits_backend():
    session = ScriptedSession({"safety": ["no"]})
    row = _filter("thinking about self-harm", session)
    assert row["safety"] == "self-harm"
    assert row["disposition"] == DISPOSITION_FLAGGED
    assert session.calls == []


def test_safety_screen_backend_verdict():
    session = ScriptedSession({"safety": ["yes"]})
    row = _filter("nothing matters anymore", session)
    assert row["safety"] == BACKEND_TRIGGER
    # a flagged entry is retained without a relevance verdict
    assert row["disposition"] == DISPOSITION_FLAGGED
    assert [call[0] for call in session.calls] == ["safety"]


def test_safety_screen_negative():
    session = ScriptedSession({"safety": ["no"], "relevance": ["yes"]})
    assert _filter("plain text", session)["safety"] is None


def test_safety_screen_fails_closed_without_a_verdict():
    # D7: a failed call, or an answer still unusable after the re-ask, flags the entry
    row = _filter("plain text", _FailingSession({}))
    assert row["safety"] == UNKNOWN_TRIGGER
    assert row["disposition"] == DISPOSITION_FLAGGED
    session = ScriptedSession({"safety": ["perhaps", "perhaps"]})
    assert _filter("plain text", session)["safety"] == UNKNOWN_TRIGGER
