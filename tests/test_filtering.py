from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from conftest import ScriptedSession
from mindpipe.errors import BackendExhaustedError, ResponseFormatError
from mindpipe.filtering import (
    BACKEND_TRIGGER,
    REMOVED_DELETED,
    REMOVED_EMPTY,
    REMOVED_MARKER,
    CleanEntry,
    clean_entry,
    clean_string,
    _parse_yes_no,
    is_relevant,
    lexicon_match,
    load_lexicon,
    safety_screen,
)
from mindpipe.ingestion import RawEntry
from mindpipe.llm.session import LlmSession


def _entry(body: str, entry_id="e1", author="alice") -> RawEntry:
    return RawEntry(
        id=entry_id, author=author, kind="post", created_utc=100, subreddit="s", body=body
    )


def test_clean_fixed_point():
    clean = clean_entry(_entry("hello world"))
    assert clean.clean_text == "hello world"
    assert clean.removed is None


def test_removal_markers():
    assert clean_entry(_entry("[deleted]")).removed == REMOVED_DELETED
    assert clean_entry(_entry("  [Removed] ")).removed == REMOVED_MARKER
    assert clean_entry(_entry("[deleted]")).clean_text == ""


def test_clean_golden_html_url_punctuation():
    clean = clean_entry(_entry("<b>I feel</b> low!!! see https://x.y/z"))
    assert clean.clean_text == "I feel low! see"


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
    assert clean.removed == REMOVED_EMPTY
    assert clean.clean_text == ""


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


def _clean(text, entry_id="e1") -> CleanEntry:
    return clean_entry(_entry(text, entry_id=entry_id))


def test_is_relevant_yes_no():
    session = ScriptedSession({"relevance": ["Yes."]})
    assert is_relevant(_clean("i feel anxious"), session) is True
    session = ScriptedSession({"relevance": ["no"]})
    assert is_relevant(_clean("selling a bike"), session) is False


def test_is_relevant_reasks_once_then_unknown():
    session = ScriptedSession({"relevance": ["maybe", "cannot say"]})
    assert is_relevant(_clean("odd text"), session) is None
    assert [call[2] for call in session.calls] == [False, True]


def test_is_relevant_reask_recovers():
    session = ScriptedSession({"relevance": ["hmm", "yes"]})
    assert is_relevant(_clean("odd text"), session) is True


def test_is_relevant_rejects_removed_entries():
    session = ScriptedSession({"relevance": ["yes"]})
    with pytest.raises(ValueError):
        is_relevant(clean_entry(_entry("[deleted]")), session)


class _FailingSession:
    def ask(self, *args, **kwargs):
        raise BackendExhaustedError("gave up")

    ask_parsed = LlmSession.ask_parsed


def test_is_relevant_backend_failure_is_unknown():
    assert is_relevant(_clean("i feel anxious"), _FailingSession()) is None


def test_unusable_verdict_error_does_not_quote_the_response():
    assert _parse_yes_no("Yes.") is True
    assert _parse_yes_no(" no, not really") is False
    with pytest.raises(ResponseFormatError) as err:
        _parse_yes_no("perhaps; i feel low")
    assert "perhaps" not in str(err.value) and "low" not in str(err.value)


def test_safety_screen_lexicon_short_circuits_backend():
    session = ScriptedSession({"safety": ["no"]})
    flag = safety_screen(_clean("thinking about self-harm"), session, ["self-harm"])
    assert flag.flagged is True
    assert flag.trigger == "self-harm"
    assert session.calls == []


def test_safety_screen_backend_verdict():
    session = ScriptedSession({"safety": ["yes"]})
    flag = safety_screen(_clean("nothing matters anymore"), session, ["self-harm"])
    assert flag.flagged is True
    assert flag.trigger == BACKEND_TRIGGER


def test_safety_screen_negative():
    session = ScriptedSession({"safety": ["no"]})
    flag = safety_screen(_clean("plain text"), session, ["self-harm"])
    assert flag.flagged is False
    assert flag.trigger is None


def test_safety_screen_backend_failure_falls_back_to_lexicon():
    flag = safety_screen(_clean("plain text"), _FailingSession(), ["self-harm"])
    assert flag.flagged is False
