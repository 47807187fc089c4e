"""Clean entry text, apply the relevance classifier, and quarantine safety-critical content.

Cleaning is a fixed, deterministic rule order; relevance and safety
verdicts go through the completion backend. Safety screening is
lexicon-first so the quarantine holds even fully offline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .errors import ResponseFormatError
from .ingestion import RawEntry

REMOVED_DELETED = "deleted"
REMOVED_MARKER = "removed_marker"
REMOVED_EMPTY = "empty_after_clean"

BACKEND_TRIGGER = "backend"

_HTML_TAG_RE = re.compile(r"<[^>]+>")
_MD_IMAGE_RE = re.compile(r"!\[[^\]]*\]\([^)]*\)")
_MD_LINK_RE = re.compile(r"\[([^\]]*)\]\([^)]*\)")
_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_CONTROL_RE = re.compile(r"[\x00-\x1f\x7f-\x9f]")
_PUNCT_RUN_RE = re.compile(r"([.!?])\1+")
_WS_RE = re.compile(r"\s+")


def clean_string(text: str) -> str:
    """Apply the cleaning rules to raw text; idempotent at the text level.

    Order: HTML tag strip, markdown image drop, markdown link text
    retention, bare URL strip, control-character strip, punctuation-run
    collapse, whitespace collapse, trim.
    """
    text = _HTML_TAG_RE.sub(" ", text)
    text = _MD_IMAGE_RE.sub(" ", text)
    text = _MD_LINK_RE.sub(r"\1", text)
    text = _URL_RE.sub(" ", text)
    text = _CONTROL_RE.sub(" ", text)
    text = _PUNCT_RUN_RE.sub(r"\1", text)
    text = _WS_RE.sub(" ", text)
    return text.strip()


@dataclass
class CleanEntry:
    """A raw entry plus its cleaned text, or a removal reason."""

    entry: RawEntry
    clean_text: str
    removed: str | None = None


@dataclass
class SafetyFlag:
    entry_id: str
    flagged: bool
    trigger: str | None = None


def clean_entry(entry: RawEntry) -> CleanEntry:
    """Clean one entry; marker-only and empty-after-clean bodies are removed."""
    stripped = entry.body.strip().lower()
    if stripped == "[deleted]":
        return CleanEntry(entry=entry, clean_text="", removed=REMOVED_DELETED)
    if stripped == "[removed]":
        return CleanEntry(entry=entry, clean_text="", removed=REMOVED_MARKER)
    cleaned = clean_string(entry.body)
    if not cleaned:
        return CleanEntry(entry=entry, clean_text="", removed=REMOVED_EMPTY)
    return CleanEntry(entry=entry, clean_text=cleaned)


def load_lexicon(path: str | Path) -> list[str]:
    """Read the safety lexicon: one term per line, '#' starts a comment."""
    terms: list[str] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        term = line.split("#", 1)[0].strip().lower()
        if term:
            terms.append(term)
    return terms


def lexicon_match(text: str, terms: list[str]) -> str | None:
    """First lexicon term present in text (word-bounded, case-insensitive).

    Terms are lowercase (``load_lexicon``), so a term that is not a substring
    of the lowered text cannot match and skips the regex search.
    """
    lowered = text.lower()
    for term in terms:
        if term in lowered and re.search(rf"(?<!\w){re.escape(term)}(?!\w)", lowered):
            return term
    return None


def _parse_yes_no(response: str) -> bool:
    """A yes/no answer: its first token, trimmed of punctuation, case-insensitive."""
    tokens = response.strip().lower().split()
    token = tokens[0].strip(".,!:;\"'") if tokens else ""
    if token not in ("yes", "no"):
        raise ResponseFormatError("expected a yes or no answer")
    return token == "yes"


def is_relevant(clean: CleanEntry, session) -> bool | None:
    """Binary mental-health relevance; None when the verdict is unusable.

    The caller must not pass removed entries.
    """
    if clean.removed is not None:
        raise ValueError("is_relevant called on a removed entry")
    tags = {"stage": "filter", "author": clean.entry.author, "entry_id": clean.entry.id}
    verdict, _failure = session.ask_parsed(
        "relevance", {"text": clean.clean_text}, _parse_yes_no, tags=tags
    )
    return verdict


def safety_screen(clean: CleanEntry, session, terms: list[str]) -> SafetyFlag:
    """Lexicon-first safety screen with backend confirmation on lexicon miss.

    Backend failures fall back to the lexicon-only verdict.
    """
    if clean.removed is not None:
        raise ValueError("safety_screen called on a removed entry")
    term = lexicon_match(clean.clean_text, terms)
    if term is not None:
        return SafetyFlag(entry_id=clean.entry.id, flagged=True, trigger=term)
    tags = {"stage": "filter", "author": clean.entry.author, "entry_id": clean.entry.id}
    verdict, _failure = session.ask_parsed(
        "safety", {"text": clean.clean_text}, _parse_yes_no, tags=tags
    )
    if verdict:
        return SafetyFlag(entry_id=clean.entry.id, flagged=True, trigger=BACKEND_TRIGGER)
    return SafetyFlag(entry_id=clean.entry.id, flagged=False)
