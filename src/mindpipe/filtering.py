"""Clean entry text, apply the relevance classifier, and quarantine safety-critical content.

Cleaning is a fixed, deterministic rule order; relevance and safety
verdicts go through the completion backend. Safety screening is
lexicon-first so the quarantine holds even fully offline.
"""

from __future__ import annotations

import re
from pathlib import Path

from .errors import ResponseFormatError

REMOVED_DELETED = "deleted"
REMOVED_MARKER = "removed_marker"
REMOVED_EMPTY = "empty_after_clean"

BACKEND_TRIGGER = "backend"
UNKNOWN_TRIGGER = "verdict_unknown"

DISPOSITION_REMOVED = "removed"
DISPOSITION_FLAGGED = "flagged"
DISPOSITION_RETAINED = "retained"
DISPOSITION_IRRELEVANT = "irrelevant"
DISPOSITION_UNKNOWN = "relevance_unknown"

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


# the fields of an entry that the stages after ``filter`` read, in row order
_ENTRY_KEYS = ("id", "author", "kind", "created_utc", "parent_id")


def clean_entry(entry: dict) -> dict:
    """Clean one ``entries.jsonl`` row into the ``entry``, ``clean_text`` and
    ``removed`` keys of its filtered row; ``entry`` keeps the entry's fields
    without its raw text. Marker-only and empty-after-clean bodies are removed."""
    marker = entry["body"].strip().lower()
    if marker == "[deleted]":
        clean_text, removed = "", REMOVED_DELETED
    elif marker == "[removed]":
        clean_text, removed = "", REMOVED_MARKER
    else:
        clean_text = clean_string(entry["body"])
        removed = None if clean_text else REMOVED_EMPTY
    ref = {key: entry[key] for key in _ENTRY_KEYS}
    return {"entry": ref, "clean_text": clean_text, "removed": removed}


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


def filter_entry(entry: dict, session, terms: list[str]) -> dict:
    """The ``filtered.jsonl`` row of one ``entries.jsonl`` row: ``clean_entry``'s
    keys, then ``safety`` and ``disposition``.

    A removed entry gets no backend call. The safety screen is lexicon-first,
    with a backend verdict on a lexicon miss; ``safety`` is what flagged the
    entry (its first lexicon term, ``BACKEND_TRIGGER``, or ``UNKNOWN_TRIGGER``
    if no usable verdict came back), or None when it is clear. A flagged entry
    is retained without a relevance verdict; a clear one is retained,
    irrelevant, or of unknown relevance when the verdict is unusable.
    """
    row = clean_entry(entry)
    if row["removed"] is not None:
        row.update(safety=None, disposition=DISPOSITION_REMOVED)
        return row
    tags = {"author": row["entry"]["author"], "entry_id": row["entry"]["id"]}
    bindings = {"text": row["clean_text"]}
    trigger = lexicon_match(row["clean_text"], terms)
    if trigger is None:
        unsafe, _failure = session.ask_parsed("safety", bindings, _parse_yes_no, tags=tags)
        if unsafe is None:
            trigger = UNKNOWN_TRIGGER
        elif unsafe:
            trigger = BACKEND_TRIGGER
    row["safety"] = trigger
    if trigger is not None:
        row["disposition"] = DISPOSITION_FLAGGED
        return row
    relevant, _failure = session.ask_parsed("relevance", bindings, _parse_yes_no, tags=tags)
    if relevant is None:
        row["disposition"] = DISPOSITION_UNKNOWN
    else:
        row["disposition"] = DISPOSITION_RETAINED if relevant else DISPOSITION_IRRELEVANT
    return row
