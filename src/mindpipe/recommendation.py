"""Bounded therapy and behavior-change recommendations, plus the safety escalation path.

The backend answer is parsed as two lists (therapies first, then behavior
changes) found by section headers or by a numbering restart. Cardinality
is enforced by truncation with a warning; medication-class items are
stripped outright. Safety-excluded users get a fixed, non-generative
escalation record instead.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .errors import ResponseFormatError

MAX_THERAPIES = 3
MAX_BEHAVIOR_CHANGES = 5

ESCALATION_NOTICE = "content withheld; route to qualified practitioner"

_BULLET_RE = re.compile(r"^\s*(?:\d+\s*[.)]|[-•*])\s+(.*)$")
_INLINE_SPLIT_RE = re.compile(r"(?<=\s)\d+\s*[.)]\s+")
_THERAPY_HEADER_RE = re.compile(r"therap", re.IGNORECASE)
_BEHAVIOR_HEADER_RE = re.compile(r"behaviou?r", re.IGNORECASE)
_ACRONYM_RE = re.compile(r"\s*\([^)]*\)")


def load_aliases(path: str | Path) -> dict[str, str]:
    """Therapy alias table: casefolded alias -> canonical display name."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    return {key.casefold(): value for key, value in raw.items()}


def canonical_therapy(name: str, aliases: dict[str, str]) -> str:
    """Case-fold, strip parenthesized acronyms, then map through the alias table."""
    stripped = _ACRONYM_RE.sub("", name).strip().rstrip(".")
    collapsed = re.sub(r"\s+", " ", stripped)
    return aliases.get(collapsed.casefold(), collapsed)


def _line_parts(line: str) -> tuple[str, list[str]]:
    """Split one line into (leading non-item text, list items).

    Handles leading markers ('1. x', '- x') and inline runs
    ('Therapies: 1. A 2. B'), where the text before the first marker is
    returned separately so headers never leak into items.
    """
    lead = _BULLET_RE.match(line)
    if lead:
        parts = [p.strip() for p in _INLINE_SPLIT_RE.split(" " + lead.group(1))]
        return "", [p for p in parts if p]
    padded = " " + line
    first = _INLINE_SPLIT_RE.search(padded)
    if first is None:
        return line, []
    prefix = padded[: first.start()].strip()
    parts = [p.strip() for p in _INLINE_SPLIT_RE.split(" " + padded[first.start() :])]
    return prefix, [p for p in parts if p]


def _is_numbered_one(line: str) -> bool:
    return bool(re.match(r"^\s*1\s*[.)]\s+", line))


def parse_recommendations(text: str) -> dict:
    """Split the response into therapy and behavior-change items.

    Section boundaries come from headers mentioning therapy/behavior; when
    headers are missing, a restart of the numbering at 1 begins the
    behavior list. Accepted item markers: '1.', '1)', '-', '•', '*'.
    Raises when either list comes back empty.
    """
    therapies: list[str] = []
    behaviors: list[str] = []
    section: str | None = None
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        prefix, items = _line_parts(stripped)
        if prefix:
            if _BEHAVIOR_HEADER_RE.search(prefix):
                section = "behavior"
            elif _THERAPY_HEADER_RE.search(prefix):
                section = "therapy"
        if not items:
            continue
        if section is None:
            section = "therapy"
        elif section == "therapy" and therapies and not prefix and _is_numbered_one(stripped):
            # numbering restarted without a header: behavior list begins
            section = "behavior"
        bucket = therapies if section == "therapy" else behaviors
        bucket.extend(items)
    if not therapies:
        raise ResponseFormatError("no therapy items found")
    if not behaviors:
        raise ResponseFormatError("no behavior change items found")
    return {"therapies": therapies, "behaviors": behaviors}


def _strip_blocked(
    items: list[str], blocklist: list[str], warnings: list[str], label: str
) -> list[str]:
    kept = []
    for item in items:
        lowered = item.lower()
        hit = next((term for term in blocklist if term in lowered), None)
        if hit is None:
            kept.append(item)
        else:
            warnings.append(f"{label} item dropped by medication blocklist ({hit})")
    return kept


def recommend(row: dict, session, blocklist: list[str] | None = None) -> dict:
    """The ``recommendations.jsonl`` row of one user.

    ``row`` is the user's ``diagnosis.jsonl`` row (status ``ok``), or, for a
    safety-excluded user, their ``summaries.jsonl`` row, which gets the
    fixed escalation record with no backend call. A generated set holds ``author``,
    status ``ok``, ``therapies``, ``behavior_changes`` and ``warnings``; a set
    that failed is status ``recommendation_failure`` with ``failure``.
    """
    author = row["author"]
    if row["status"] == "safety_excluded":
        return {"author": author, "status": "escalation", "notice": ESCALATION_NOTICE}
    parsed, failure = session.ask_parsed(
        "recommendation", {"Dataframe": row["text"]}, parse_recommendations,
        tags={"author": author},
    )
    warnings: list[str] = []
    if failure is None:
        therapies = parsed["therapies"]
        behaviors = parsed["behaviors"]
        if blocklist:
            therapies = _strip_blocked(therapies, blocklist, warnings, "therapy")
            behaviors = _strip_blocked(behaviors, blocklist, warnings, "behavior")
        if not therapies:
            failure = "no therapy items left after blocklist"
        elif not behaviors:
            failure = "no behavior change items left after blocklist"
    if failure is not None:
        return {"author": author, "status": "recommendation_failure", "failure": failure}
    if len(therapies) > MAX_THERAPIES:
        warnings.append(f"therapy list truncated from {len(therapies)} to {MAX_THERAPIES}")
        therapies = therapies[:MAX_THERAPIES]
    if len(behaviors) > MAX_BEHAVIOR_CHANGES:
        warnings.append(
            f"behavior list truncated from {len(behaviors)} to {MAX_BEHAVIOR_CHANGES}"
        )
        behaviors = behaviors[:MAX_BEHAVIOR_CHANGES]
    return {
        "author": author,
        "status": "ok",
        "therapies": therapies,
        "behavior_changes": behaviors,
        "warnings": warnings,
    }
