"""Per-entry feature extraction: severity, causes, tone, disorders, and temporal annotation.

Backend responses use a labeled-sections plain-text grammar: one
``HEADER: value`` line per feature, list values separated by ``;``.
Safety-flagged entries never reach the backend from here; they are
assigned the quarantine severity band with empty feature lists.
"""

from __future__ import annotations

import re

from .errors import ResponseFormatError

SEVERITY_MILD = "mild"
SEVERITY_MODERATE = "moderate"
SEVERITY_SEVERE = "severe"
SEVERITY_EXTREME = "extreme_uncategorized"

BACKEND_SEVERITIES = (SEVERITY_MILD, SEVERITY_MODERATE, SEVERITY_SEVERE)

NO_TIMELINE = None  # sentinel: the timeline of an entry without an in-text temporal reference

_EMPTY_LIST_WORDS = frozenset({"none", "n/a", "na", "-"})


def _split_list(value: str) -> list[str]:
    """Split a ';'-separated list; trims, drops blanks, dedupes keeping order."""
    items: list[str] = []
    seen: set[str] = set()
    for raw in value.split(";"):
        item = raw.strip()
        if not item or item.lower() in _EMPTY_LIST_WORDS:
            continue
        key = item.lower()
        if key in seen:
            continue
        seen.add(key)
        items.append(item)
    return items


def parse_labeled_sections(text: str, headers: tuple[str, ...]) -> dict[str, str]:
    """Extract 'HEADER: value' lines; every header must appear exactly once."""
    values: dict[str, str] = {}
    patterns = {h: re.compile(rf"^\s*{re.escape(h)}\s*:\s*(.*)$", re.IGNORECASE) for h in headers}
    for line in text.splitlines():
        for header, pattern in patterns.items():
            match = pattern.match(line)
            if match:
                if header in values:
                    raise ResponseFormatError(f"duplicate section: {header}")
                values[header] = match.group(1).strip()
                break
    missing = [h for h in headers if h not in values]
    if missing:
        raise ResponseFormatError(f"missing section(s): {', '.join(missing)}")
    return values


def normalize_severity(value: str) -> str:
    """Map a backend severity word onto the three assignable bands."""
    token = value.strip().strip(".").lower()
    if token in BACKEND_SEVERITIES:
        return token
    raise ResponseFormatError(f"unrecognized severity: {value!r}")


def parse_feature_response(text: str) -> dict:
    """The four features of an entry, keyed as in its ``features.jsonl`` row."""
    sections = parse_labeled_sections(text, ("SEVERITY", "CAUSES", "TONE", "DISORDERS"))
    return {
        "severity": normalize_severity(sections["SEVERITY"]),
        "causes": _split_list(sections["CAUSES"]),
        "tone": _split_list(sections["TONE"]),
        "disorders": _split_list(sections["DISORDERS"]),
    }


def parse_timeline_response(text: str) -> str | None:
    sections = parse_labeled_sections(text, ("TIMELINE",))
    value = sections["TIMELINE"]
    if not value:
        raise ResponseFormatError("empty TIMELINE value")
    if value.strip().lower() == "no timeline":
        return NO_TIMELINE
    return value


def extract_non_temporal(
    clean: dict, flagged: bool, session
) -> tuple[dict | None, str | None]:
    """Extract the four non-temporal features for one relevant, cleaned entry
    (``filtering.clean_entry``'s keys).

    Returns (features, None) on success or (None, failure detail) when the
    backend failed or the response stayed unparseable after one re-ask.
    Flagged entries are quarantined without any backend call.
    """
    if flagged:
        return {"severity": SEVERITY_EXTREME, "causes": [], "tone": [], "disorders": []}, None
    tags = {"author": clean["entry"]["author"], "entry_id": clean["entry"]["id"]}
    return session.ask_parsed(
        "extract_features", {"text": clean["clean_text"]}, parse_feature_response, tags=tags
    )


def extract_temporal(clean: dict, session) -> tuple[str | None, bool]:
    """Extract the in-text temporal reference of one cleaned entry.

    Returns (timeline, degraded) where degraded marks a backend failure
    or unparseable response that fell back to the no-timeline sentinel.
    """
    tags = {"author": clean["entry"]["author"], "entry_id": clean["entry"]["id"]}
    timeline, failure = session.ask_parsed(
        "extract_temporal", {"text": clean["clean_text"]}, parse_timeline_response, tags=tags
    )
    return timeline, failure is not None
