"""Per-entry feature extraction: severity, causes, tone, disorders, and temporal annotation.

Backend responses use a labeled-sections plain-text grammar: one
``HEADER: value`` line per feature, list values separated by ``;``.
Safety-flagged entries never reach the backend from here; they are
assigned the quarantine severity band with empty feature lists.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ResponseFormatError
from .filtering import CleanEntry, SafetyFlag

SEVERITY_MILD = "mild"
SEVERITY_MODERATE = "moderate"
SEVERITY_SEVERE = "severe"
SEVERITY_EXTREME = "extreme_uncategorized"

BACKEND_SEVERITIES = (SEVERITY_MILD, SEVERITY_MODERATE, SEVERITY_SEVERE)

NO_TIMELINE = None  # sentinel: TemporalAnnotation.timeline is None

_EMPTY_LIST_WORDS = frozenset({"none", "n/a", "na", "-"})


@dataclass
class NonTemporalFeatures:
    severity: str
    causes: list[str] = field(default_factory=list)
    tone: list[str] = field(default_factory=list)
    disorders: list[str] = field(default_factory=list)


@dataclass
class TemporalAnnotation:
    creation_time: int
    timeline: str | None = NO_TIMELINE


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


def parse_feature_response(text: str) -> NonTemporalFeatures:
    sections = parse_labeled_sections(text, ("SEVERITY", "CAUSES", "TONE", "DISORDERS"))
    return NonTemporalFeatures(
        severity=normalize_severity(sections["SEVERITY"]),
        causes=_split_list(sections["CAUSES"]),
        tone=_split_list(sections["TONE"]),
        disorders=_split_list(sections["DISORDERS"]),
    )


def parse_timeline_response(text: str) -> str | None:
    sections = parse_labeled_sections(text, ("TIMELINE",))
    value = sections["TIMELINE"]
    if not value:
        raise ResponseFormatError("empty TIMELINE value")
    if value.strip().lower() == "no timeline":
        return NO_TIMELINE
    return value


def extract_non_temporal(
    clean: CleanEntry, flag: SafetyFlag, session
) -> tuple[NonTemporalFeatures | None, str | None]:
    """Extract the four non-temporal features for one relevant, cleaned entry.

    Returns (features, None) on success or (None, failure detail) when the
    backend failed or the response stayed unparseable after one re-ask.
    Flagged entries are quarantined without any backend call.
    """
    if flag.flagged:
        return NonTemporalFeatures(severity=SEVERITY_EXTREME), None
    tags = {"stage": "extract", "author": clean.entry.author, "entry_id": clean.entry.id}
    return session.ask_parsed(
        "extract_features", {"text": clean.clean_text}, parse_feature_response, tags=tags
    )


def extract_temporal(clean: CleanEntry, session) -> tuple[TemporalAnnotation, bool]:
    """Extract the in-text temporal reference; creation time always carries over.

    Returns (annotation, degraded) where degraded marks a backend failure
    or unparseable response that fell back to the no-timeline sentinel.
    """
    tags = {"stage": "extract", "author": clean.entry.author, "entry_id": clean.entry.id}
    timeline, failure = session.ask_parsed(
        "extract_temporal", {"text": clean.clean_text}, parse_timeline_response, tags=tags
    )
    if failure is not None:
        return TemporalAnnotation(creation_time=clean.entry.created_utc), True
    return TemporalAnnotation(creation_time=clean.entry.created_utc, timeline=timeline), False
