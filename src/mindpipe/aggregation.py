"""Per-user aggregation: chronology building and the two user-level summaries.

Summary prompts are built from per-entry extracted features, never from
raw text; raw text appears only as chronology event content, truncated to
``EVENT_CONTENT_BUDGET`` characters per event. Entries whose timeline is the
no-timeline sentinel still contribute creation dates to the deterministic
monthly posting counts appended to the temporal prompt.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

from .errors import ResponseFormatError
from .extraction import NO_TIMELINE, parse_labeled_sections, _split_list

EVENT_CONTENT_BUDGET = 500  # characters of entry text per chronology event


@dataclass
class UserRecord:
    """One author's surviving unflagged entries. An entry is its
    ``features.jsonl`` row (status ``ok``) plus the entry's ``clean_text``."""

    author: str
    entries: list[dict]


# Each summary's sections in answer order: (prompt header, summary key, is a
# ';'-separated list). A summary is the dict of these keys' values, in this
# order. The parser, the diagnosis Dataframe and the user report all read
# these; the report label is the header, capitalized.
NON_TEMPORAL_SECTIONS = (
    ("OVERALL SEVERITY", "overall_severity", False),
    ("TRIGGERS", "triggers", True),
    ("DISORDERS", "disorders", True),
    ("LANGUAGE AND TONE", "language_tone", False),
    ("RECURRING THEMES", "recurring_themes", False),
    ("OVERALL STATUS", "overall_status", False),
)
TEMPORAL_SECTIONS = (
    ("CHRONOLOGICAL EVENTS", "chronological_events", False),
    ("DURATION", "duration", False),
    ("FREQUENCY", "frequency", False),
    ("RECURRENCE", "recurrence", False),
    ("EXPLICIT TIMES", "explicit_times", False),
)


def utc_date(epoch: int) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).date().isoformat()


def build_user_records(
    cohort_authors: list[str], entries: list[dict], escalated: set[str]
) -> list[UserRecord]:
    """Group surviving unflagged entries per cohort author, sorted by (time, entry id).

    Record order follows cohort order. An escalated author keeps a record,
    which has no entries; any other author with zero surviving unflagged
    entries is omitted.
    """
    by_author: dict[str, list[dict]] = {author: [] for author in cohort_authors}
    for entry in entries:
        if entry["author"] in by_author and not entry["flagged"]:
            by_author[entry["author"]].append(entry)
    records: list[UserRecord] = []
    for author in cohort_authors:
        bucket = by_author[author]
        if bucket or author in escalated:
            bucket.sort(key=lambda e: (e["created_utc"], e["entry_id"]))
            records.append(UserRecord(author=author, entries=bucket))
    return records


def build_chronology(record: UserRecord) -> list[dict]:
    """Events (``date``, ``timeline``, ``content``) are exactly the entries
    carrying a timeline, in record order."""
    return [
        {
            "date": utc_date(entry["created_utc"]),
            "timeline": entry["timeline"],
            "content": entry["clean_text"][:EVENT_CONTENT_BUDGET],
        }
        for entry in record.entries
        if entry["timeline"] is not NO_TIMELINE
    ]


def monthly_counts(record: UserRecord) -> dict[str, int]:
    """Posts per calendar month over the user's entries."""
    counts: dict[str, int] = {}
    for entry in record.entries:
        month = utc_date(entry["created_utc"])[:7]
        counts[month] = counts.get(month, 0) + 1
    return dict(sorted(counts.items()))


def serialize_features_block(record: UserRecord) -> str:
    """Canonical per-entry feature lines for the non-temporal summary prompt."""
    return "\n".join(
        "- severity={severity} | causes={causes} | tone={tone} | disorders={disorders}".format(
            severity=entry["severity"],
            causes=", ".join(entry["causes"]) or "none",
            tone=", ".join(entry["tone"]) or "none",
            disorders=", ".join(entry["disorders"]) or "none",
        )
        for entry in record.entries
    )


def serialize_chronology_block(chronology: list[dict], months: dict[str, int]) -> str:
    """Canonical chronology plus monthly counts for the temporal summary prompt."""
    lines = [
        f"- {event['date']} | timeline: {event['timeline']} | content: {event['content']}"
        for event in chronology
    ]
    lines.append("Monthly posting counts:")
    lines.extend(f"- {month}: {count}" for month, count in months.items())
    return "\n".join(lines)


def _summary_parser(sections: tuple[tuple[str, str, bool], ...]):
    """A parser of one summary answer into its values by key, in table order; a
    section empty after the list split (a list of only ``none``, say) fails
    like a missing one."""
    headers = tuple(header for header, _, _ in sections)

    def parse(text: str):
        found = parse_labeled_sections(text, headers)
        values = {
            name: _split_list(found[header]) if is_list else found[header]
            for header, name, is_list in sections
        }
        if not all(values.values()):
            raise ResponseFormatError("empty summary section")
        return values

    return parse


def section_lines(values: dict, sections: tuple[tuple[str, str, bool], ...]) -> list[str]:
    """One ``Header: value`` line per section, list values joined by ``; ``."""
    return [
        f"{header.capitalize()}: {'; '.join(values[name]) if is_list else values[name]}"
        for header, name, is_list in sections
    ]


def summarize_user(record: UserRecord, escalated: set[str], session) -> dict:
    """The ``summaries.jsonl`` row of one user record: ``author``, ``status``,
    both summaries, ``failure`` and the chronology.

    An escalated author is ``safety_excluded`` with no backend call. Any other
    user gets the six-aspect synthesis over their entry features, then, when
    the chronology holds events, the temporal pattern synthesis; a failure of
    either makes the row a ``summary_failure``.
    """
    chronology = build_chronology(record)
    row = {
        "author": record.author,
        "status": None,
        "non_temporal": None,
        "temporal": None,
        "failure": None,
        "chronology": chronology,
    }
    if record.author in escalated:
        row["status"] = "safety_excluded"
        return row
    tags = {"author": record.author}
    non_temporal, failure = session.ask_parsed(
        "summary_non_temporal",
        {"features": serialize_features_block(record)},
        _summary_parser(NON_TEMPORAL_SECTIONS),
        tags=tags,
    )
    temporal = None
    if failure is None and chronology:
        block = serialize_chronology_block(chronology, monthly_counts(record))
        parser = _summary_parser(TEMPORAL_SECTIONS)
        temporal, failure = session.ask_parsed(
            "summary_temporal", {"chronology": block}, parser, tags=tags
        )
    if failure is not None:
        row.update(status="summary_failure", failure=failure)
        return row
    row.update(status="ok", non_temporal=non_temporal, temporal=temporal)
    return row
