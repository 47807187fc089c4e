"""Per-user aggregation: chronology building and the two user-level summaries.

Summary prompts are built from per-entry extracted features, never from
raw text; raw text appears only as chronology event content, truncated to
a configurable per-event budget. Entries whose timeline is the
no-timeline sentinel still contribute creation dates to the deterministic
monthly posting counts appended to the temporal prompt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone

from .config import PipelineKnobs
from .errors import ResponseFormatError
from .extraction import NO_TIMELINE, NonTemporalFeatures, TemporalAnnotation
from .extraction import parse_labeled_sections, _split_list

@dataclass
class UserEntry:
    """One surviving entry with everything aggregation needs."""

    entry_id: str
    created_utc: int
    kind: str
    clean_text: str
    features: NonTemporalFeatures
    annotation: TemporalAnnotation
    flagged: bool


@dataclass
class UserRecord:
    author: str
    entries: list[UserEntry]

    def non_flagged(self) -> list[UserEntry]:
        return [e for e in self.entries if not e.flagged]


@dataclass
class ChronologyEvent:
    date: str
    timeline: str
    content: str


@dataclass
class ChronologicalSequence:
    events: list[ChronologyEvent] = field(default_factory=list)


@dataclass
class NonTemporalSummary:
    overall_severity: str
    triggers: list[str]
    disorders: list[str]
    language_tone: str
    recurring_themes: str
    overall_status: str


@dataclass
class TemporalSummary:
    chronological_events: str
    duration: str
    frequency: str
    recurrence: str
    explicit_times: str


# Each summary's sections in answer order: (prompt header, summary field, is a
# ';'-separated list). The parser, the diagnosis Dataframe and the user report
# all read these; the report label is the header, capitalized.
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
    cohort_authors: list[str],
    entries: list[UserEntry],
    authors_by_entry: dict[str, str],
) -> tuple[list[UserRecord], int]:
    """Group surviving entries per cohort author, sorted by (time, entry id).

    Returns the records plus the count of cohort authors omitted for
    having zero surviving entries. Record order follows cohort order.
    """
    by_author: dict[str, list[UserEntry]] = {author: [] for author in cohort_authors}
    for entry in entries:
        author = authors_by_entry[entry.entry_id]
        if author in by_author:
            by_author[author].append(entry)
    records: list[UserRecord] = []
    omitted = 0
    for author in cohort_authors:
        bucket = by_author[author]
        if not bucket:
            omitted += 1
            continue
        bucket.sort(key=lambda e: (e.created_utc, e.entry_id))
        records.append(UserRecord(author=author, entries=bucket))
    return records, omitted


def build_chronology(
    record: UserRecord, content_budget: int = PipelineKnobs.event_content_budget
) -> ChronologicalSequence:
    """Events are exactly the entries carrying a timeline, in record order."""
    events = [
        ChronologyEvent(
            date=utc_date(entry.created_utc),
            timeline=entry.annotation.timeline,
            content=entry.clean_text[:content_budget],
        )
        for entry in record.entries
        if entry.annotation.timeline is not NO_TIMELINE
    ]
    return ChronologicalSequence(events=events)


def monthly_counts(record: UserRecord) -> dict[str, int]:
    """Posts per calendar month over the user's non-flagged entries."""
    counts: dict[str, int] = {}
    for entry in record.non_flagged():
        month = utc_date(entry.created_utc)[:7]
        counts[month] = counts.get(month, 0) + 1
    return dict(sorted(counts.items()))


def serialize_features_block(record: UserRecord) -> str:
    """Canonical per-entry feature lines for the non-temporal summary prompt."""
    lines = []
    for entry in record.non_flagged():
        features = entry.features
        lines.append(
            "- severity={severity} | causes={causes} | tone={tone} | disorders={disorders}".format(
                severity=features.severity,
                causes=", ".join(features.causes) or "none",
                tone=", ".join(features.tone) or "none",
                disorders=", ".join(features.disorders) or "none",
            )
        )
    return "\n".join(lines)


def serialize_chronology_block(chronology: ChronologicalSequence, months: dict[str, int]) -> str:
    """Canonical chronology plus monthly counts for the temporal summary prompt."""
    lines = [
        f"- {event.date} | timeline: {event.timeline} | content: {event.content}"
        for event in chronology.events
    ]
    lines.append("Monthly posting counts:")
    lines.extend(f"- {month}: {count}" for month, count in months.items())
    return "\n".join(lines)


def _summary_parser(cls, sections: tuple[tuple[str, str, bool], ...]):
    """A parser of one summary answer into ``cls``; a section empty after the
    list split (a list of only ``none``, say) fails like a missing one."""
    headers = tuple(header for header, _, _ in sections)

    def parse(text: str):
        found = parse_labeled_sections(text, headers)
        values = {
            name: _split_list(found[header]) if is_list else found[header]
            for header, name, is_list in sections
        }
        if not all(values.values()):
            raise ResponseFormatError("empty summary section")
        return cls(**values)

    return parse


def section_lines(values: dict, sections: tuple[tuple[str, str, bool], ...]) -> list[str]:
    """One ``Header: value`` line per section, list values joined by ``; ``."""
    return [
        f"{header.capitalize()}: {'; '.join(values[name]) if is_list else values[name]}"
        for header, name, is_list in sections
    ]


def summarize_non_temporal(record: UserRecord, session) -> tuple[NonTemporalSummary | None, str | None]:
    """Six-aspect user-level synthesis over the concatenated entry features."""
    if not record.non_flagged():
        raise ValueError("summarize_non_temporal requires at least one non-flagged entry")
    tags = {"stage": "aggregate", "author": record.author}
    return session.ask_parsed(
        "summary_non_temporal",
        {"features": serialize_features_block(record)},
        _summary_parser(NonTemporalSummary, NON_TEMPORAL_SECTIONS),
        tags=tags,
    )


def summarize_temporal(
    record: UserRecord,
    chronology: ChronologicalSequence,
    session,
) -> tuple[TemporalSummary | None, str | None]:
    """Temporal pattern synthesis; absent (None, None) for empty chronologies."""
    if not chronology.events:
        return None, None
    tags = {"stage": "aggregate", "author": record.author}
    block = serialize_chronology_block(chronology, monthly_counts(record))
    parser = _summary_parser(TemporalSummary, TEMPORAL_SECTIONS)
    return session.ask_parsed("summary_temporal", {"chronology": block}, parser, tags=tags)
