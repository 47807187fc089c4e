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


def _parse_non_temporal_summary(text: str) -> NonTemporalSummary:
    sections = parse_labeled_sections(
        text,
        (
            "OVERALL SEVERITY",
            "TRIGGERS",
            "DISORDERS",
            "LANGUAGE AND TONE",
            "RECURRING THEMES",
            "OVERALL STATUS",
        ),
    )
    summary = NonTemporalSummary(
        overall_severity=sections["OVERALL SEVERITY"],
        triggers=_split_list(sections["TRIGGERS"]),
        disorders=_split_list(sections["DISORDERS"]),
        language_tone=sections["LANGUAGE AND TONE"],
        recurring_themes=sections["RECURRING THEMES"],
        overall_status=sections["OVERALL STATUS"],
    )
    if not all(
        [
            summary.overall_severity,
            summary.triggers,
            summary.disorders,
            summary.language_tone,
            summary.recurring_themes,
            summary.overall_status,
        ]
    ):
        raise ResponseFormatError("empty summary section")
    return summary


def _parse_temporal_summary(text: str) -> TemporalSummary:
    sections = parse_labeled_sections(
        text,
        ("CHRONOLOGICAL EVENTS", "DURATION", "FREQUENCY", "RECURRENCE", "EXPLICIT TIMES"),
    )
    if not all(sections.values()):
        raise ResponseFormatError("empty summary section")
    return TemporalSummary(
        chronological_events=sections["CHRONOLOGICAL EVENTS"],
        duration=sections["DURATION"],
        frequency=sections["FREQUENCY"],
        recurrence=sections["RECURRENCE"],
        explicit_times=sections["EXPLICIT TIMES"],
    )


def summarize_non_temporal(record: UserRecord, session) -> tuple[NonTemporalSummary | None, str | None]:
    """Six-aspect user-level synthesis over the concatenated entry features."""
    if not record.non_flagged():
        raise ValueError("summarize_non_temporal requires at least one non-flagged entry")
    tags = {"stage": "aggregate", "author": record.author}
    return session.ask_parsed(
        "summary_non_temporal",
        {"features": serialize_features_block(record)},
        _parse_non_temporal_summary,
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
    return session.ask_parsed(
        "summary_temporal", {"chronology": block}, _parse_temporal_summary, tags=tags
    )
