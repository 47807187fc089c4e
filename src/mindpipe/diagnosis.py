"""Fuse the two user summaries into the practitioner-facing diagnosis summary.

The diagnosis prompt is the canonical versioned template; the Dataframe
placeholder receives a fixed serialization of both summaries. Output is
stored verbatim with word accounting; over-budget summaries are flagged,
never truncated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aggregation import (
    NON_TEMPORAL_SECTIONS,
    TEMPORAL_SECTIONS,
    NonTemporalSummary,
    TemporalSummary,
    section_lines,
)
from .config import PipelineKnobs

WORD_TARGET = 400

TEMPORAL_ABSENT_LINE = "Temporal summary: none"


@dataclass
class DiagnosisSummary:
    author: str
    text: str
    word_count: int
    over_budget: bool


def serialize_dataframe(
    non_temporal: NonTemporalSummary, temporal: TemporalSummary | None
) -> str:
    """Canonical Dataframe text: labeled non-temporal block, then temporal block."""
    lines = ["NON-TEMPORAL SUMMARY", *section_lines(vars(non_temporal), NON_TEMPORAL_SECTIONS), ""]
    if temporal is None:
        lines.append(TEMPORAL_ABSENT_LINE)
    else:
        lines += ["TEMPORAL SUMMARY", *section_lines(vars(temporal), TEMPORAL_SECTIONS)]
    return "\n".join(lines)


def word_count(text: str) -> int:
    return len(text.split())


def diagnose(
    author: str,
    non_temporal: NonTemporalSummary,
    temporal: TemporalSummary | None,
    session,
    slack: float = PipelineKnobs.word_budget_slack,
) -> tuple[DiagnosisSummary | None, str | None]:
    """Run the diagnosis prompt for one user; returns (summary, failure).

    Any text is a diagnosis, so only a backend failure is a failure; it is
    never re-asked.
    """
    tags = {"stage": "diagnose", "author": author}
    dataframe = serialize_dataframe(non_temporal, temporal)
    text, failure = session.ask_parsed("diagnosis", {"Dataframe": dataframe}, str, tags=tags)
    if failure is not None:
        return None, failure
    words = word_count(text)
    budget = int(round(WORD_TARGET * slack))
    return (
        DiagnosisSummary(author=author, text=text, word_count=words, over_budget=words > budget),
        None,
    )
