"""Fuse the two user summaries into the practitioner-facing diagnosis summary.

The diagnosis prompt is the canonical versioned template; the Dataframe
placeholder receives a fixed serialization of both summaries. Output is
stored verbatim with word accounting; over-budget summaries are flagged,
never truncated.
"""

from __future__ import annotations

from .aggregation import NON_TEMPORAL_SECTIONS, TEMPORAL_SECTIONS, section_lines

WORD_TARGET = 400
# a summary is flagged over budget above the target plus 10% slack
OVER_BUDGET_WORDS = int(round(WORD_TARGET * 1.1))

TEMPORAL_ABSENT_LINE = "Temporal summary: none"


def serialize_dataframe(non_temporal: dict, temporal: dict | None) -> str:
    """Canonical Dataframe text: labeled non-temporal block, then temporal block."""
    lines = ["NON-TEMPORAL SUMMARY", *section_lines(non_temporal, NON_TEMPORAL_SECTIONS), ""]
    if not temporal:
        lines.append(TEMPORAL_ABSENT_LINE)
    else:
        lines += ["TEMPORAL SUMMARY", *section_lines(temporal, TEMPORAL_SECTIONS)]
    return "\n".join(lines)


def word_count(text: str) -> int:
    return len(text.split())


def diagnose(summary: dict, session) -> dict:
    """The ``diagnosis.jsonl`` row of one summarized user (a ``summaries.jsonl``
    row with status ``ok``): ``author``, status ``ok``, ``text``, ``word_count``
    and ``over_budget``, or status ``diagnosis_failure`` with ``failure``.

    Any text is a diagnosis, so only a backend failure is a failure; it is
    never re-asked.
    """
    author = summary["author"]
    dataframe = serialize_dataframe(summary["non_temporal"], summary["temporal"])
    text, failure = session.ask_parsed(
        "diagnosis", {"Dataframe": dataframe}, str, tags={"author": author}
    )
    if failure is not None:
        return {"author": author, "status": "diagnosis_failure", "failure": failure}
    words = word_count(text)
    return {
        "author": author,
        "status": "ok",
        "text": text,
        "word_count": words,
        "over_budget": words > OVER_BUDGET_WORDS,
    }
