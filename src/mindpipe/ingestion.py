"""Parse Reddit-style dump files into validated entries and select the active-user cohort.

Input is newline-delimited JSON, one object per line, using Pushshift
field names: comments carry ``body`` and ``parent_id``, submissions carry
``title`` and/or ``selftext``. Submissions are normalized so that
``body`` holds title and selftext joined by one blank line.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

KIND_POST = "post"
KIND_COMMENT = "comment"

REASON_MALFORMED = "malformed"
REASON_DUPLICATE_ID = "duplicate_id"


@dataclass(kw_only=True)
class RawEntry:
    """One post or comment as parsed from a dump line; its row holds its fields in order."""

    id: str
    author: str
    kind: str
    created_utc: int
    subreddit: str
    title: str | None = None
    body: str
    parent_id: str | None = None


@dataclass
class Reject:
    """A dump line that could not be turned into a RawEntry."""

    line_no: int
    reason: str


def _coerce_epoch(value) -> int | None:
    """Best-effort integer epoch seconds; None when not coercible or <= 0."""
    try:
        if isinstance(value, bool):
            return None
        seconds = int(value)
    except (TypeError, ValueError):
        return None
    return seconds if seconds > 0 else None


def _required_str(obj: dict, field: str) -> str | None:
    value = obj.get(field)
    if value is None:
        return None
    text = str(value)
    return text if text.strip() else None


def _parse_object(obj: dict) -> RawEntry | str:
    """Turn one decoded JSON object into a RawEntry, or a reject reason."""
    entry_id = _required_str(obj, "id")
    if entry_id is None:
        return "missing_field:id"
    author = _required_str(obj, "author")
    if author is None:
        return "missing_field:author"
    subreddit = _required_str(obj, "subreddit")
    if subreddit is None:
        return "missing_field:subreddit"
    if "created_utc" not in obj:
        return "missing_field:created_utc"
    created = _coerce_epoch(obj.get("created_utc"))
    if created is None:
        return "invalid_field:created_utc"

    if obj.get("parent_id") is not None:
        body = obj.get("body")
        if body is None:
            return "missing_field:body"
        return RawEntry(
            id=entry_id,
            author=author,
            kind=KIND_COMMENT,
            created_utc=created,
            subreddit=subreddit,
            body=str(body),
            parent_id=str(obj["parent_id"]),
        )

    title = obj.get("title")
    selftext = obj.get("selftext")
    if title is None and selftext is None:
        return "missing_field:body"
    title_text = str(title) if title is not None else ""
    self_text = str(selftext) if selftext is not None else ""
    if title_text and self_text:
        body = f"{title_text}\n\n{self_text}"
    else:
        body = title_text or self_text
    return RawEntry(
        id=entry_id,
        author=author,
        kind=KIND_POST,
        created_utc=created,
        subreddit=subreddit,
        body=body,
        title=title_text if title is not None else None,
    )


def iter_parse(
    lines: Iterable[str], seen_ids: set[str] | None = None
) -> Iterator[RawEntry | Reject]:
    """Stream dump lines into entries and rejects, preserving input order.

    Every input line yields exactly one item. Memory stays bounded apart
    from the seen-id set enforcing id uniqueness; pass a shared set to
    extend uniqueness across several files of one run.
    """
    if seen_ids is None:
        seen_ids = set()
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            yield Reject(line_no, REASON_MALFORMED)
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            yield Reject(line_no, REASON_MALFORMED)
            continue
        if not isinstance(obj, dict):
            yield Reject(line_no, REASON_MALFORMED)
            continue
        parsed = _parse_object(obj)
        if isinstance(parsed, str):
            yield Reject(line_no, parsed)
            continue
        if parsed.id in seen_ids:
            yield Reject(line_no, REASON_DUPLICATE_ID)
            continue
        seen_ids.add(parsed.id)
        yield parsed


def select_cohort(entries: Iterable[RawEntry], n: int) -> dict:
    """Pick the n most active authors; ties break on author ascending.

    Returns the ``cohort.json`` row: ``users``, one ``{"author"}`` row per
    author, most active first.
    """
    if n < 0:
        raise ValueError("cohort size must be >= 0")
    counts = Counter(entry.author for entry in entries)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    users = [{"author": author} for author, _ in ranked[:n]]
    return {"users": users}
