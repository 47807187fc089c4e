"""Read Reddit-style dump files into ``entries.jsonl`` and ``rejects.jsonl``
rows, and select the active-user cohort.

Input is newline-delimited JSON, one object per line, using Pushshift
field names: comments carry ``body`` and ``parent_id``, submissions carry
``title`` and/or ``selftext``. Submissions are normalized so that
``body`` holds title and selftext joined by one blank line.
"""

from __future__ import annotations

import json
from collections import Counter

KIND_POST = "post"
KIND_COMMENT = "comment"

REASON_MALFORMED = "malformed"
REASON_DUPLICATE_ID = "duplicate_id"


# 9999-12-31T23:59:59Z, the last second a ``datetime`` can hold
MAX_EPOCH = 253402300799


def _coerce_epoch(value) -> int | None:
    """Best-effort integer epoch seconds; None when not coercible (an infinity
    included), <= 0, or past ``MAX_EPOCH``."""
    try:
        if isinstance(value, bool):
            return None
        seconds = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return seconds if 0 < seconds <= MAX_EPOCH else None


def _required_str(obj: dict, field: str) -> str | None:
    value = obj.get(field)
    if value is None:
        return None
    text = str(value)
    return text if text.strip() else None


def _encodes(text: str) -> bool:
    """Whether text is valid UTF-8 once encoded: false for a lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def parse_line(line: str) -> dict | str:
    """The ``entries.jsonl`` row of one dump line, or the reason it is rejected.

    The row holds ``id``, ``author``, ``kind``, ``created_utc``,
    ``subreddit``, ``title`` (a post's, else None), ``body`` and
    ``parent_id`` (a comment's, else None). A row field holding a lone
    surrogate, such as an undecodable byte read with ``surrogateescape``,
    rejects the line as ``invalid_field:<field>``, since the row could not
    be written as UTF-8.
    """
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError):  # nested too deep, or an int of too many digits
        return REASON_MALFORMED
    if not isinstance(obj, dict):
        return REASON_MALFORMED
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

    parent_id = obj.get("parent_id")
    if parent_id is not None:
        kind = KIND_COMMENT
        title = None
        body = obj.get("body")
        if body is None:
            return "missing_field:body"
        body = str(body)
        parent_id = str(parent_id)
    else:
        kind = KIND_POST
        title = obj.get("title")
        selftext = obj.get("selftext")
        if title is None and selftext is None:
            return "missing_field:body"
        # title and selftext joined by a blank line when both are non-empty, else either
        texts = [str(text) for text in (title, selftext) if text is not None]
        body = "\n\n".join(text for text in texts if text)
        if title is not None:
            title = str(title)
    row = {
        "id": entry_id,
        "author": author,
        "kind": kind,
        "created_utc": created,
        "subreddit": subreddit,
        "title": title,
        "body": body,
        "parent_id": parent_id,
    }
    for field, value in row.items():
        if isinstance(value, str) and not _encodes(value):
            return f"invalid_field:{field}"
    return row


def read_dumps(paths: list[str]) -> tuple[list[dict], list[dict]]:
    """The ``entries.jsonl`` and ``rejects.jsonl`` rows of the dump files, in input order.

    Every line gives exactly one row. A reject row holds the ``file``, the
    1-based ``line_no`` and the ``reason``; a line whose id was already
    accepted, from any of the files, is a ``duplicate_id``. A byte that is
    not UTF-8 is read as a lone surrogate, which rejects its line and leaves
    the numbering of the lines after it as it is.
    """
    entries: list[dict] = []
    rejects: list[dict] = []
    seen_ids: set[str] = set()
    for path in paths:
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            for line_no, line in enumerate(handle, start=1):
                row = parse_line(line)
                if isinstance(row, dict) and row["id"] in seen_ids:
                    row = REASON_DUPLICATE_ID
                if isinstance(row, str):
                    rejects.append({"file": str(path), "line_no": line_no, "reason": row})
                else:
                    seen_ids.add(row["id"])
                    entries.append(row)
    return entries, rejects


def select_cohort(entries: list[dict], n: int) -> dict:
    """Pick the n most active authors of the entries rows; ties break on author ascending.

    Returns the ``cohort.json`` row: ``users``, one ``{"author"}`` row per
    author, most active first.
    """
    counts = Counter(row["author"] for row in entries)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    users = [{"author": author} for author, _ in ranked[:n]]
    return {"users": users}
