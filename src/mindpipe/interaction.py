"""Post-comment pair construction and relationship classification.

Pairs are direct parent-child only: a retained comment joined to its
retained parent post. A quarantined pair, one that touches safety-flagged
content, is labeled without any backend call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResponseFormatError
from .ingestion import KIND_COMMENT, KIND_POST

RELATION_TYPES = (
    "empathy",
    "agreement",
    "support",
    "shared_experience",
    "criticism",
    "encouragement",
    "not_related",
)
RELATION_SAFETY = "unprocessed_safety"
RELATION_OTHER = "other"

BACKEND_ERROR_LABEL = "backend_error"

_PARENT_PREFIXES = ("t1_", "t3_")


@dataclass
class Pair:
    """A post and a comment replying to it, each a filtered row."""

    post: dict
    comment: dict


def _parent_key(parent_id: str) -> str:
    for prefix in _PARENT_PREFIXES:
        if parent_id.startswith(prefix):
            return parent_id[len(prefix) :]
    return parent_id


def pair_entries(retained: list[dict]) -> tuple[list[Pair], int]:
    """Join every retained comment to its retained parent post; both are
    filtered rows.

    Comments whose parent is absent (dropped, non-cohort, or a comment)
    are skipped and counted.
    """
    posts = {row["entry"]["id"]: row for row in retained if row["entry"]["kind"] == KIND_POST}
    pairs: list[Pair] = []
    skipped = 0
    for row in retained:
        entry = row["entry"]
        if entry["kind"] != KIND_COMMENT:
            continue
        parent = posts.get(_parent_key(entry["parent_id"] or ""))
        if parent is None:
            skipped += 1
            continue
        pairs.append(Pair(post=parent, comment=row))
    return pairs, skipped


def normalize_relation(label: str) -> tuple[str, str | None]:
    """Map a backend label onto the closed relation set, or other(label)."""
    token = label.strip().strip(".").lower().replace("-", " ")
    token = "_".join(token.split())
    if token in RELATION_TYPES:
        return token, None
    return RELATION_OTHER, label.strip()


def _parse_relation_response(text: str) -> str:
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.upper().startswith("RELATION"):
            _, _, value = stripped.partition(":")
            if value.strip():
                return value.strip()
            raise ResponseFormatError("empty RELATION value")
    stripped = text.strip()
    if stripped and "\n" not in stripped:
        return stripped
    raise ResponseFormatError("missing RELATION line")


def classify_relation(pair: Pair, session, *, quarantined: bool) -> dict:
    """Label one post-comment pair; a quarantined pair bypasses the backend.

    Returns its ``relations.jsonl`` row: the pair's ids and authors, then
    ``relation`` and ``detail``.
    """
    post, comment = pair.post["entry"], pair.comment["entry"]
    tags = {
        "post_id": post["id"],
        "comment_id": comment["id"],
        "post_author": post["author"],
        "comment_author": comment["author"],
    }
    record = {**tags, "relation": RELATION_SAFETY, "detail": None}
    if quarantined:
        return record
    label, failure = session.ask_parsed(
        "relation",
        {"post": pair.post["clean_text"], "reply": pair.comment["clean_text"]},
        _parse_relation_response,
        tags=tags,
    )
    if failure is not None:
        record["relation"], record["detail"] = RELATION_OTHER, BACKEND_ERROR_LABEL
    else:
        record["relation"], record["detail"] = normalize_relation(label)
    return record
