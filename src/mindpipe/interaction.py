"""Post-comment pair construction and relationship classification.

Pairs are direct parent-child only: a retained comment joined to its
retained parent post. Pairs touching safety-flagged content are labeled
without any backend call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResponseFormatError
from .filtering import CleanEntry
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
    post: CleanEntry
    comment: CleanEntry
    post_flagged: bool
    comment_flagged: bool


@dataclass
class RelationRecord:
    """One labeled pair; its row in ``relations.jsonl`` is ``asdict``."""

    post_id: str
    comment_id: str
    post_author: str
    comment_author: str
    relation: str
    detail: str | None = None


def _parent_key(parent_id: str) -> str:
    for prefix in _PARENT_PREFIXES:
        if parent_id.startswith(prefix):
            return parent_id[len(prefix) :]
    return parent_id


def pair_entries(
    retained: list[CleanEntry], flagged_ids: set[str]
) -> tuple[list[Pair], int]:
    """Join every retained comment to its retained parent post.

    Comments whose parent is absent (dropped, non-cohort, or a comment)
    are skipped and counted.
    """
    posts = {c.entry.id: c for c in retained if c.entry.kind == KIND_POST}
    pairs: list[Pair] = []
    skipped = 0
    for clean in retained:
        if clean.entry.kind != KIND_COMMENT:
            continue
        parent = posts.get(_parent_key(clean.entry.parent_id or ""))
        if parent is None:
            skipped += 1
            continue
        pairs.append(
            Pair(
                post=parent,
                comment=clean,
                post_flagged=parent.entry.id in flagged_ids,
                comment_flagged=clean.entry.id in flagged_ids,
            )
        )
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


def classify_relation(pair: Pair, session) -> RelationRecord:
    """Label one post-comment pair; safety-flagged pairs bypass the backend."""
    record = RelationRecord(
        post_id=pair.post.entry.id,
        comment_id=pair.comment.entry.id,
        post_author=pair.post.entry.author,
        comment_author=pair.comment.entry.author,
        relation=RELATION_SAFETY,
    )
    if pair.post_flagged or pair.comment_flagged:
        return record
    tags = {
        "stage": "interact",
        "post_id": pair.post.entry.id,
        "comment_id": pair.comment.entry.id,
        "post_author": pair.post.entry.author,
        "comment_author": pair.comment.entry.author,
    }
    label, failure = session.ask_parsed(
        "relation",
        {"post": pair.post.clean_text, "reply": pair.comment.clean_text},
        _parse_relation_response,
        tags=tags,
    )
    if failure is not None:
        record.relation, record.detail = RELATION_OTHER, BACKEND_ERROR_LABEL
    else:
        record.relation, record.detail = normalize_relation(label)
    return record
