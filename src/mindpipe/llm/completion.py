"""Completion request/response types and the content-addressed cache key."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

DEFAULT_TEMPERATURE = 0.0
DEFAULT_MAX_TOKENS = 1000
DEFAULT_TOP_P = 1.0

# shared, so that a cache key does not build a new encoder
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


@dataclass
class CompletionRequest:
    """One chat-completion call; defaults pin the deterministic parameter set."""

    model: str
    messages: list[dict[str, str]]
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS
    top_p: float = DEFAULT_TOP_P
    stop: list[str] | None = None

    def canonical_json(self) -> str:
        """Stable serialization of every request field, used for cache keys;
        ASCII-only, sorted keys."""
        return _CANONICAL_ENCODER.encode(vars(self))

    def cache_key(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("ascii")).hexdigest()

    def user_content(self) -> str:
        """Concatenated content of all user-role messages."""
        return "\n".join(m["content"] for m in self.messages if m["role"] == "user")


@dataclass
class CompletionResult:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
