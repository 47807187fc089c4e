"""Deterministic rule-table backend for offline runs and tests.

The rule table is a versioned JSON fixture. Each template section names a
substring that identifies its rendered user prompt, an ordered rule list,
and a default response. A rule fires when every keyword in it occurs
(case-insensitive) in the request's user content; the first firing rule
wins. Same request in, same response out, always.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from ..errors import BackendError
from .completion import CompletionRequest, CompletionResult


@dataclass
class _Rule:
    keywords: tuple[str, ...]
    response: str


@dataclass
class _TemplateRules:
    identify: str
    rules: list[_Rule]
    default: str


class MockBackend:
    """Rule-driven completion provider; counts every call it serves."""

    def __init__(self, rules_path: str | Path):
        data = Path(rules_path).read_bytes()
        # names this backend in the response cache: editing a rule invalidates
        self.identity = "mock:" + hashlib.sha256(data).hexdigest()
        raw = json.loads(data)
        self._templates: dict[str, _TemplateRules] = {}
        for name, section in raw["templates"].items():
            self._templates[name] = _TemplateRules(
                identify=section["identify"].lower(),
                rules=[
                    _Rule(tuple(k.lower() for k in r["keywords"]), r["response"])
                    for r in section.get("rules", [])
                ],
                default=section["default"],
            )
        self.calls = 0

    def _match_template(self, user_content: str) -> _TemplateRules:
        lowered = user_content.lower()
        for section in self._templates.values():
            if section.identify in lowered:
                return section
        raise BackendError("mock backend cannot identify the prompt template")

    def complete(self, request: CompletionRequest) -> CompletionResult:
        self.calls += 1
        content = request.user_content()
        section = self._match_template(content)
        lowered = content.lower()
        text = section.default
        for rule in section.rules:
            if all(keyword in lowered for keyword in rule.keywords):
                text = rule.response
                break
        prompt_tokens = sum(len(m["content"].split()) for m in request.messages)
        return CompletionResult(
            text=text,
            prompt_tokens=prompt_tokens,
            completion_tokens=len(text.split()),
        )
