"""Versioned prompt templates with literal placeholder substitution.

Template files are plain text:

    name: diagnosis
    version: 1
    placeholders: Dataframe
    ---SYSTEM---
    <system text, may be empty>
    ---USER---
    <user text>

A placeholder named ``P`` is written ``[P]`` or ``{P}`` in the template
body; render substitutes both token forms literally, with no escaping and
no trimming.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from ..errors import TemplateError
from ..runfiles import read_text

_SYSTEM_MARK = "---SYSTEM---"
_USER_MARK = "---USER---"
_TOKEN_RE = re.compile(r"[\[{]([A-Za-z_][A-Za-z0-9_]*)[\]}]")


@dataclass
class PromptTemplate:
    name: str
    version: str
    system: str
    user: str
    placeholders: tuple[str, ...]


def _tokens(name: str) -> tuple[str, str]:
    return f"[{name}]", f"{{{name}}}"


def load_template(path: str | Path) -> PromptTemplate:
    """Parse one template file; validates the declared placeholder set."""
    path = Path(path)
    lines = read_text(path).split("\n")
    try:
        system_at = lines.index(_SYSTEM_MARK)
        user_at = lines.index(_USER_MARK)
    except ValueError:
        raise TemplateError(f"{path}: missing {_SYSTEM_MARK}/{_USER_MARK} markers") from None
    if user_at < system_at:
        raise TemplateError(f"{path}: {_USER_MARK} precedes {_SYSTEM_MARK}")
    system = "\n".join(lines[system_at + 1 : user_at])
    user_lines = lines[user_at + 1 :]
    if user_lines and user_lines[-1] == "":
        user_lines.pop()  # file-final newline is not prompt content
    user = "\n".join(user_lines)

    fields: dict[str, str] = {}
    for line in lines[:system_at]:
        line = line.strip()
        if not line:
            continue
        if ":" not in line:
            raise TemplateError(f"{path}: bad header line: {line!r}")
        key, value = line.split(":", 1)
        fields[key.strip()] = value.strip()
    for required in ("name", "version"):
        if required not in fields:
            raise TemplateError(f"{path}: header missing '{required}'")
    declared = tuple(p for p in re.split(r"[,\s]+", fields.get("placeholders", "")) if p)

    template = PromptTemplate(
        name=fields["name"],
        version=fields["version"],
        system=system,
        user=user,
        placeholders=declared,
    )
    _validate(template, path)
    return template


def _validate(template: PromptTemplate, path: Path) -> None:
    declared = set(template.placeholders)
    found = set(_TOKEN_RE.findall(template.system)) | set(_TOKEN_RE.findall(template.user))
    undeclared = found - declared
    if undeclared:
        raise TemplateError(
            f"{path}: undeclared placeholder(s): {', '.join(sorted(undeclared))}"
        )


def render(template: PromptTemplate, bindings: dict[str, str]) -> list[dict[str, str]]:
    """Substitute bindings into the template and build the messages list."""
    for name in template.placeholders:
        if name not in bindings:
            raise TemplateError(f"unbound placeholder: {name}")
    system = template.system
    user = template.user
    for name in template.placeholders:
        value = bindings[name]
        for token in _tokens(name):
            system = system.replace(token, value)
            user = user.replace(token, value)
    messages: list[dict[str, str]] = []
    if system:
        messages.append({"role": "system", "content": system})
    messages.append({"role": "user", "content": user})
    return messages
