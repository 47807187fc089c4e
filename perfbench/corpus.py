"""Scale the 1x fixture corpus to N copies with unique, keyword-free text per copy.

Copy k renames every id, author and ``parent_id`` reference with a token
derived from (seed, k) and appends the same token to the entry text.
Tokens use consonants only, and every space-separated part of every
mock-backend rule keyword and safety lexicon term has some other
character (checked here), so a token can never add or complete a keyword
match: each copy gets the same mock verdicts as the original but
different prompt bytes, so no copy is served from cache by duplication.
Lines that do not parse as JSON objects are copied verbatim (they are
rejected the same way in every copy).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

FIXTURE = Path("tests/fixtures/corpus.jsonl")
_CONSONANTS = "bcdfghjklmnpqrstvwxz"
_REF_PREFIXES = ("t1_", "t3_")


def copy_token(seed: int, copy: int) -> str:
    """Ten consonants, a pure function of (seed, copy)."""
    digest = hashlib.sha256(f"mindpipe-bench:{seed}:{copy}".encode("ascii")).digest()
    return "".join(_CONSONANTS[b % len(_CONSONANTS)] for b in digest[:10])


def _keywords(package_dir: Path) -> list[str]:
    rules = json.loads((package_dir / "data" / "mock_rules.json").read_text(encoding="utf-8"))
    words = []
    for section in rules["templates"].values():
        words.append(section["identify"])
        for rule in section.get("rules", []):
            words.extend(rule["keywords"])
    lexicon = (package_dir / "data" / "safety_lexicon.txt").read_text(encoding="utf-8")
    words.extend(
        line.strip() for line in lexicon.splitlines() if line.strip() and not line.startswith("#")
    )
    return [word.lower() for word in words]


def _is_blank(text: str) -> bool:
    """True for bodies ``filtering.clean_entry`` removes: markers, or empty once cleaned."""
    from mindpipe.filtering import clean_string  # the caller puts the checkout's src/ on sys.path

    return text.strip().lower() in ("[deleted]", "[removed]") or not clean_string(text)


def _rename(value: str, token: str) -> str:
    for prefix in _REF_PREFIXES:
        if value.startswith(prefix):
            return prefix + value[len(prefix):] + "_" + token
    return value + "_" + token


def _scale_object(obj: dict, token: str) -> dict:
    out = dict(obj)
    for field in ("id", "author", "parent_id"):
        if isinstance(out.get(field), str):
            out[field] = _rename(out[field], token)
    # the suffix goes on the text the entry is cleaned from; removed bodies stay removed
    for field in ("body", "selftext", "title"):
        text = out.get(field)
        if isinstance(text, str) and not _is_blank(text):
            out[field] = f"{text} {token}"
            break
    return out


def scale_lines(lines: list[str], copies: int, seed: int, package_dir: Path) -> list[str]:
    """N renamed copies of the fixture lines, copy-major order."""
    tokens = [copy_token(seed, k) for k in range(copies)]
    if len(set(tokens)) != copies:
        raise ValueError(f"copy tokens collide for seed {seed}")
    # a keyword could only lie in, or run on into, " <token>" through a
    # space-separated part made of token letters alone (or an empty part)
    unsafe = [
        word
        for word in _keywords(package_dir)
        if any(set(part) <= set(_CONSONANTS) for part in word.split(" "))
    ]
    if unsafe:
        raise ValueError(f"keywords a copy token could match: {unsafe}")
    out: list[str] = []
    for token in tokens:
        for line in lines:
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                out.append(line)
                continue
            if not isinstance(obj, dict):
                out.append(line)
                continue
            out.append(json.dumps(_scale_object(obj, token), ensure_ascii=False))
    return out


def write_corpus(root: Path, dest: Path, copies: int, seed: int) -> Path:
    lines = (root / FIXTURE).read_text(encoding="utf-8").splitlines()
    scaled = scale_lines(lines, copies, seed, root / "src" / "mindpipe")
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text("".join(line + "\n" for line in scaled), encoding="utf-8")
    return dest
