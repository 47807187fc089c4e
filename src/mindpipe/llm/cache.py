"""Content-addressed response cache: one text file per cache key.

Layout under the cache directory:

    objects/<digest>.txt  the response for one cache key, JSON-framed

A missing, truncated, or otherwise damaged object is treated as a miss
and rewritten. Writes are atomic: each writer writes its own temp file
(named by process and thread) and renames it over the object, so
concurrent writers of the same key degrade to last-writer-wins.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from pathlib import Path

logger = logging.getLogger(__name__)


class ResponseCache:
    def __init__(self, directory: str | Path):
        self.objects = Path(directory) / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)

    def _object_path(self, key: str) -> Path:
        return self.objects / f"{key}.txt"

    def get(self, key: str) -> str | None:
        path = self._object_path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except (OSError, UnicodeDecodeError) as exc:
            logger.warning("cache entry %s unreadable, treating as miss: %s", key, exc)
            return None
        try:
            record = json.loads(raw)
            return record["text"]
        except (ValueError, TypeError, KeyError) as exc:
            logger.warning("cache entry %s corrupt, treating as miss: %s", key, exc)
            return None

    def put(self, key: str, text: str) -> None:
        path = self._object_path(key)
        tmp = path.with_name(f"{key}.{os.getpid()}.{threading.get_ident()}.tmp")
        tmp.write_text(json.dumps({"text": text}, ensure_ascii=False), encoding="utf-8")
        os.replace(tmp, path)

    def stats(self) -> tuple[int, int]:
        """(entry count, total stored bytes) over the object store."""
        entries = 0
        size = 0
        for path in self.objects.glob("*.txt"):
            entries += 1
            size += path.stat().st_size
        return entries, size
