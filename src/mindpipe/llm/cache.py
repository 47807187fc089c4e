"""Content-addressed response cache: one SQLite database per cache directory.

Layout under the cache directory:

    responses.sqlite3  table ``responses (key, text)``, one row per response

A row's key is a SHA-256 over the cache's namespace (the backend identity)
and the request's cache key, so a mock run and an HTTP run that share a
cache directory never serve each other's answers.

The database runs in WAL mode with ``synchronous=NORMAL``, and each put is
one autocommitted ``INSERT OR REPLACE``, so concurrent writers of one key
degrade to last-writer-wins. A ``ResponseCache`` holds one connection,
shared by its threads under a lock; a busy timeout makes processes that
share the directory wait for each other's writes instead of failing.
Closing the last connection removes the ``-wal`` and ``-shm`` files.

A file that is not a readable SQLite database is logged and replaced by an
empty cache. The ``objects/`` directory of the older one-file-per-key
layout is neither read nor deleted.
"""

from __future__ import annotations

import hashlib
import logging
import sqlite3
import threading
from pathlib import Path

logger = logging.getLogger(__name__)

DB_NAME = "responses.sqlite3"
_BUSY_TIMEOUT_S = 60.0


def _connect(path: Path) -> sqlite3.Connection:
    conn = sqlite3.connect(
        path, timeout=_BUSY_TIMEOUT_S, isolation_level=None, check_same_thread=False
    )
    try:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS responses"
            " (key TEXT PRIMARY KEY, text TEXT NOT NULL) WITHOUT ROWID"
        )
    except BaseException:
        conn.close()
        raise
    return conn


def _open(path: Path) -> sqlite3.Connection:
    """Connect, first replacing a file that is not a readable database with an empty one."""
    try:
        return _connect(path)
    except sqlite3.OperationalError:  # locked or unopenable: not a damaged file
        raise
    except sqlite3.DatabaseError as exc:  # garbage or truncated bytes
        logger.warning("cache %s unreadable, starting an empty cache: %s", path, exc)
        # a stale -wal would be replayed into the new database
        for suffix in ("", "-wal", "-shm"):
            Path(f"{path}{suffix}").unlink(missing_ok=True)
        return _connect(path)


class ResponseCache:
    def __init__(self, directory: str | Path, namespace: str):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.path = directory / DB_NAME
        self._namespace = namespace.encode("utf-8") + b"\0"
        self._lock = threading.Lock()
        self._conn = _open(self.path)

    def _row_key(self, key: str) -> str:
        return hashlib.sha256(self._namespace + key.encode("utf-8")).hexdigest()

    def get(self, key: str) -> str | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT text FROM responses WHERE key = ?", (self._row_key(key),)
            ).fetchone()
        return None if row is None else row[0]

    def put(self, key: str, text: str) -> None:
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO responses (key, text) VALUES (?, ?)",
                (self._row_key(key), text),
            )

    def close(self) -> None:
        with self._lock:
            self._conn.close()


def read_stats(directory: str | Path) -> tuple[int, int]:
    """(entry count, database file bytes) of the cache in directory.

    A directory without a database reads as (0, 0) and is left as it is; an
    unreadable database is replaced by an empty one, as a run would do.
    """
    path = Path(directory) / DB_NAME
    if not path.exists():
        return 0, 0
    conn = _open(path)
    try:
        (entries,) = conn.execute("SELECT count(*) FROM responses").fetchone()
    finally:
        conn.close()
    return entries, path.stat().st_size
