"""Content-addressed response cache: one SQLite database per cache directory.

Layout under the cache directory:

    responses.sqlite3  table ``responses (key, text)``, one row per response

A row's key is a SHA-256 over the cache's namespace (the backend identity)
and the request's cache key, so a mock run and an HTTP run that share a
cache directory never serve each other's answers.

The database runs in WAL mode with ``synchronous=NORMAL``. A put goes into
an in-memory ``pending`` map, which ``get`` reads before the database, so a
cache serves its own answers at once. Every ``_FLUSH_EVERY`` puts, and at
``flush()`` and ``close()``, the pending rows are written as ``INSERT OR
REPLACE`` in one transaction, so concurrent writers of one key degrade to
last-writer-wins. Another connection sees a put only after that flush, and
a process killed without ``close()`` loses at most ``_FLUSH_EVERY - 1`` (255)
answers, which a resumed run asks for again. No transaction stays open
between flushes, so other processes are never locked out for long.

A ``ResponseCache`` holds one connection, shared by its threads under a
lock; a busy timeout makes processes that share the directory wait for
each other's writes instead of failing. Closing the last connection
removes the ``-wal`` and ``-shm`` files.

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
_FLUSH_EVERY = 256  # pending puts written per transaction


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
        self._pending: dict[str, str] = {}  # row key -> text, not yet written
        self._conn = _open(self.path)

    def _row_key(self, key: str) -> str:
        return hashlib.sha256(self._namespace + key.encode("utf-8")).hexdigest()

    def get(self, key: str) -> str | None:
        row_key = self._row_key(key)
        with self._lock:
            text = self._pending.get(row_key)
            if text is not None:
                return text
            row = self._conn.execute(
                "SELECT text FROM responses WHERE key = ?", (row_key,)
            ).fetchone()
        return None if row is None else row[0]

    def put(self, key: str, text: str) -> None:
        row_key = self._row_key(key)
        with self._lock:
            self._pending[row_key] = text
            if len(self._pending) >= _FLUSH_EVERY:
                self._write_pending()

    def flush(self) -> None:
        """Write the pending puts, so that other connections see them."""
        with self._lock:
            self._write_pending()

    def close(self) -> None:
        with self._lock:
            try:
                self._write_pending()
            finally:
                self._conn.close()

    def _write_pending(self) -> None:
        """One transaction for all pending rows; on failure they stay pending."""
        if not self._pending:
            return
        try:
            self._conn.execute("BEGIN IMMEDIATE")
            self._conn.executemany(
                "INSERT OR REPLACE INTO responses (key, text) VALUES (?, ?)",
                self._pending.items(),
            )
            self._conn.execute("COMMIT")
        except BaseException:
            if self._conn.in_transaction:
                self._conn.execute("ROLLBACK")
            raise
        self._pending.clear()


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
