"""Request pacing: a sliding-window rate gate."""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable


class RateLimiter:
    """Allows at most ``rps`` request starts in any one-second window. A
    fractional rate admits the whole starts it holds (2.5 admits 2 a second);
    a rate below 1 admits one start per ``1/rps`` seconds. Requests in flight
    are bounded by their callers: the ``limits.concurrency`` stage workers.

    Clock and sleep are injectable so tests can drive the window
    deterministically.
    """

    def __init__(
        self,
        rps: float,
        clock: Callable[[], float] = time.monotonic,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        if rps <= 0:
            raise ValueError("rps must be > 0")
        # a start is admitted while it keeps the window's count within _limit
        self._limit = max(rps, 1.0)
        self._window = max(1.0, 1.0 / rps)
        self._clock = clock
        self._sleeper = sleeper
        self._starts: deque[float] = deque()
        self._lock = threading.Lock()

    def __enter__(self) -> "RateLimiter":
        """Wait until a request may start, and count its start."""
        while True:
            with self._lock:
                now = self._clock()
                while self._starts and now - self._starts[0] >= self._window:
                    self._starts.popleft()
                if len(self._starts) + 1 <= self._limit:
                    self._starts.append(now)
                    return self
                wait = self._window - (now - self._starts[0])
            self._sleeper(max(wait, 0.001))

    def __exit__(self, *exc_info) -> None:
        pass
