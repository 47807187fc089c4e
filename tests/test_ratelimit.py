from __future__ import annotations

import pytest

from mindpipe.llm.ratelimit import RateLimiter


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_at_most_rps_starts_per_second():
    clock = FakeClock()
    limiter = RateLimiter(rps=2, clock=clock, sleeper=clock.sleep)
    starts = []
    for _ in range(6):
        with limiter:
            starts.append(clock.now)
    for window_start in starts:
        in_window = [s for s in starts if window_start <= s < window_start + 1.0]
        assert len(in_window) <= 2


def test_third_request_waits_for_window():
    clock = FakeClock()
    limiter = RateLimiter(rps=2, clock=clock, sleeper=clock.sleep)
    with limiter:
        pass
    with limiter:
        pass
    assert clock.now == 0.0
    with limiter:
        pass
    assert clock.now >= 1.0


def _starts(rps, count):
    clock = FakeClock()
    limiter = RateLimiter(rps=rps, clock=clock, sleeper=clock.sleep)
    starts = []
    for _ in range(count):
        with limiter:
            starts.append(clock.now)
    return starts


def test_a_rate_below_one_spaces_starts_by_its_period():
    starts = _starts(0.5, 4)
    assert starts[0] == 0.0
    assert all(later - earlier >= 2.0 for earlier, later in zip(starts, starts[1:]))


def test_a_fractional_rate_admits_only_whole_starts_per_second():
    starts = _starts(2.5, 8)
    for window_start in starts:
        in_window = [s for s in starts if window_start <= s < window_start + 1.0]
        assert len(in_window) <= 2.5
    assert starts[:2] == [0.0, 0.0]


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        RateLimiter(rps=0)
