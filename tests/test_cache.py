from __future__ import annotations

import sys
import threading

from hypothesis import given, strategies as st

from mindpipe.llm.cache import ResponseCache
from mindpipe.llm.completion import CompletionRequest


def _request(**overrides) -> CompletionRequest:
    fields = {
        "model": "m",
        "messages": [{"role": "user", "content": "hello"}],
    }
    fields.update(overrides)
    return CompletionRequest(**fields)


def test_request_defaults_pin_deterministic_parameters():
    request = _request()
    assert request.temperature == 0.0
    assert request.max_tokens == 1000
    assert request.top_p == 1.0
    assert request.stop is None


def test_cache_key_stable_golden():
    # Frozen digest: canonical serialization must never drift across versions.
    assert _request().cache_key() == (
        "dffa427ffa2dc97ffe567e016526421ee3f772e82cda7256f4c67944cd2ca99e"
    )


def test_equal_requests_equal_keys():
    assert _request().cache_key() == _request().cache_key()


def test_any_field_change_changes_key():
    base = _request().cache_key()
    assert _request(temperature=0.5).cache_key() != base
    assert _request(max_tokens=999).cache_key() != base
    assert _request(top_p=0.9).cache_key() != base
    assert _request(stop=["x"]).cache_key() != base
    assert _request(model="other").cache_key() != base
    assert _request(messages=[{"role": "user", "content": "hello!"}]).cache_key() != base


@given(st.text(max_size=50), st.text(max_size=50))
def test_distinct_contents_distinct_keys(a, b):
    key_a = _request(messages=[{"role": "user", "content": a}]).cache_key()
    key_b = _request(messages=[{"role": "user", "content": b}]).cache_key()
    assert (key_a == key_b) == (a == b)


def test_put_get_roundtrip(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    key = _request().cache_key()
    assert cache.get(key) is None
    cache.put(key, "stored text\nwith lines")
    assert cache.get(key) == "stored text\nwith lines"


def test_missing_object_is_miss_and_rewritable(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    key = _request().cache_key()
    cache.put(key, "v1")
    (cache.objects / f"{key}.txt").unlink()
    assert cache.get(key) is None
    cache.put(key, "v2")
    assert cache.get(key) == "v2"


def test_truncated_object_is_miss_and_rewritten(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    key = _request().cache_key()
    cache.put(key, "full response text")
    path = cache.objects / f"{key}.txt"
    path.write_text(path.read_text()[:10], encoding="utf-8")  # crash mid-write
    assert cache.get(key) is None
    cache.put(key, "rewritten")
    assert cache.get(key) == "rewritten"


def test_concurrent_puts_of_one_key_all_succeed(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    key = _request().cache_key()
    writers = 16
    barrier = threading.Barrier(writers)
    errors: list[BaseException] = []

    def write(index: int) -> None:
        barrier.wait()
        for _ in range(50):
            try:
                cache.put(key, f"text {index}")
            except Exception as exc:  # every failure is collected and reported
                errors.append(exc)

    threads = [threading.Thread(target=write, args=(i,)) for i in range(writers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert cache.get(key) in {f"text {i}" for i in range(writers)}
    assert list(cache.objects.iterdir()) == [cache.objects / f"{key}.txt"]
