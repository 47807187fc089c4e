from __future__ import annotations

import logging
import sqlite3
import sys
import threading

from hypothesis import given, strategies as st

from mindpipe.llm.cache import DB_NAME, ResponseCache, read_stats
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


NAMESPACE = "mock:rules"


def test_put_get_roundtrip(tmp_path):
    cache = ResponseCache(tmp_path / "cache", NAMESPACE)
    key = _request().cache_key()
    assert cache.get(key) is None
    cache.put(key, "stored text\nwith lines")
    assert cache.get(key) == "stored text\nwith lines"
    cache.close()
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [DB_NAME]


def test_namespaces_do_not_serve_each_other(tmp_path):
    mock = ResponseCache(tmp_path / "cache", "mock:rules")
    http = ResponseCache(tmp_path / "cache", "http:http://127.0.0.1:1/v1")
    key = _request().cache_key()
    mock.put(key, "from mock")
    assert http.get(key) is None
    http.put(key, "from http")
    assert (mock.get(key), http.get(key)) == ("from mock", "from http")
    mock.close()
    http.close()


def test_deleted_row_is_miss_and_rewritable(tmp_path):
    cache = ResponseCache(tmp_path / "cache", NAMESPACE)
    key = _request().cache_key()
    cache.put(key, "v1")
    conn = sqlite3.connect(cache.path)
    with conn:
        assert conn.execute("DELETE FROM responses").rowcount == 1
    conn.close()
    assert cache.get(key) is None
    cache.put(key, "v2")
    assert cache.get(key) == "v2"
    cache.close()


def test_unreadable_database_is_replaced_by_empty_cache(tmp_path, caplog):
    damages = {
        "garbage": lambda data: b"not a database " * 300,
        "truncated": lambda data: data[: len(data) // 2],
    }
    keys = [_request(max_tokens=n).cache_key() for n in range(1, 201)]
    for name, damage in damages.items():
        directory = tmp_path / name
        cache = ResponseCache(directory, NAMESPACE)
        for key in keys:
            cache.put(key, "response text " * 8)
        cache.close()
        path = directory / DB_NAME
        path.write_bytes(damage(path.read_bytes()))

        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="mindpipe.llm.cache"):
            cache = ResponseCache(directory, NAMESPACE)
        assert "unreadable" in caplog.text, name
        assert cache.get(keys[0]) is None, name
        cache.put(keys[0], "rewritten")
        assert cache.get(keys[0]) == "rewritten", name
        cache.close()
        assert read_stats(directory)[0] == 1, name


def test_concurrent_puts_of_one_key_all_succeed(tmp_path):
    cache = ResponseCache(tmp_path / "cache", NAMESPACE)
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
    cache.close()
    assert read_stats(tmp_path / "cache")[0] == 1


def test_two_caches_on_one_directory_interleave(tmp_path):
    first = ResponseCache(tmp_path / "cache", NAMESPACE)
    second = ResponseCache(tmp_path / "cache", NAMESPACE)
    keys = [_request(max_tokens=n).cache_key() for n in range(1, 101)]
    errors: list[BaseException] = []

    def work(cache: ResponseCache, other: ResponseCache, mine: list[str]) -> None:
        try:
            for key in mine:
                cache.put(key, f"{key} v1")
                assert other.get(key) == f"{key} v1"  # the other connection sees the commit
                other.put(key, f"{key} v2")
                assert cache.get(key) == f"{key} v2"
        except Exception as exc:  # every failure is collected and reported
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(first, second, keys[::2])),
        threading.Thread(target=work, args=(second, first, keys[1::2])),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert all(first.get(key) == second.get(key) == f"{key} v2" for key in keys)
    first.close()
    second.close()
    assert read_stats(tmp_path / "cache")[0] == len(keys)
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [DB_NAME]
