"""In-memory span tracing of mindpipe's layers, installed by wrapping at runtime.

Nothing in the package is edited: ``Tracer.install`` replaces public
functions and methods with timing wrappers in this process only. Each span
records its name, start, end and parent. The parent is the innermost open
span of the same thread, or, for the first span of a ``_map_items`` worker
thread, the stage span open at the time, so spans nest correctly at
``concurrency > 1``. A span's self time is its duration minus the union of
its children's intervals (children on two threads may overlap).
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stage_span: int | None = None
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.spans: dict[int, tuple[str, float, float, int | None]] = {}
            self.counts: dict[str, float] = defaultdict(float)
            self.durations: dict[str, list[float]] = defaultdict(list)
            self.put_keys: set[str] = set()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def span(self, name: str, fn, *args, **kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._stage_span
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans[span_id] = (name, start, end, parent)
                self.durations[name].append(end - start)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from mindpipe import pipeline, runfiles
        from mindpipe.llm import session as session_mod
        from mindpipe.llm.cache import ResponseCache
        from mindpipe.llm.completion import CompletionRequest
        from mindpipe.llm.http_backend import HttpBackend
        from mindpipe.llm.mock_backend import MockBackend
        from mindpipe.llm.ratelimit import RateLimiter

        tracer = self

        def wrap(owner, attr: str, name: str | None, after=None) -> None:
            """Time calls as spans called ``name`` (None: count only), then call after."""
            original = getattr(owner, attr)

            @functools.wraps(original)
            def traced(*args, **kwargs):
                if name is None:
                    result = original(*args, **kwargs)
                else:
                    result = tracer.span(name, original, *args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                return result

            setattr(owner, attr, traced)

        original_execute = pipeline.execute_stage

        @functools.wraps(original_execute)
        def execute_stage(name, *args, **kwargs):
            def run():
                stack = tracer._local.stack
                previous, tracer._stage_span = tracer._stage_span, stack[-1]
                try:
                    return original_execute(name, *args, **kwargs)
                finally:
                    tracer._stage_span = previous

            return tracer.span(f"stage.{name}", run)

        pipeline.execute_stage = execute_stage

        def count_ask(_result, *_args, reask=False, **_kwargs):
            tracer.count("ask.calls")
            if reask:
                tracer.count("reask.count")

        def count_parse(result, *_args, **_kwargs):
            if result[1] is not None:
                tracer.count("parse_fail.count")

        def count_get(result, *_args, **_kwargs):
            tracer.count("cache.get.calls")
            if result is not None:
                tracer.count("cache.get.hits")

        def count_put(_result, _cache, key, *_args, **_kwargs):
            with tracer._lock:
                tracer.counts["cache.put.calls"] += 1
                if key in tracer.put_keys:
                    tracer.counts["cache.put.dup"] += 1
                tracer.put_keys.add(key)

        def count_written(_result, path, *_args, **_kwargs):
            tracer.count("io.bytes_written", os.stat(path).st_size)

        def count_digested(_result, paths, *_args, **_kwargs):
            tracer.count("digest.bytes", sum(os.stat(p).st_size for p in paths))

        wrap(session_mod.LlmSession, "ask", "ask", count_ask)
        wrap(session_mod.LlmSession, "ask_parsed", "parse", count_parse)
        wrap(session_mod, "render", "render")  # session imports render by name
        wrap(CompletionRequest, "cache_key", "cache_key")
        wrap(ResponseCache, "get", "cache.get", count_get)
        wrap(ResponseCache, "put", "cache.put", count_put)
        wrap(MockBackend, "complete", "mock.complete")
        wrap(HttpBackend, "complete", "http.complete")
        wrap(RateLimiter, "__enter__", "ratelimit.wait")
        wrap(runfiles, "read_jsonl", "io.read")
        wrap(runfiles, "read_json", "io.read")
        wrap(runfiles, "write_jsonl", "io.write", count_written)
        wrap(runfiles, "write_json", "io.write", count_written)
        wrap(pipeline, "emit_reports", "report")  # pipeline imports it by name
        wrap(pipeline, "stage_input_digest", "digest")
        wrap(pipeline, "stage_output_digest", "digest")
        wrap(pipeline, "_digest_paths", None, count_digested)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _name, start, end, parent in self.spans.values():
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, float] = defaultdict(float)
        for span_id, (name, start, end, _parent) in self.spans.items():
            covered = _union_length(children.get(span_id, []), start, end)
            totals[name] += (end - start) - covered
        return totals

    def inclusive(self, prefix: str) -> dict[str, float]:
        """Total duration per span name for names starting with prefix."""
        return {
            name: sum(values) for name, values in self.durations.items() if name.startswith(prefix)
        }


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total
