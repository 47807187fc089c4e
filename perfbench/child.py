"""One measured ``run_all`` in a fresh process: a cold run, then no-op reruns.

Usage: ``python3 perfbench/child.py '<job json>'``. The job names the
checkout root, corpus, run directory, config overrides, whether to trace
and whether to time the no-op rerun. The last stdout line is a JSON result. A fresh process
per run is the only way to get a per-run peak RSS (``ru_maxrss`` only
grows), and it keeps imports and warm state from leaking between runs.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

# a no-op rerun takes milliseconds: to time it, repeat it for a while; to
# check that it re-runs nothing, once is enough
NOOP_MIN_REPEATS = 5
NOOP_MIN_S = 0.25


def disk_usage(path: Path) -> tuple[int, int]:
    """(file count, allocated bytes) of everything under path."""
    files = 0
    allocated = 0
    for item in path.rglob("*"):
        info = item.lstat()
        allocated += info.st_blocks * 512
        files += item.is_file()
    return files, allocated


def _layer_metrics(tracer, wall_s: float) -> dict:
    self_s = tracer.self_times()
    counts = tracer.counts
    stages = tracer.inclusive("stage.")
    metrics = {f"{name}.s": self_s.get(name, 0.0) for name in stages}
    metrics["stage.cover"] = sum(stages.values()) / wall_s
    for name in ("ask", "parse", "render", "cache_key", "cache.get", "cache.put",
                 "mock.complete", "http.complete", "io.read", "io.write", "report"):
        key = "ask.self_s" if name == "ask" else f"{name}.s"
        metrics[key] = self_s.get(name, 0.0)
    metrics["ratelimit.wait_s"] = sum(tracer.durations.get("ratelimit.wait", []))
    metrics["digest.cold_s"] = sum(tracer.durations.get("digest", []))
    for name in ("ask.calls", "reask.count", "parse_fail.count", "cache.get.calls",
                 "cache.put.calls", "cache.put.dup", "io.bytes_written"):
        metrics[name] = counts.get(name, 0)
    asks = counts.get("ask.calls", 0)
    metrics["cache.hit_ratio"] = counts.get("cache.get.hits", 0) / asks if asks else 0.0
    metrics["http.complete_ms"] = [d * 1000 for d in tracer.durations.get("http.complete", [])]
    metrics["stage.ingest.incl_s"] = stages.get("stage.ingest", 0.0)
    return metrics


def run(job: dict) -> dict:
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    from mindpipe import pipeline
    from mindpipe.config import load_config

    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(root))
        from perfbench.trace import Tracer

        tracer = Tracer()
        tracer.install()

    config = load_config(overrides=job["overrides"])
    run_dir = Path(job["run_dir"])
    corpus = [Path(job["corpus"])]

    started = time.perf_counter()
    manifest = pipeline.run_all(config, corpus, run_dir)
    wall_s = time.perf_counter() - started
    layers = _layer_metrics(tracer, wall_s) if tracer else {}

    executed = len(manifest["stage_order"])
    gc.collect()  # a real rerun is a fresh process, without the cold run's garbage
    repeats, min_s = (NOOP_MIN_REPEATS, NOOP_MIN_S) if job["time_noop"] else (1, 0.0)
    noop_times = []
    while len(noop_times) < repeats or sum(noop_times) < min_s:
        if tracer:
            tracer.reset()
        started = time.perf_counter()
        rerun = pipeline.run_all(config, None, run_dir)
        noop_times.append(time.perf_counter() - started)
    if tracer:
        layers["digest.s"] = sum(tracer.durations.get("digest", []))
        layers["digest.bytes"] = tracer.counts.get("digest.bytes", 0)

    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    _, run_dir_bytes = disk_usage(run_dir)
    if tracer:
        layers["cache.files"], layers["cache.bytes"] = disk_usage(config.cache_dir(run_dir))
        layers["report.files"], _ = disk_usage(run_dir / "reports")
    return {
        "ok": True,
        "wall_s": wall_s,
        "noop_times": noop_times,
        "noop_reran": len(rerun["stage_order"]) - executed,
        "peak_rss_kib": peak_rss_kib,
        "run_dir_bytes": run_dir_bytes,
        "stats": {name: record.get("stats", {}) for name, record in manifest["stages"].items()},
        "cache": manifest["cache"],
        "layers": layers,
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    try:
        result = run(job)
    except Exception as exc:  # the parent counts the run as failed
        traceback.print_exc()
        result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
