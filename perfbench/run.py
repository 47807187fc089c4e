"""mindpipe benchmark: ``run_all`` end to end on three workloads, plus a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cold_mock --seed 1 --seconds 25 --trace 0

Workloads:
    cold_mock   fresh run dir and cache, mock backend, concurrency 1: every
                per-copy prompt misses, so cache writes and the mock dominate
    warm_cache  same corpus, fresh run dir, ``paths.cache_dir`` pointing at a
                cache filled during set-up: hit ratio 1.0, no backend, no puts
    http_stub   ``backend.kind: http`` against a localhost stub process with
                fixed latency and a fixed share of 429s, concurrency 2 and an
                ``rps`` that binds

First, untimed, a 1x mock run of the fixture corpus gives the expected
per-copy stage counters, and an N x mock run the reference outputs. The
set-up a user of the workload pays for is then timed as ``setup_s``:
writing the scaled corpus, filling the warm cache (``warm_cache``) and
starting the stub (``http_stub``). It is the median of 15 set-ups, one
before the measuring window and the others spread over it.
Until ``--seconds`` have passed, each sample runs a cold ``run_all`` and
no-op reruns in a fresh child process, and checks its outputs against the
reference: stage files byte-identical, reports identical up to their
cache counters, every stage counter equal to N x the 1x counter, no
generative backend call about a quarantined author, and nothing re-run by
the no-op rerun. ``--trace 1`` alternates untraced and traced samples and
reports per-layer self times instead (see ``perfbench/trace.py``).
If fewer than four samples pass, the run is not correct and reports no
metrics.

Earlier stdout lines are a readable summary; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.corpus import FIXTURE, write_corpus  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 15
MIN_SAMPLES = 4
CHILD_TIMEOUT_S = 120
COHORT_PER_COPY = 12
# counters that do not scale with the copy count: cache hits depend on
# prompts shared across copies and on in-flight timing; one run report per run
NOT_PER_COPY = {"cache_hits", "cache_misses", "run_report"}
SCREENING_TEMPLATES = {"relevance", "safety"}  # every other template is generative
HTTP_RPS = 80.0
HTTP_CONCURRENCY = 2
API_KEY_ENV = "MINDPIPE_API_KEY"
CORPUS_NAME = "corpus.jsonl"


@dataclass(frozen=True)
class Workload:
    copies: int
    shared_cache: bool = False
    http: bool = False


WORKLOADS = {
    "cold_mock": Workload(copies=3),
    "warm_cache": Workload(copies=3, shared_cache=True),
    "http_stub": Workload(copies=1, http=True),
}


def metric_units(section: str) -> dict[str, str]:
    """Metric names and units of one section of BENCHMARK.json, in order."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _hash(items: list[tuple[str, bytes]]) -> str:
    digest = hashlib.sha256()
    for name, data in items:
        digest.update(name.encode("utf-8") + b"\0" + data + b"\0")
    return digest.hexdigest()


def stage_files_digest(run_dir: Path) -> str:
    skip = {"run_manifest.json", ".lock"}
    files = sorted(p for p in run_dir.iterdir() if p.is_file() and p.name not in skip)
    return _hash([(p.name, p.read_bytes()) for p in files])


def _drop_cache_keys(value):
    if isinstance(value, dict):
        return {k: _drop_cache_keys(v) for k, v in value.items() if not k.startswith("cache")}
    if isinstance(value, list):
        return [_drop_cache_keys(v) for v in value]
    return value


def reports_digest(run_dir: Path) -> str:
    """Digest of reports/, with the run report's cache counters left out.

    Hit counts differ between a cold and a warm run, and at concurrency 2
    between runs, while everything else in the reports must not.
    """
    reports = run_dir / "reports"
    items = []
    for path in sorted(p for p in reports.rglob("*") if p.is_file()):
        name = str(path.relative_to(reports))
        data = path.read_bytes()
        if name == "run_report.json":
            data = json.dumps(_drop_cache_keys(json.loads(data)), sort_keys=True).encode()
        elif name == "run_report.md":
            lines = data.decode("utf-8").splitlines()
            data = "\n".join(
                ln for ln in lines if not re.search(r"cache|hits:", ln, re.IGNORECASE)
            ).encode("utf-8")
        items.append((name, data))
    return _hash(items)


def safety_violations(run_dir: Path) -> int:
    """Generative backend calls that involve an escalated (quarantined) author."""
    escalated = {
        row["author"]
        for row in _read_jsonl(run_dir / "recommendations.jsonl")
        if row["status"] == "escalation"
    }
    violations = 0
    for log in sorted((run_dir / "logs").glob("backend_*.jsonl")):
        for record in _read_jsonl(log):
            if record["template"] in SCREENING_TEMPLATES:
                continue
            tags = record["tags"]
            involved = {tags.get("author"), tags.get("post_author"), tags.get("comment_author")}
            violations += bool(involved & escalated)
    return violations


def per_copy_counters(stats: dict) -> dict:
    return {
        stage: {k: v for k, v in counters.items() if k not in NOT_PER_COPY}
        for stage, counters in stats.items()
    }


@dataclass
class Reference:
    expected_counters: dict
    stage_digest: str
    report_digest: str
    lines: int


def check_run(run_dir: Path, result: dict, ref: Reference, workload: Workload) -> list[str]:
    problems = []
    if result["noop_reran"]:
        problems.append(f"no-op rerun re-executed {result['noop_reran']} stage(s)")
    if per_copy_counters(result["stats"]) != ref.expected_counters:
        problems.append("stage counters differ from N x the 1x counters")
    if stage_files_digest(run_dir) != ref.stage_digest:
        problems.append("stage files differ from the reference run")
    if reports_digest(run_dir) != ref.report_digest:
        problems.append("reports differ from the reference run")
    if workload.shared_cache and result["cache"]["misses"]:
        problems.append(f"{result['cache']['misses']} cache misses on a warm cache")
    violations = safety_violations(run_dir)
    if violations:
        problems.append(f"{violations} generative call(s) about quarantined authors")
    return problems


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


class Stub:
    """The HTTP stub server, in its own process; stopped by closing its stdin."""

    def __init__(self, root: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--root", str(root)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError(f"stub failed to start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def take_stats(self) -> dict:
        with urllib.request.urlopen(f"{self.url}/stats", timeout=30) as response:
            return json.loads(response.read())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Setup:
    corpus: Path
    cache_dir: Path
    stub: Stub | None = None


def _mock_run(corpus: Path, run_dir: Path, copies: int, cache_dir: Path | None):
    from mindpipe import pipeline
    from mindpipe.config import load_config

    overrides = {"pipeline.cohort_size": COHORT_PER_COPY * copies}
    if cache_dir is not None:
        overrides["paths.cache_dir"] = str(cache_dir)
    manifest = pipeline.run_all(load_config(overrides=overrides), [corpus], run_dir)
    return {name: record["stats"] for name, record in manifest["stages"].items()}


def make_reference(root: Path, work: Path, workload: Workload, seed: int,
                   corpus: Path) -> Reference:
    """N x the per-copy counters of a 1x mock run, and the outputs of an N x mock run.

    The N x corpus goes to ``corpus``, the path the set-ups write it to,
    because rejected-line records in the stage files name the corpus file.
    """
    one = write_corpus(root, work / "corpus_1x.jsonl", 1, seed)
    stats_1x = _mock_run(one, work / "ref_1x", 1, None)
    expected = {
        stage: {k: v * workload.copies for k, v in counters.items()}
        for stage, counters in per_copy_counters(stats_1x).items()
    }
    write_corpus(root, corpus, workload.copies, seed)
    ref_dir = work / "ref"
    stats = _mock_run(corpus, ref_dir, workload.copies, None)
    if per_copy_counters(stats) != expected:
        raise RuntimeError("reference run: stage counters differ from N x the 1x counters")
    if safety_violations(ref_dir):
        raise RuntimeError("reference run: generative calls about quarantined authors")
    return Reference(expected, stage_files_digest(ref_dir), reports_digest(ref_dir),
                     stats["ingest"]["lines"])


def set_up(root: Path, work: Path, workload: Workload, seed: int, ref: Reference) -> Setup:
    """What a user of the workload pays for: the corpus, the warm cache, the stub."""
    work.mkdir(parents=True)
    setup = Setup(write_corpus(root, work / CORPUS_NAME, workload.copies, seed), work / "cache")
    if workload.shared_cache:
        stats = _mock_run(setup.corpus, work / "fill", workload.copies, setup.cache_dir)
        if per_copy_counters(stats) != ref.expected_counters:
            raise RuntimeError("cache fill: stage counters differ from N x the 1x counters")
    if workload.http:
        setup.stub = Stub(root)
    return setup


def tear_down(setup: Setup | None) -> None:
    if setup is not None and setup.stub is not None:
        setup.stub.stop()


def timed_set_up(root: Path, work: Path, workload: Workload, seed: int, ref: Reference,
                 previous: Setup | None) -> tuple[Setup, float]:
    """Replace ``previous`` with a fresh set-up; return it and its duration."""
    tear_down(previous)
    shutil.rmtree(work, ignore_errors=True)
    gc.collect()  # the previous set-up's garbage is not this one's work
    started = time.perf_counter()
    setup = set_up(root, work, workload, seed, ref)
    return setup, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------


def peak_per_second(arrivals: list[float]) -> int:
    """Most arrivals in any one-second window."""
    times = sorted(arrivals)
    return max((bisect.bisect_left(times, t + 1.0) - i for i, t in enumerate(times)), default=0)


def run_sample(root: Path, work: Path, index: int, workload: Workload, setup: Setup,
               ref: Reference, traced: bool, time_noop: bool) -> dict:
    run_dir = work / f"run-{index}"
    overrides = {"pipeline.cohort_size": COHORT_PER_COPY * workload.copies}
    if workload.shared_cache:
        overrides["paths.cache_dir"] = str(setup.cache_dir)
    env = dict(os.environ)
    if workload.http:
        overrides.update({
            "backend.kind": "http",
            "backend.base_url": f"{setup.stub.url}/v1",
            "limits.rps": HTTP_RPS,
            "limits.concurrency": HTTP_CONCURRENCY,
        })
        env[API_KEY_ENV] = "perfbench"
    job = {"root": str(root), "corpus": str(setup.corpus), "run_dir": str(run_dir),
           "overrides": overrides, "trace": traced, "time_noop": time_noop}
    try:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(job)],
                capture_output=True, text=True, env=env, cwd=root, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            result = {"ok": False, "error": f"run exceeded {CHILD_TIMEOUT_S} s"}
        else:
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"ok": False, "error": proc.stderr[-2000:]}
            if not result["ok"]:
                sys.stderr.write(proc.stderr[-4000:])
        if workload.http:
            result["stub"] = setup.stub.take_stats()
        if result["ok"]:
            result["problems"] = check_run(run_dir, result, ref, workload)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result["traced"] = traced
    return result


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least 10 samples beyond it, if above the median."""
    n = len(values)
    rank = n - 10
    if rank < (n + 1) / 2:
        return f"no percentile above the median has 10 samples beyond it (n={n})"
    return f"p{100 * rank / n:.0f} {sorted(values)[rank - 1]:.4f} (n={n})"


def _median(values: list[float]) -> float:
    if not values:
        raise ValueError("a metric has no samples")
    return statistics.median(values)


def _percentile(values: list[float], q: float) -> float:
    if not values:
        raise ValueError("a metric has no samples")
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def noop_rerun_s(results: list[dict]) -> float:
    """Median over every no-op rerun of the given samples, pooled."""
    return _median([t for r in results for t in r["noop_times"]])


def end_to_end(good: list[dict], setup_times: list[float]) -> dict:
    return {
        "wall_s": _median([r["wall_s"] for r in good]),
        "setup_s": _median(setup_times),
        "calls_per_s": _median(
            [(r["cache"]["hits"] + r["cache"]["misses"]) / r["wall_s"] for r in good]
        ),
        "peak_rss_mb": _median([r["peak_rss_kib"] * 1024 / 1e6 for r in good]),
        "run_dir_mb": _median([r["run_dir_bytes"] / 1e6 for r in good]),
    }


HTTP_METRICS = ("http.complete.p50_ms", "http.complete.p99_ms", "http.attempts", "http.429",
                "http.retry_gap_ms", "http.peak_starts_per_s")


def per_layer(good: list[dict], lines: int, names, workload: Workload) -> dict:
    traced = [r for r in good if r["traced"]]
    plain = [r for r in good if not r["traced"]]
    layers = [r["layers"] for r in traced]
    out = {}
    for name in names:
        if name in layers[0]:
            out[name] = _median([layer[name] for layer in layers])
    if workload.http:
        http_ms = [ms for layer in layers for ms in layer["http.complete_ms"]]
        out["http.complete.p50_ms"] = _percentile(http_ms, 0.50)
        out["http.complete.p99_ms"] = _percentile(http_ms, 0.99)
        stubs = [r["stub"] for r in traced]
        out["http.attempts"] = _median([s["attempts"] for s in stubs])
        out["http.429"] = _median([s["rejected_429"] for s in stubs])
        out["http.retry_gap_ms"] = _median([g * 1000 for s in stubs for g in s["retry_gaps"]])
        out["http.peak_starts_per_s"] = _median([peak_per_second(s["arrivals"]) for s in stubs])
    else:
        out.update(dict.fromkeys(HTTP_METRICS, 0))  # no HTTP calls on the mock backend
    out["ingest.lines_per_s"] = _median(
        [lines / layer["stage.ingest.incl_s"] for layer in layers if layer["stage.ingest.incl_s"]]
    )
    out["noop_rerun_s"] = noop_rerun_s(plain)
    out["traced.wall_s"] = _median([r["wall_s"] for r in traced])
    out["untraced.wall_s"] = _median([r["wall_s"] for r in plain])
    out["trace.overhead_s"] = out["traced.wall_s"] - out["untraced.wall_s"]
    return out


def summary_lines(name: str, seed: int, results: list[dict], good: list[dict],
                  setup_times: list[float]) -> list[str]:
    failed = len(results) - len(good)
    plain = [r for r in good if not r["traced"]]
    walls = [r["wall_s"] for r in plain]
    hits = sorted({r["cache"]["hits"] for r in good})
    lines = [
        f"workload {name} seed {seed} copies {WORKLOADS[name].copies}: "
        f"{len(results)} runs, {failed} failed",
        f"  failed_ratio {failed / len(results):.4f} ratio",
        f"  setup_s runs {', '.join(f'{t:.3f}' for t in setup_times)} s",
    ]
    if plain:
        lines += [
            f"  wall_s median {_median(walls):.4f} s, tail {tail_percentile(walls)}",
            f"  wall_s runs {', '.join(f'{w:.3f}' for w in walls)} s",
            f"  noop_rerun_s {noop_rerun_s(plain):.5f} s",
            f"  cache hits per run seen: {hits}",
        ]
    for result in results:
        if not result["ok"]:
            lines.append(f"  run failed: {result['error'][:300]}")
        elif result["problems"]:
            lines.append(f"  output check failed: {'; '.join(result['problems'])}")
    return lines


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mindpipe" / "pipeline.py").is_file() or not (root / FIXTURE).is_file():
        print(f"error: run from a mindpipe checkout (src/mindpipe and {FIXTURE})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)

    setup_dir = work / "setup"
    setup = None
    # everything, the untimed reference included, ends by the deadline, so
    # that a run takes about --seconds whatever the workload
    deadline = time.perf_counter() + args.seconds
    try:
        # untimed: the reference only serves the output checks
        ref = make_reference(root, work / "reference", workload, args.seed,
                             setup_dir / CORPUS_NAME)
        setup, elapsed = timed_set_up(root, setup_dir, workload, args.seed, ref, setup)
        setup_times = [elapsed]
        results = []
        durations = []
        window_start = time.perf_counter()
        # start a sample only if it and the set-ups still due end before the deadline
        while len(results) < MIN_SAMPLES or (
            time.perf_counter() + statistics.median(durations)
            + (SETUP_REPEATS - len(setup_times)) * statistics.median(setup_times) <= deadline
        ):
            # the host has slow and fast phases of 10 s and more: spread the
            # set-ups over the window rather than timing them back to back
            elapsed_share = (time.perf_counter() - window_start) / (deadline - window_start)
            while len(setup_times) < SETUP_REPEATS and elapsed_share * SETUP_REPEATS >= len(setup_times):
                setup, elapsed = timed_set_up(root, setup_dir, workload, args.seed, ref, setup)
                setup_times.append(elapsed)
            traced = bool(args.trace) and len(results) % 2 == 1
            time_noop = bool(args.trace) and not traced  # noop_rerun_s is a per-layer metric
            started = time.perf_counter()
            results.append(
                run_sample(root, work, len(results), workload, setup, ref, traced, time_noop)
            )
            durations.append(time.perf_counter() - started)
        while len(setup_times) < SETUP_REPEATS:
            setup, elapsed = timed_set_up(root, setup_dir, workload, args.seed, ref, setup)
            setup_times.append(elapsed)
    finally:
        tear_down(setup)
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    good = [r for r in results if r["ok"] and not r["problems"]]
    for line in summary_lines(args.workload, args.seed, results, good, setup_times):
        print(line)
    # a sample that raised counts in ``failed``; one that ran and failed its
    # output check makes the whole run incorrect
    correct = not any(r.get("problems") for r in results)
    kinds = {r["traced"] for r in good}
    if len(good) < MIN_SAMPLES or (args.trace and len(kinds) < 2):
        print(f"error: {len(good)} of {len(results)} samples passed; {MIN_SAMPLES} are needed, "
              f"both traced and untraced ones with --trace 1", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(results),
                          "failed": len(results) - len(good), "metrics": {}}))
        return 1
    if args.trace:
        units = metric_units("per_layer")
        values = per_layer(good, ref.lines, units, workload)
    else:
        units = metric_units("end_to_end")
        values = end_to_end(good, setup_times)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": len(results) - len(good), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
