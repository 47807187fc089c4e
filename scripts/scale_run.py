"""One mock ``run_all`` on an N x corpus, measured in a fresh process.

Usage (from the root of a checkout):

    python3 scripts/scale_run.py --copies 200

The corpus is N renamed copies of the fixture with unique text per copy
(``perfbench.corpus.write_corpus``, seed 7), so no copy is served from
cache by duplication; ``pipeline.cohort_size`` is 12 x N, so every copy's
authors are in the cohort. The run is ``perfbench/child.py`` in a new
interpreter: the mock backend at concurrency 1, one cold ``run_all`` and
one no-op rerun, so its peak RSS is its own and no import or warm state
comes from this one. Prints one JSON line: wall time of the cold run,
peak RSS, the bytes the run directory takes on disk, and the bytes of each
of its top-level entries (``logs``, ``cache``, ``reports``, each stage
file and the manifest). Bytes are allocated blocks, as
``perfbench.child.disk_usage`` counts them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.child import disk_usage  # noqa: E402
from perfbench.corpus import write_corpus  # noqa: E402

FIXTURE_COHORT = 12
SEED = 7


def measure(copies: int, work: Path) -> dict:
    run_dir = work / "run"
    job = {
        "root": str(ROOT),
        "corpus": str(write_corpus(ROOT, work / "corpus.jsonl", copies, SEED)),
        "run_dir": str(run_dir),
        "overrides": {"pipeline.cohort_size": FIXTURE_COHORT * copies},
        "trace": False,
        "time_noop": False,
    }
    child = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(job)],
        capture_output=True, text=True, check=False,
    )
    lines = child.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"ok": False, "error": child.stderr.strip()}
    if not result["ok"]:
        raise SystemExit(f"run_all failed in the child process: {result['error']}")
    return {
        "copies": copies,
        "wall_s": round(result["wall_s"], 3),
        "peak_rss_mb": round(result["peak_rss_kib"] * 1024 / 1e6, 3),
        "run_dir_mb": round(result["run_dir_bytes"] / 1e6, 3),
        "allocated_bytes": {
            path.name: disk_usage(path)[1] if path.is_dir() else path.lstat().st_blocks * 512
            for path in sorted(run_dir.iterdir())
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--copies", type=int, required=True, help="corpus scale N (>= 1)")
    args = parser.parse_args()
    if args.copies < 1:
        parser.error("--copies must be at least 1")
    work = Path(tempfile.mkdtemp(prefix="mindpipe-scale-"))
    try:
        result = measure(args.copies, work)
    finally:
        shutil.rmtree(work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
