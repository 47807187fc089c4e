"""The benchmark's tracer still finds every layer it wraps by name.

``perfbench.trace.Tracer.install`` replaces functions of the package by
module attribute (``pipeline.execute_stage``, ``pipeline.emit_reports``,
the digests, the ``runfiles`` readers). A function that moves to another
module, or is called through another name, leaves its wrapper timing
nothing, and the benchmark would report that layer as 0. The tracer
patches classes for the life of the process, so it runs in a child.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from conftest import COHORT_SIZE, CORPUS
from mindpipe import pipeline

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys
from pathlib import Path

from perfbench.trace import Tracer

tracer = Tracer()
tracer.install()

from mindpipe import pipeline
from mindpipe.config import load_config

config = load_config(overrides={"pipeline.cohort_size": int(sys.argv[2])})
pipeline.run_all(config, [Path(sys.argv[1])], Path(sys.argv[3]))
spans = [name for name, *_ in tracer.spans.values()]
print(json.dumps({"self": tracer.self_times(), "spans": spans}))
"""


def test_tracer_times_every_layer_it_wraps_by_name(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT), str(ROOT / "src")])}
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(CORPUS), str(COHORT_SIZE), str(tmp_path / "run")],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    traced = json.loads(child.stdout.splitlines()[-1])
    for layer in ("report", "io.read", "digest"):
        assert traced["self"].get(layer, 0) > 0, layer
    stage_spans = Counter(name for name in traced["spans"] if name.startswith("stage."))
    assert stage_spans == {f"stage.{name}": 1 for name in pipeline.STAGE_NAMES}
