"""The traced benchmark path: bench/tracer.py still finds and wraps the layers it times."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from mdpdetect.models import mmdp_to_json

from test_general import _recursive_instance

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_counts_synthesis_layers(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(mmdp_to_json(_recursive_instance()))
    trace = tmp_path / "trace.json"
    env = dict(
        os.environ,
        BENCH_SPAWN_TIME=repr(time.time()),
        PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))),
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(trace), "--",
         "synthesize", str(model), "--out", str(tmp_path / "policy.json")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    spans = json.loads(trace.read_text())["spans"]
    for name in ("general.level", "binary.synthesis", "graphs.mec"):
        assert spans[name][2] > 0, name  # [total seconds, self seconds, calls]
