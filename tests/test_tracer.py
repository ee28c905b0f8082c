"""The traced benchmark path: bench/tracer.py still finds and wraps the layers it times."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from mdpdetect.cli import main
from mdpdetect.models import mmdp_to_json

from test_general import _recursive_instance

ROOT = Path(__file__).resolve().parents[1]


def _traced(tmp_path, *cli_args):
    """Run one CLI command under bench/tracer.py; return its spans and counters."""
    trace = tmp_path / "trace.json"
    env = dict(
        os.environ,
        BENCH_SPAWN_TIME=repr(time.time()),
        PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))),
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(trace), "--", *cli_args],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(trace.read_text())
    return result["spans"], result["counters"]


def test_tracer_counts_synthesis_layers(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(mmdp_to_json(_recursive_instance()))
    spans, _ = _traced(tmp_path, "synthesize", str(model), "--out", str(tmp_path / "policy.json"))
    for name in ("general.level", "binary.synthesis", "graphs.mec"):
        assert spans[name][2] > 0, name  # [total seconds, self seconds, calls]


def test_tracer_counts_the_bc_dynamic_program(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(mmdp_to_json(_recursive_instance()))
    policy = tmp_path / "policy.json"
    assert main(["synthesize", str(model), "--out", str(policy)]) == 0
    spans, counters = _traced(
        tmp_path, "bc", str(model), str(policy), "--horizon", "10", "--out", str(tmp_path / "bc.csv")
    )
    assert spans["analysis.bc_curve"][2] > 0
    assert counters["analysis.expand_calls"] > 0
