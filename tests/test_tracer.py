"""The traced benchmark path: bench/tracer.py still finds and wraps the layers it times."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

from mdpdetect import binary, general
from mdpdetect.analysis import _MAX_STEPS, _compiled
from mdpdetect.cli import main
from mdpdetect.general import general_apd
from mdpdetect.models import mmdp_to_json, parse_mmdp
from mdpdetect.policy import parse_policy
from mdpdetect.scenarios import RecSysSpec, gen_recsys

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
    for k, mmdp in enumerate((_recursive_instance(), gen_recsys(RecSysSpec(item_count=6, type_count=5, seed=0)))):
        (tmp_path / str(k)).mkdir()
        model = tmp_path / str(k) / "model.json"
        model.write_text(mmdp_to_json(mmdp))
        spans, counters = _traced(
            tmp_path / str(k), "synthesize", str(model), "--out", str(tmp_path / str(k) / "policy.json")
        )
        for name in (
            "general.level", "binary.synthesis", "graphs.mec", "graphs.reach", "graphs.reach_policy"
        ):
            assert spans[name][2] > 0, name  # [total seconds, self seconds, calls]
        for name in ("graphs.mec_input_states", "general.explored_states"):
            assert counters.get(name, 0) > 0, name
        # a level span per subproblem of three or more models; a MEC decomposition per
        # active set decided, each once
        with (
            mock.patch.object(general, "_general_level", wraps=general._general_level) as level,
            mock.patch.object(general, "_level", wraps=general._level) as decide_level,
            mock.patch.object(binary, "_pair_graph", wraps=binary._pair_graph) as decide_pair,
        ):
            general_apd(mmdp)
        keys = [c.args[1:3] for c in level.call_args_list]
        decided = [c.args[2] for c in decide_level.call_args_list + decide_pair.call_args_list]
        assert spans["general.level"][2] == len(keys) == len(set(keys))
        assert spans["graphs.mec"][2] == len(decided) == len(set(decided))
        assert {active for active, _ in keys} <= set(decided)


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


def test_tracer_counts_one_expansion_per_compiled_state_that_plays(tmp_path):
    """``analysis.expand_calls`` reads the states the controller compile expands."""
    model, policy = tmp_path / "model.json", tmp_path / "policy.json"
    model.write_text(mmdp_to_json(_recursive_instance()))
    assert main(["synthesize", str(model), "--out", str(policy)]) == 0
    _, counters = _traced(
        tmp_path, "simulate", str(model), str(policy), "--truth", "1", "--seed", "3",
        "--out", str(tmp_path / "trace.csv"),
    )
    table = _compiled(parse_mmdp(model.read_text()), parse_policy(policy.read_text()))
    plays = [k for k, halt in enumerate(table.halt.tolist()) if halt == _MAX_STEPS]
    assert all(table.errors[k] is None for k in plays)  # no expansion raised, so each is counted
    assert counters["analysis.expand_calls"] == len(plays) > 1
