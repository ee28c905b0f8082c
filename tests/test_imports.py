"""What importing the package loads, and what the package itself may import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(script):
    """Run ``script`` in a new interpreter that imports the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_the_package_lists_every_public_name_without_loading_numpy():
    _fresh("""
import sys
import mdpdetect

assert "numpy" not in sys.modules
assert len(mdpdetect.__all__) == 60 and set(mdpdetect.__all__) <= set(dir(mdpdetect))
assert "numpy" not in sys.modules
for name in mdpdetect.__all__:
    getattr(mdpdetect, name)
assert "numpy" in sys.modules
""")


@pytest.mark.parametrize("first", [
    "import mdpdetect.simulate",
    "from mdpdetect.simulate import Trace",
    "import mdpdetect.analysis",
    "from mdpdetect import simulate",
    "import mdpdetect.cli; mdpdetect.cli.batch_summary",
])
def test_simulate_stays_the_function_whatever_is_imported_first(first):
    _fresh(f"""
import sys, types
{first}
import mdpdetect

assert not isinstance(mdpdetect.simulate, types.ModuleType)
assert mdpdetect.simulate is sys.modules["mdpdetect.simulate"].simulate
assert isinstance(mdpdetect.analysis, types.ModuleType)
from mdpdetect import *
assert simulate is mdpdetect.simulate and not isinstance(trial_rng, types.ModuleType)
""")


def test_synthesis_and_elimination_by_support_load_no_numpy():
    # synthesis reads the row table's support view; only its run-time view
    # needs numpy, and run time leaves the support view unbuilt
    _fresh("""
import sys
from mdpdetect.general import general_apd
from mdpdetect.models import mmdp_to_json, parse_mmdp
from mdpdetect.policy import members
from mdpdetect.scenarios import gen_grid, grid_spec_from_json

three = parse_mmdp({"states": ["x", "y"], "actions": {"x": ["a"], "y": ["b"]}, "initial": "x", "models": [
    {"delta": [{"from": "x", "action": "a", "to": t, "p": p} for t, p in row]
     + [{"from": "y", "action": "b", "to": "x", "p": 1.0}]}
    for row in ([("x", 0.5), ("y", 0.5)], [("x", 0.2), ("y", 0.8)], [("x", 1.0)])
]})
assert general_apd(three).exists
mmdp = gen_grid(grid_spec_from_json({"width": 3, "height": 3, "obstacles": [], "goal_region": [[2, 2]]}))
policy = general_apd(mmdp).policy
rows = mmdp.rows
for built in (three.rows, rows):
    assert "groups" in vars(built) and "lik" not in vars(built) and "cdf" not in vars(built)
i, j = rows.index["c0_0"], rows.index["c1_0"]
(groups,) = [g for r, g in rows.groups[i] if rows.actions[r] == "move"]
(mask,) = [mask for mask, bits in groups if bits >> j & 1]
assert members(mask, (1, 2)) == (1, 2)
assert "numpy" not in sys.modules
rows.lik
assert "numpy" in sys.modules

from mdpdetect.analysis import pairwise_bc_curve
from mdpdetect.simulate import monte_carlo_error, simulate
for run in (
    lambda m: simulate(m, 1, policy, 0),
    lambda m: monte_carlo_error(m, policy, 3, 100, 0),
    lambda m: pairwise_bc_curve(m, policy, 3),
):
    fresh = parse_mmdp(mmdp_to_json(mmdp))
    run(fresh)
    assert "lik" in vars(fresh.rows) and "groups" not in vars(fresh.rows)
""")


def test_runtime_loads_no_numpy_random_and_warns_nothing_at_edge_seeds():
    # the lockstep kernel computes the Philox streams itself; key words wrap silently
    _fresh("""
import sys
import warnings
from mdpdetect.binary import bi_apd
from mdpdetect.scenarios import gen_grid, grid_spec_from_json
from mdpdetect.simulate import batch_summary, monte_carlo_error, simulate

mmdp = gen_grid(grid_spec_from_json({"width": 3, "height": 3, "obstacles": [], "goal_region": [[2, 2]]}))
policy = bi_apd(mmdp).policy
warnings.simplefilter("error")
for seed in (0, 2**64 - 1, -1):
    simulate(mmdp, 2, policy, seed)
    batch_summary(mmdp, policy, 5, seed)
    monte_carlo_error(mmdp, policy, 4, 100, seed)
assert "numpy" in sys.modules and "numpy.random" not in sys.modules
""")


@pytest.fixture(scope="module")
def command_files(tmp_path_factory):
    """A three-model file with its policy, a grid spec and a recommender spec."""
    from mdpdetect.cli import main
    from mdpdetect.models import mmdp_to_json

    from conftest import random_multi_mmdp, rng_for

    work = tmp_path_factory.mktemp("commands")
    model, policy, spec = work / "model.json", work / "policy.json", work / "grid-spec.json"
    model.write_text(mmdp_to_json(random_multi_mmdp(rng_for(0), n_models=3, n_states=4)))
    assert main(["synthesize", str(model), "--out", str(policy)]) == 0
    spec.write_text('{"width": 3, "height": 2, "goal_region": [[2, 1]]}')
    recsys = work / "recsys-spec.json"
    recsys.write_text('{"item_count": 4, "type_count": 3, "seed": 0}')
    return {
        "model": str(model), "policy": str(policy), "spec": str(spec), "recsys": str(recsys),
        "out": str(work / "out"),
    }


_SYNTHESIS = ("mdpdetect.binary", "mdpdetect.general")
_SCENARIOS = ("mdpdetect.scenarios",)
_RUN_TIME = ("mdpdetect.analysis", "mdpdetect.simulate")
# per command (a test id: the first word is the command): its arguments, and
# the modules it must leave unloaded
_COMMAND_IMPORTS = {
    "simulate": (["{model}", "{policy}", "--trials", "5", "--seed", "1"], (*_SYNTHESIS, *_SCENARIOS)),
    "bc": (["{model}", "{policy}", "--horizon", "4"], (*_SYNTHESIS, *_SCENARIOS)),
    "gen": (["grid", "{spec}"], ("numpy", *_SYNTHESIS, *_RUN_TIME)),
    # the profile draws with numpy but simulates nothing
    "gen recsys": (["recsys", "{recsys}"], (*_SYNTHESIS, *_RUN_TIME)),
    "validate": (["{model}"], ("numpy", *_SYNTHESIS, *_SCENARIOS)),
    "classify": (["{model}"], ("numpy", *_SCENARIOS)),
    "mec": (["{model}"], ("numpy", *_SCENARIOS)),
    "synthesize": (["{model}"], ("numpy", *_SCENARIOS)),
}


@pytest.mark.parametrize("command", sorted(_COMMAND_IMPORTS))
def test_each_command_imports_only_what_it_runs(command_files, command):
    args, absent = _COMMAND_IMPORTS[command]
    argv = [command.split()[0], *(arg.format(**command_files) for arg in args)]
    if command != "validate":
        argv += ["--out", command_files["out"]]
    _fresh(f"""
import sys
from mdpdetect.cli import main

assert main({argv!r}) == 0
loaded = sorted(set({absent!r}) & set(sys.modules))
assert not loaded, loaded
""")


def _imports(tree):
    """``(node, at_import_time)`` for every import of ``tree``; function bodies run later."""
    stack = [(node, True) for node in tree.body]
    while stack:
        node, now = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, now
        inner = now and not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))


def test_the_package_imports_only_the_standard_library_and_numpy():
    # scipy and others may be installed, but numpy is the one declared dependency
    eager_numpy = set()
    for path in sorted((SRC / "mdpdetect").glob("*.py")):
        for node, now in _imports(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                roots = [] if node.level else [node.module.split(".")[0]]
            else:
                roots = [alias.name.split(".")[0] for alias in node.names]
            for root in roots:
                assert root in sys.stdlib_module_names or root in ("numpy", "mdpdetect"), (
                    f"{path.name}:{node.lineno} imports {root}"
                )
                if root == "numpy" and now:
                    eager_numpy.add(path.name)
    # every other module loads numpy only inside the function that needs it
    assert eager_numpy == {"analysis.py", "simulate.py"}
