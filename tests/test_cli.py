"""Command-line surface: subcommands, file outputs, exit-code contract."""

import copy
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpdetect import cli
from mdpdetect.analysis import pairwise_bc_curve
from mdpdetect.cli import main
from mdpdetect.errors import ContractError, HorizonCapError, ModelError
from mdpdetect.models import Mmdp, fresh_name, mmdp_to_json, serialize_mmdp
from mdpdetect.policy import (
    DetectionPolicy,
    active_set,
    parse_policy,
    policy_to_json,
    stationary_uniform_policy,
)
from mdpdetect.scenarios import RecSysSpec, gen_recsys, recsys_profile
from mdpdetect.simulate import batch_summary, monte_carlo_curve, monte_carlo_error, simulate

from conftest import (
    example1_mmdp,
    identical_mmdp,
    mk_mdp,
    random_multi_mmdp,
    reference_check_policy,
    reference_parse_policy,
    rng_for,
)
from test_policy import _random_instance, _replace_key, _synthesized_document

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "example1.json"
    path.write_text(mmdp_to_json(example1_mmdp(initial="2")))
    return str(path)


@pytest.fixture
def broken_model_file(tmp_path):
    doc = serialize_mmdp(example1_mmdp())
    for entry in doc["models"][0]["delta"]:
        if entry["from"] == "1" and entry["to"] == "2":
            entry["p"] = 0.69  # row now sums to 0.99
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _synthesize(tmp_path, model_file, initial="2"):
    policy_path = str(tmp_path / "policy.json")
    diag_path = str(tmp_path / "diag.json")
    code = main(
        ["synthesize", model_file, "--initial", initial, "--out", policy_path,
         "--diagnostics", diag_path]
    )
    return code, policy_path, diag_path


def test_validate_ok(model_file, capsys):
    assert main(["validate", model_file]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_broken_exits_2(broken_model_file, capsys):
    assert main(["validate", broken_model_file]) == 2
    err = capsys.readouterr().err
    assert "(1, a1)" in err and "0.99" in err


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"states": "nope"}')
    assert main(["validate", str(path)]) == 2
    assert "states" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    assert main(["validate", "/nonexistent/model.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--out", "--diagnostics"])
def test_unwritable_output_is_usage_error(model_file, tmp_path, flag, capsys):
    """An output path in a missing directory exits 1 with one line, not a
    traceback, and leaves neither output file behind."""
    paths = {"--out": str(tmp_path / "p.json"), "--diagnostics": str(tmp_path / "d.json")}
    paths[flag] = str(tmp_path / "missing" / "out.json")
    args = ["synthesize", model_file, "--initial", "2"]
    assert main(args + [arg for item in paths.items() for arg in item]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot write {paths[flag]}: ")
    assert err.count("\n") == 1
    assert not any(map(os.path.exists, paths.values()))


def test_other_package_errors_exit_1_with_one_line(model_file, monkeypatch, capsys):
    """A package error that is neither invalid input nor a contract breach exits 1
    with one ``error:`` line, not a traceback."""

    def capped(_args):
        raise HorizonCapError("horizon 30 exceeds the cap 12")

    monkeypatch.setattr(cli, "_dispatch", capped)
    assert main(["validate", model_file]) == 1
    assert capsys.readouterr().err == "error: horizon 30 exceeds the cap 12\n"


def test_bad_arguments_are_usage_errors(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["synthesize"]) == 1


def test_classify_output(model_file, capsys):
    assert main(["classify", model_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["informative_pairs"] == [["1", "a1"], ["2", "b2"]]
    assert payload["revealing_pairs"] == [["5", "b5"]]
    assert payload["revealing_states"] == ["5"]
    assert payload["chosen_revealing_action"] == {"5": "b5"}


def test_mec_listing(model_file, capsys):
    assert main(["mec", model_file]) == 0
    mecs = json.loads(capsys.readouterr().out)
    assert {"3": ["a3"], "4": ["a4"]} in mecs
    assert main(["mec", model_file, "--informative"]) == 0
    informative = json.loads(capsys.readouterr().out)
    assert len(informative) == 2  # the two detection terminals


def test_synthesize_success_and_failure(tmp_path, model_file):
    code, policy_path, diag_path = _synthesize(tmp_path, model_file, initial="2")
    assert code == 0
    policy = json.loads(Path(policy_path).read_text())
    (entry,) = policy["entries"]
    assert entry["reach"]["2"] == "b2"
    diag = json.loads(Path(diag_path).read_text())
    assert diag["initial"] == "2"

    code, _, diag_path = _synthesize(tmp_path, model_file, initial="1")
    assert code == 3
    diag = json.loads(Path(diag_path).read_text())
    assert diag["witness_noninformative_mecs"]


def test_synthesize_outputs_are_reproducible(tmp_path, model_file):
    _, first, _ = _synthesize(tmp_path, model_file)
    text_a = Path(first).read_bytes()
    _, second, _ = _synthesize(tmp_path, model_file)
    assert Path(second).read_bytes() == text_a


def test_simulate_trace_and_batch(tmp_path, model_file):
    _, policy_path, _ = _synthesize(tmp_path, model_file)
    trace_path = str(tmp_path / "trace.csv")
    assert (
        main(
            ["simulate", model_file, policy_path, "--truth", "1", "--seed", "7",
             "--out", trace_path]
        )
        == 0
    )
    lines = Path(trace_path).read_text().splitlines()
    assert lines[0] == "t,state,action,b_1,b_2"
    assert lines[1].startswith("0,2,b2")

    batch_path = str(tmp_path / "batch.json")
    assert (
        main(
            ["simulate", model_file, policy_path, "--seed", "3", "--trials", "25",
             "--out", batch_path]
        )
        == 0
    )
    summary = json.loads(Path(batch_path).read_text())
    assert summary["trials"] == 25
    assert summary["threshold_accuracy"] == 1.0


@pytest.mark.parametrize("args, message", [
    (["--trials", "0"], "trials must be at least 1, got 0"),
    (["--trials", "-3"], "trials must be at least 1, got -3"),
    (["--trials", "5", "--threshold", "1.0"], "threshold must lie in (0.5, 1), got 1.0"),
    (["--trials", "5", "--max-steps", "-1"], "max_steps must be nonnegative, got -1"),
    (["--truth", "1", "--max-steps", "-1"], "max_steps must be nonnegative, got -1"),
])
def test_simulate_rejects_invalid_counts_exit_2(tmp_path, model_file, capsys, args, message):
    _, policy_path, _ = _synthesize(tmp_path, model_file)
    out = tmp_path / "out.json"
    capsys.readouterr()
    code = main(["simulate", model_file, policy_path, "--seed", "3", *args, "--out", str(out)])
    assert code == 2
    assert f"invalid input: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_accepts_a_zero_step_limit(tmp_path, model_file):
    _, policy_path, _ = _synthesize(tmp_path, model_file)
    out = tmp_path / "batch.json"
    args = ["simulate", model_file, policy_path, "--seed", "3", "--trials", "5", "--max-steps", "0"]
    assert main([*args, "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["stop_reasons"] == {"threshold": 0, "max_steps": 5, "undetectable": 0}


def test_simulate_requires_truth_for_single_trace(tmp_path, model_file, capsys):
    _, policy_path, _ = _synthesize(tmp_path, model_file)
    assert main(["simulate", model_file, policy_path, "--seed", "1"]) == 1
    assert "--truth" in capsys.readouterr().err


def test_simulate_contract_breach_exit_4(tmp_path, model_file, capsys):
    empty_policy = tmp_path / "empty.json"
    empty_policy.write_text('{"entries": []}')
    code = main(
        ["simulate", model_file, str(empty_policy), "--truth", "1", "--seed", "1"]
    )
    assert code == 4
    assert "initial configuration" in capsys.readouterr().err


def test_every_run_refuses_a_policy_without_the_initial_entry_in_one_text(tmp_path, capsys):
    """The compile alone checks the start, so the library and the CLI print one text."""
    text = "policy has no entry for the initial configuration ((1, 2), 'x')"
    mmdp, policy = identical_mmdp(), DetectionPolicy(entries={})
    for run in (
        lambda: simulate(mmdp, 1, policy, seed=0),
        lambda: batch_summary(mmdp, policy, 10, seed=0),
        lambda: monte_carlo_error(mmdp, policy, 3, 100, seed=0),
        lambda: monte_carlo_curve(mmdp, policy, [1, 3], 100, seed=0),
        lambda: pairwise_bc_curve(mmdp, policy, 3),
    ):
        with pytest.raises(ContractError) as raised:
            run()
        assert str(raised.value) == text
    model_path, policy_path = tmp_path / "model.json", tmp_path / "empty.json"
    model_path.write_text(mmdp_to_json(mmdp))
    policy_path.write_text('{"entries": []}')
    capsys.readouterr()
    for i, extra in enumerate([
        ["simulate", "--truth", "1", "--seed", "1"],
        ["simulate", "--trials", "10", "--seed", "1"],
        ["bc", "--horizon", "3"],
    ]):
        out = tmp_path / f"out{i}"
        argv = [extra[0], str(model_path), str(policy_path), *extra[1:], "--out", str(out)]
        assert main(argv) == 4
        assert capsys.readouterr().err == f"contract breach: {text}\n"
        assert not out.exists()


def test_bc_curve_and_bounds(tmp_path, model_file):
    _, policy_path, _ = _synthesize(tmp_path, model_file)
    curve_path = str(tmp_path / "bc.csv")
    assert (
        main(["bc", model_file, policy_path, "--horizon", "4", "--out", curve_path]) == 0
    )
    lines = Path(curve_path).read_text().splitlines()
    assert lines[0] == "t,B"
    assert lines[1] == "0,1.0"
    assert lines[2] == "1,0.5"

    bounds_path = str(tmp_path / "bounds.csv")
    assert (
        main(
            ["bc", model_file, policy_path, "--horizon", "4",
             "--bounds", "0.5,0.5:0.5,0.5", "--out", bounds_path]
        )
        == 0
    )
    lines = Path(bounds_path).read_text().splitlines()
    assert lines[0] == "t,lower,upper_raw,upper_clamped"
    assert lines[1] == "0,0.25,0.5,0.5"


def test_bc_bounds_of_one_pair_on_two_models(tmp_path, model_file):
    """On two models the one pair is every pair: ``--pair 1,2`` changes no bound."""
    _, policy_path, _ = _synthesize(tmp_path, model_file)
    outputs = []
    for extra in ([], ["--pair", "1,2"]):
        out = tmp_path / f"bounds{len(extra)}.csv"
        assert main(["bc", model_file, policy_path, "--horizon", "6",
                     "--bounds", "0.3,0.7:0.5,0.5", *extra, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_bc_bounds_refuse_one_pair_of_three_models(tmp_path, capsys):
    """The bounds of three or more models need every pair's curve, so ``--pair`` is a usage error."""
    model = tmp_path / "model.json"
    mmdp = identical_mmdp(n_models=3)
    model.write_text(mmdp_to_json(mmdp))
    policy = tmp_path / "policy.json"
    policy.write_text(policy_to_json(stationary_uniform_policy(mmdp)))
    args = ["bc", str(model), str(policy), "--horizon", "3", "--bounds", "0.2,0.3,0.5:0.4,0.3,0.3"]
    out = tmp_path / "bounds.csv"
    assert main([*args, "--pair", "1,2", "--out", str(out)]) == 1
    assert "--bounds needs the curves of every pair of the 3 models" in capsys.readouterr().err
    assert not out.exists()
    assert main([*args, "--out", str(out)]) == 0


def test_bc_rejects_a_model_index_out_of_range(tmp_path, model_file, capsys):
    _, policy_path, _ = _synthesize(tmp_path, model_file)
    out = tmp_path / "bc.csv"
    for horizon in ("0", "3"):
        code = main(["bc", model_file, policy_path, "--horizon", horizon,
                     "--pair", "1,9", "--out", str(out)])
        assert code == 2
        assert "model index 9 outside 1..2" in capsys.readouterr().err
    assert not out.exists()


def test_gen_commands(tmp_path, capsys):
    grid_spec = tmp_path / "grid.json"
    grid_spec.write_text(
        json.dumps(
            {
                "width": 3,
                "height": 3,
                "obstacles": [[1, 1]],
                "goal_region": [[2, 2]],
            }
        )
    )
    out_path = str(tmp_path / "grid_model.json")
    assert main(["gen", "grid", str(grid_spec), "--out", out_path]) == 0
    model = json.loads(Path(out_path).read_text())
    assert len(model["states"]) == 8
    assert len(model["models"]) == 2

    rec_spec = tmp_path / "rec.json"
    rec_spec.write_text(json.dumps({"item_count": 4, "type_count": 2, "seed": 5}))
    assert main(["gen", "recsys", str(rec_spec)]) == 0
    model = json.loads(capsys.readouterr().out)
    assert len(model["states"]) == 21


def test_gen_invalid_spec_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"width": 3, "height": 3, "goal_region": []}))
    assert main(["gen", "grid", str(bad)]) == 2
    assert "goal region" in capsys.readouterr().err


_GRID = {"width": 3, "height": 3, "goal_region": [[2, 2]]}
_RECSYS = {"item_count": 4, "type_count": 2, "seed": 5}


@pytest.mark.parametrize(
    "kind, spec, field",
    [
        ("grid", {**_GRID, "width": "a"}, "width"),
        ("grid", {**_GRID, "width": None}, "width"),
        ("grid", {**_GRID, "height": True}, "height"),
        ("grid", {**_GRID, "height": 3.5}, "height"),
        ("grid", {**_GRID, "p_stay": "x"}, "p_stay"),
        ("grid", {**_GRID, "p_leave": 10**400}, "p_leave"),
        ("grid", {**_GRID, "p_leave_active": False}, "p_leave_active"),
        ("grid", {**_GRID, "initial": [0, None]}, "initial"),
        ("grid", {**_GRID, "obstacles": "none"}, "obstacles"),
        ("recsys", {**_RECSYS, "item_count": "x"}, "item_count"),
        ("recsys", {**_RECSYS, "item_count": 4.9}, "item_count"),
        ("recsys", {**_RECSYS, "type_count": True}, "type_count"),
        ("recsys", {**_RECSYS, "seed": "7"}, "seed"),
        ("recsys", {**_RECSYS, "alpha": "0.1"}, "alpha"),
        ("recsys", {**_RECSYS, "history_length": [2]}, "history_length"),
        ("recsys", {**_RECSYS, "distinct_rankings": "false"}, "distinct_rankings"),
        ("recsys", {**_RECSYS, "revealing_rows": 1}, "revealing_rows"),
    ],
)
def test_gen_rejects_a_mistyped_spec_field(tmp_path, capsys, kind, spec, field):
    """A field of the wrong JSON type is an invalid spec, named on one line; no file is written.

    A number or boolean field's message spells the offending value as the
    spec file does: ``true``, ``null``, ``"7"``.
    """
    spec_path, out = tmp_path / "spec.json", tmp_path / "model.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["gen", kind, str(spec_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{kind} spec: {field}" in err
    if field not in ("initial", "obstacles"):  # a cell's message shows no value
        assert err.endswith(f", got {json.dumps(spec[field])}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, spec, field",
    [("grid", _GRID, "p_stya"), ("recsys", _RECSYS, "alhpa")],
)
def test_gen_rejects_an_unknown_spec_field(tmp_path, capsys, kind, spec, field):
    """A field the spec does not have is an invalid spec, not a default silently kept."""
    spec_path, out = tmp_path / "spec.json", tmp_path / "model.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["gen", kind, str(spec_path), "--out", str(out)]) == 0
    out.unlink()
    spec_path.write_text(json.dumps({**spec, field: 0.9}))
    assert main(["gen", kind, str(spec_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(f"{kind} spec: unknown field {field!r}\n")
    assert not out.exists()


def test_bc_bytes_do_not_depend_on_hash_seed(tmp_path):
    # string hashing, and so set iteration order, changes with PYTHONHASHSEED;
    # the coefficient sums must not follow it
    model = tmp_path / "model.json"
    model.write_text(mmdp_to_json(random_multi_mmdp(rng_for(0), n_models=3, n_states=4)))
    policy = tmp_path / "policy.json"
    assert main(["synthesize", str(model), "--out", str(policy)]) == 0
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
        out = tmp_path / f"bc-{hash_seed}.csv"
        subprocess.run(
            [sys.executable, "-m", "mdpdetect.cli", "bc", str(model), str(policy),
             "--horizon", "20", "--out", str(out)],
            env=env, check=True,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_synthesis_and_batch_bytes_do_not_depend_on_hash_seed(tmp_path):
    """The policy, its diagnostics and a batch summary are the same bytes under any string hashing."""
    model = tmp_path / "model.json"
    model.write_text(mmdp_to_json(random_multi_mmdp(rng_for(3), n_models=4, n_states=6)))
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
        policy, diagnostics, batch = (tmp_path / f"{kind}-{hash_seed}" for kind in ("pol", "diag", "batch"))
        for argv in (
            ["synthesize", str(model), "--out", str(policy), "--diagnostics", str(diagnostics)],
            ["simulate", str(model), str(policy), "--trials", "50", "--seed", "2", "--out", str(batch)],
        ):
            subprocess.run([sys.executable, "-m", "mdpdetect.cli", *argv], env=env, check=True)
        outputs.append([path.read_bytes() for path in (policy, diagnostics, batch)])
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][2])["trials"] == 50


def _fork_mmdp():
    """From s0, action a reaches x or y in both models (0.3 / 0.6 to x); x and y loop."""
    states = ("s0", "x", "y")
    actions = {s: ("a",) for s in states}
    kernels = [
        {("s0", "a"): {"x": p, "y": 1.0 - p}, ("x", "a"): {"x": 1.0}, ("y", "a"): {"y": 1.0}}
        for p in (0.3, 0.6)
    ]
    return Mmdp(models=tuple(mk_mdp(states, actions, k, "s0", f"M{i}") for i, k in enumerate(kernels)))


def _fork_policy(reach=None, mecs=()):
    entry = {"active": [1, 2], "entry_state": "s0", "reach": reach or {},
             "mecs": [{"states": m} for m in mecs]}
    return json.dumps({"entries": [entry]})


# a component entry over {s0} alone, whose action leaves it for x or y
LEAVING_COMPONENT = _fork_policy(mecs=[{"s0": ["a"]}])
# policies naming an action the model does not offer, or a state it lacks
OFF_MODEL = {
    "reach action": _fork_policy(reach={"s0": "zz"}),
    "component action": _fork_policy(mecs=[{"s0": ["a", "zz"]}]),
    "reach state": _fork_policy(reach={"s0": "a", "q": "a"}),
    "entry state": json.dumps({"entries": [{"active": [1, 2], "entry_state": "q", "reach": {}}]}),
}
_COMMANDS = {
    "bc": ["bc", "--horizon", "3"],
    "trace": ["simulate", "--truth", "1", "--seed", "0"],
    "batch": ["simulate", "--trials", "4", "--seed", "0"],
}


def test_a_component_action_leaving_its_component(tmp_path, capsys):
    mmdp = _fork_mmdp()
    policy = parse_policy(LEAVING_COMPONENT)
    # one step from s0 is covered; the next starts outside the component
    assert pairwise_bc_curve(mmdp, policy, 1)[(1, 2)].values == (1.0, math.sqrt(0.18) + math.sqrt(0.28))
    with pytest.raises(ContractError, match="at 'x'$"):
        pairwise_bc_curve(mmdp, policy, 2)
    trace = simulate(mmdp, 1, policy, seed=0)
    assert trace.stop_reason == "undetectable"
    assert [step.t for step in trace.steps] == [0, 1]

    model, policy_path, out = tmp_path / "m.json", tmp_path / "p.json", tmp_path / "bc.csv"
    model.write_text(mmdp_to_json(mmdp))
    policy_path.write_text(LEAVING_COMPONENT)
    capsys.readouterr()
    assert main(["bc", str(model), str(policy_path), "--horizon", "2", "--out", str(out)]) == 4
    assert "contract breach: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", sorted(OFF_MODEL))
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_policy_files_are_checked_against_the_model(tmp_path, capsys, kind, command):
    model, policy, out = tmp_path / "m.json", tmp_path / "p.json", tmp_path / "out"
    model.write_text(mmdp_to_json(_fork_mmdp()))
    policy.write_text(OFF_MODEL[kind])
    name, *options = _COMMANDS[command]
    assert main([name, str(model), str(policy), *options, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("contract breach: policy entry ((1, 2), ")
    assert ("'zz'" if "action" in kind else "'q'") in err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_actions_for_a_name_that_is_not_a_state_are_invalid_input(tmp_path, capsys, command):
    """Such a model is refused before its policy is read, so a policy playing at that name
    never runs."""
    doc = serialize_mmdp(_fork_mmdp())
    doc["actions"]["zz"] = ["a"]
    model, policy, out = tmp_path / "m.json", tmp_path / "p.json", tmp_path / "out"
    model.write_text(json.dumps(doc))
    policy.write_text(_fork_policy(reach={"s0": "a", "zz": "a"}, mecs=[{"x": ["a"]}, {"y": ["a"]}]))
    name, *options = _COMMANDS[command]
    assert main([name, str(model), str(policy), *options, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "invalid input: invalid model: model M0: actions listed for 'zz', which is not a state; "
        "model M1: actions listed for 'zz', which is not a state\n"
    )
    assert not out.exists()
    assert main(["synthesize", str(model), "--out", str(out)]) == 2
    assert not out.exists()


# entries for a model index outside 1..2, or for no model at all
OFF_MODEL_ACTIVE = {
    "model 9": [1, 9],
    "model 0": [0, 1],
    "no model": [],
}


@pytest.mark.parametrize("kind", sorted(OFF_MODEL_ACTIVE))
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_policy_active_sets_are_checked_against_the_model(tmp_path, capsys, kind, command):
    """An entry whose active set is empty or names a model the file lacks is a
    breach, though the controller never enters it."""
    model, policy, out = tmp_path / "m.json", tmp_path / "p.json", tmp_path / "out"
    model.write_text(mmdp_to_json(_fork_mmdp()))
    working = _fork_policy(reach={"s0": "a"}, mecs=[{"x": ["a"]}, {"y": ["a"]}])
    doc = json.loads(working)
    doc["entries"].append({"active": OFF_MODEL_ACTIVE[kind], "entry_state": "x", "reach": {}})
    policy.write_text(json.dumps(doc))
    name, *options = _COMMANDS[command]
    assert main([name, str(model), str(policy), *options, "--out", str(out)]) == 4
    key = (tuple(sorted(OFF_MODEL_ACTIVE[kind])), "x")
    assert capsys.readouterr().err == (
        f"contract breach: policy entry {key} keeps models {list(key[0])}, "
        "not a nonempty subset of 1..2\n"
    )
    assert not out.exists()
    # without the extra entry the same command runs
    policy.write_text(working)
    assert main([name, str(model), str(policy), *options, "--out", str(out)]) == 0


def _checked_with(check, text):
    """The class and message of the error ``check(text)`` raises, or None if it accepts."""
    try:
        check(text)
    except (ModelError, ContractError) as exc:
        return type(exc).__name__, str(exc)
    return None


def _off_model(doc, mmdp, pick):
    """``doc`` with one to three plays the model lacks, on entries drawn from ``pick``."""
    doc = copy.deepcopy(doc)
    fresh = fresh_name("q", mmdp.states)
    for _ in range(pick.randint(1, 3)):
        entry = pick.choice(doc["entries"])
        spots = [(mec["states"], s) for mec in entry["mecs"] for s in mec["states"]]
        kinds = ["reach state", "entry state"]
        kinds += ["reach action"] * bool(entry["reach"]) + ["component action", "component state"] * bool(spots)
        kind = pick.choice(kinds)
        if kind == "reach state":
            entry["reach"][fresh] = "a0"
        elif kind == "entry state":
            entry["entry_state"] = fresh
        elif kind == "reach action":
            s = pick.choice(sorted(entry["reach"]))
            entry["reach"][s] = fresh_name("zz", mmdp.actions.get(s, ()))
        else:
            states, s = pick.choice(spots)
            if kind == "component action":
                offered = mmdp.actions.get(s, ())
                states[s].insert(pick.randrange(len(states[s]) + 1), fresh_name("zz", offered))
            else:
                _replace_key(states, s, fresh)
    return doc


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), n_models=st.integers(2, 5), n_states=st.integers(2, 6),
       sparse=st.booleans())
def test_off_model_policies_are_refused_as_the_frozen_check_refuses_them(
    tmp_path_factory, seed, n_models, n_states, sparse
):
    """The CLI names the first off-model play in file order with the frozen check's
    message, though it checks each distinct play once; an entry for models outside
    ``1..n``, which the frozen check let through, is refused by name."""
    mmdp = _random_instance(seed, n_models, n_states, sparse)
    doc = _synthesized_document(mmdp)
    if not doc["entries"]:
        return
    path = tmp_path_factory.mktemp("policy") / "p.json"

    def load(text):
        path.write_text(text)
        return cli._load_policy(str(path), mmdp)

    def frozen(text):
        reference_check_policy(reference_parse_policy(text), mmdp)

    text = json.dumps(doc)
    assert load(text).entries == parse_policy(text).entries
    pick = random.Random(seed)
    for _ in range(3):
        text = json.dumps(_off_model(doc, mmdp, pick))
        got = _checked_with(load, text)
        assert got is not None and got == _checked_with(frozen, text)
    mutated = copy.deepcopy(doc)
    entry = pick.choice(mutated["entries"])
    entry["active"] = pick.choice([[], [0, *entry["active"]], [*entry["active"], mmdp.n + 1], [mmdp.n + 1]])
    key = (active_set(entry["active"]), entry["entry_state"])
    text = json.dumps(mutated)
    assert _checked_with(frozen, text) is None
    assert _checked_with(load, text) == (
        "ContractError",
        f"policy entry {key} keeps models {list(key[0])}, not a nonempty subset of 1..{mmdp.n}",
    )


@pytest.mark.parametrize("mecs, where", [
    (5, "entries[0].mecs: "),
    ([{"states": {"s0": ["a", 3]}}], "entries[0].mecs[0].states: "),
])
def test_malformed_component_lists_are_invalid_input(tmp_path, capsys, mecs, where):
    """A component list that is no array, or an action that is no string, is
    invalid input naming its path (exit 2), not a traceback."""
    doc = json.loads(_fork_policy())
    doc["entries"][0]["mecs"] = mecs
    with pytest.raises(ModelError) as raised:
        parse_policy(json.dumps(doc))
    assert str(raised.value).startswith(where)
    model, policy = tmp_path / "m.json", tmp_path / "p.json"
    model.write_text(mmdp_to_json(_fork_mmdp()))
    policy.write_text(json.dumps(doc))
    for name, *options in _COMMANDS.values():
        capsys.readouterr()
        assert main([name, str(model), str(policy), *options, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: {where}") and "Traceback" not in err


def test_broken_policies_end_in_an_exit_code_not_a_traceback(tmp_path):
    model = tmp_path / "m.json"
    model.write_text(mmdp_to_json(_fork_mmdp()))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    for kind, text in [("leaving component", LEAVING_COMPONENT), *sorted(OFF_MODEL.items())]:
        policy = tmp_path / "p.json"
        policy.write_text(text)
        for command, (name, *options) in sorted(_COMMANDS.items()):
            run = subprocess.run(
                [sys.executable, "-m", "mdpdetect.cli", name, str(model), str(policy), *options,
                 "--out", str(tmp_path / "out")],
                env=env, capture_output=True, text=True,
            )
            assert run.returncode in (0, 3, 4), (kind, command, run.stderr)
            assert "Traceback" not in run.stderr, (kind, command, run.stderr)


# Run in a fresh interpreter: every command that samples nothing leaves numpy
# unloaded, and the sampling commands still work afterwards in that process.
_NUMPY_FREE = """
import sys
from mdpdetect.cli import main

grid_spec, grid, multi, out = sys.argv[1:]
for argv in (
    ["gen", "grid", grid_spec, "--out", grid],
    ["validate", grid],
    ["classify", grid, "--out", out + "/grid.cls"],
    ["classify", multi, "--out", out + "/multi.cls"],
    ["mec", grid, "--out", out + "/grid.mec"],
    ["mec", grid, "--informative", "--out", out + "/grid.imec"],
    ["mec", multi, "--model", "3", "--out", out + "/multi.mec3"],
    ["synthesize", grid, "--out", out + "/grid.pol", "--diagnostics", out + "/grid.diag"],
    ["synthesize", multi, "--out", out + "/multi.pol"],
):
    assert main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
for name in ("grid", "multi"):
    model, policy = (grid if name == "grid" else multi), f"{out}/{name}.pol"
    assert main(["simulate", model, policy, "--trials", "6", "--seed", "3", "--out", f"{out}/{name}.batch"]) == 0
    assert main(["simulate", model, policy, "--truth", "1", "--seed", "3", "--out", f"{out}/{name}.trace"]) == 0
    assert main(["bc", model, policy, "--horizon", "6", "--out", f"{out}/{name}.bc"]) == 0
assert "numpy" in sys.modules
"""


def test_commands_that_sample_nothing_run_without_numpy(tmp_path):
    grid_spec = tmp_path / "grid-spec.json"
    grid_spec.write_text(json.dumps({"width": 3, "height": 2, "goal_region": [[2, 1]]}))
    multi = tmp_path / "multi.json"
    multi.write_text(mmdp_to_json(random_multi_mmdp(rng_for(0), n_models=3, n_states=4)))
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir(), here.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    run = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE, str(grid_spec), str(fresh / "grid.json"), str(multi), str(fresh)],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    # the same commands in this process, where numpy is loaded, write the same bytes
    grid = str(fresh / "grid.json")
    for name, model in (("grid", grid), ("multi", str(multi))):
        policy = str(fresh / f"{name}.pol")
        assert main(["synthesize", model, "--out", str(here / f"{name}.pol")]) == 0
        assert main(["simulate", model, policy, "--trials", "6", "--seed", "3", "--out", str(here / f"{name}.batch")]) == 0
        assert main(["simulate", model, policy, "--truth", "1", "--seed", "3", "--out", str(here / f"{name}.trace")]) == 0
        assert main(["bc", model, policy, "--horizon", "6", "--out", str(here / f"{name}.bc")]) == 0
    for path in sorted(here.iterdir()):
        assert path.read_bytes() == (fresh / path.name).read_bytes(), path.name


# the names bench/tracer.py reads from mdpdetect.cli and replaces with wrappers
TRACED_CLI_NAMES = (
    "batch_summary", "pairwise_bc_curve", "gen_grid", "gen_recsys", "mmdp_to_json",
    "parse_mmdp", "policy_to_json", "parse_policy", "general_apd",
)


def test_the_cli_calls_the_bindings_a_tracer_replaces(tmp_path, model_file, monkeypatch):
    import mdpdetect.cli as cli

    assert all(callable(getattr(cli, name)) for name in TRACED_CLI_NAMES)
    code, policy, _ = _synthesize(tmp_path, model_file)
    assert code == 0
    calls = []
    for name, argv in (
        ("batch_summary", ["simulate", model_file, policy, "--trials", "4", "--seed", "0"]),
        ("pairwise_bc_curve", ["bc", model_file, policy, "--horizon", "3"]),
    ):
        def spy(*args, _name=name, _real=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert calls == ["batch_summary", "pairwise_bc_curve"]


# Run in a fresh interpreter, where the CLI has bound none of its names yet:
# each wrapper installed from outside, as bench/tracer.py installs them, is
# the binding the command calls.
_WRAPPED_FROM_OUTSIDE = """
import sys
import mdpdetect.cli as cli

spec, model, policy = sys.argv[1:]
calls = []
for name in ("general_apd", "gen_recsys", "parse_mmdp"):
    def wrapper(*args, _name=name, _real=getattr(cli, name), **kwargs):
        calls.append(_name)
        return _real(*args, **kwargs)

    setattr(cli, name, wrapper)
assert cli.main(["gen", "recsys", spec, "--out", model]) == 0
assert cli.main(["synthesize", model, "--out", policy]) == 0
assert calls == ["gen_recsys", "parse_mmdp", "general_apd"], calls
"""


def test_the_cli_calls_wrappers_installed_before_its_first_command(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"item_count": 3, "type_count": 2, "seed": 1}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    paths = [str(spec), str(tmp_path / "m.json"), str(tmp_path / "p.json")]
    run = subprocess.run(
        [sys.executable, "-c", _WRAPPED_FROM_OUTSIDE, *paths], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


# ---------------------------------------------------------------------------
# Refusals of outside input: each exits with its code and one stderr line,
# and leaves no output file.
# ---------------------------------------------------------------------------

_NOT_JSON = "{not json"
_NOT_JSON_ERROR = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"


def _refused(tmp_path, capsys, argv, code, line):
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == code
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


@pytest.mark.parametrize("text, line", [
    (_NOT_JSON, f"document is not valid JSON: {_NOT_JSON_ERROR}"),
    ("[1, 2]", "document: expected a JSON object"),
])
def test_a_model_document_that_is_no_json_object_is_refused(tmp_path, capsys, text, line):
    model = tmp_path / "m.json"
    model.write_text(text)
    _refused(tmp_path, capsys, ["synthesize", str(model)], 2, f"invalid input: {line}")


@pytest.mark.parametrize("text, line", [
    (_NOT_JSON, f"policy document is not valid JSON: {_NOT_JSON_ERROR}"),
    (json.dumps({"entries": [3]}), "entries[0]: expected an object"),
    (_fork_policy(mecs=[["s0"]]), "entries[0].mecs[0].states: expected state -> nonempty action list"),
])
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_a_malformed_policy_document_is_refused(tmp_path, capsys, text, line, command):
    model, policy = tmp_path / "m.json", tmp_path / "p.json"
    model.write_text(mmdp_to_json(_fork_mmdp()))
    policy.write_text(text)
    name, *options = _COMMANDS[command]
    _refused(tmp_path, capsys, [name, str(model), str(policy), *options], 2, f"invalid input: {line}")


@pytest.mark.parametrize("kind", ["grid", "recsys"])
@pytest.mark.parametrize("text, line", [
    (_NOT_JSON, f"spec is not valid JSON: {_NOT_JSON_ERROR}"),
    ("[1, 2]", "spec: expected a JSON object"),
])
def test_a_spec_document_that_is_no_json_object_is_refused(tmp_path, capsys, kind, text, line):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    _refused(tmp_path, capsys, ["gen", kind, str(spec)], 2, f"invalid input: {line}")


@pytest.mark.parametrize("spec, line", [
    ({**_GRID, "width": 0}, "grid dimensions must be positive"),
    ({**_GRID, "obstacles": [[5, 1]]}, "obstacles cell (5, 1) outside the 3x3 grid"),
    ({**_GRID, "p_stay": 0.7, "p_leave": 0.4}, "p_stay + p_leave exceeds 1"),
    ({**_GRID, "p_stay_active": 0.7, "p_leave_active": 0.4}, "p_stay_active + p_leave_active exceeds 1"),
    ({**_GRID, "obstacles": [[1, 0], [0, 1]]}, "degenerate spec: free cell (0, 0) has no free neighbor"),
])
def test_a_degenerate_grid_spec_is_refused(tmp_path, capsys, spec, line):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    _refused(tmp_path, capsys, ["gen", "grid", str(path)], 2, f"invalid input: {line}")


def test_a_degenerate_recsys_spec_is_refused(tmp_path, capsys):
    base = {"item_count": 3, "type_count": 2, "seed": 0}
    bound = recsys_profile(RecSysSpec(**base)).alpha_bound
    path = tmp_path / "spec.json"
    for spec, line in (
        ({**base, "type_count": 1}, "need at least 2 customer types"),
        ({**base, "alpha": bound},
         "alpha at its upper bound collapses the revealing row; choose a smaller alpha"),
    ):
        path.write_text(json.dumps(spec))
        _refused(tmp_path, capsys, ["gen", "recsys", str(path)], 2, f"invalid input: {line}")


@pytest.mark.parametrize("flags, line", [
    (["--pair", "1"], "--pair must look like 'i,j', got '1'"),
    (["--pair", "1,x"], "--pair must look like 'i,j', got '1,x'"),
    (["--pair", "2,2"], "--pair needs two distinct model indices"),
    (["--bounds", "0.5,0.5"], "--bounds must look like 'q1,..,qN:theta1,..,thetaN'"),
    (["--bounds", "a,b:c,d"], "--bounds contains a non-number: 'a,b:c,d'"),
    (["--bounds", "0.5:0.5,0.5"], "--bounds needs 2 entries on each side"),
])
def test_malformed_bc_flags_are_usage_errors(tmp_path, capsys, flags, line):
    model, policy = tmp_path / "m.json", tmp_path / "p.json"
    model.write_text(mmdp_to_json(_fork_mmdp()))
    policy.write_text(_fork_policy(reach={"s0": "a"}))
    # one step covered by the reach action: the curves exist, so only the flags fail
    argv = ["bc", str(model), str(policy), "--horizon", "1", *flags]
    _refused(tmp_path, capsys, argv, 1, f"usage error: {line}")


@pytest.mark.parametrize("field", ["distinct_rankings", "revealing_rows"])
@pytest.mark.parametrize("value", [True, False])
def test_a_recsys_spec_may_set_its_boolean_fields(tmp_path, field, value):
    spec = {"item_count": 3, "type_count": 2, "seed": 4, field: value}
    path, out = tmp_path / "spec.json", tmp_path / "m.json"
    path.write_text(json.dumps(spec))
    assert main(["gen", "recsys", str(path), "--out", str(out)]) == 0
    assert out.read_text() == mmdp_to_json(gen_recsys(RecSysSpec(**spec)))
