"""Command-line surface: subcommands, file outputs, exit-code contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mdpdetect.cli import main
from mdpdetect.models import mmdp_to_json, serialize_mmdp

from conftest import example1_mmdp, random_multi_mmdp, rng_for

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
    policy = json.loads(open(policy_path).read())
    (entry,) = policy["entries"]
    assert entry["reach"]["2"] == "b2"
    diag = json.loads(open(diag_path).read())
    assert diag["initial"] == "2"

    code, _, diag_path = _synthesize(tmp_path, model_file, initial="1")
    assert code == 3
    diag = json.loads(open(diag_path).read())
    assert diag["witness_noninformative_mecs"]


def test_synthesize_outputs_are_reproducible(tmp_path, model_file):
    _, first, _ = _synthesize(tmp_path, model_file)
    text_a = open(first, "rb").read()
    _, second, _ = _synthesize(tmp_path, model_file)
    assert open(second, "rb").read() == text_a


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
    lines = open(trace_path).read().splitlines()
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
    summary = json.loads(open(batch_path).read())
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


def test_bc_curve_and_bounds(tmp_path, model_file):
    _, policy_path, _ = _synthesize(tmp_path, model_file)
    curve_path = str(tmp_path / "bc.csv")
    assert (
        main(["bc", model_file, policy_path, "--horizon", "4", "--out", curve_path]) == 0
    )
    lines = open(curve_path).read().splitlines()
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
    lines = open(bounds_path).read().splitlines()
    assert lines[0] == "t,lower,upper_raw,upper_clamped"
    assert lines[1] == "0,0.25,0.5,0.5"


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
    model = json.loads(open(out_path).read())
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
