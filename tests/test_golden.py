"""Golden bytes: the CLI outputs on small fixed instances, pinned by sha256.

The model JSON (written by ``mmdp_to_json``, or by ``mdpdetect gen`` for the
scenarios), ``classify`` JSON, ``mec`` JSON (model 1, model 2 and, with three
or more models, model 3), ``mec --informative`` JSON (binary cases), policy
JSON, ``--diagnostics`` JSON, single-trace CSV, batch JSON and bc CSV of
every case below are fixed points, and so are the policy and
``--diagnostics`` JSON and the bc CSV (at the benchmark's horizon) of both
benchmark workloads (``bench/specs/``). A refactor or a
speed-up of the synthesis, the episode loop or the coefficient DP must
reproduce them byte for byte. After a deliberate change of output, print the new digests with

    PYTHONPATH=src:tests python tests/test_golden.py

and say in the change log why the bytes moved.
"""

from __future__ import annotations

import builtins
import contextlib
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path
from unittest import mock

from mdpdetect.cli import main
from mdpdetect.models import mmdp_to_json

from conftest import example1_mmdp
from test_general import _recursive_instance

GRID_5X5 = {"width": 5, "height": 5, "obstacles": [[1, 1], [3, 1]],
            "goal_region": [[3, 3], [4, 3], [3, 4], [4, 4]]}
RECSYS_5X4 = {"item_count": 5, "type_count": 4, "seed": 0}

# a case with no detection policy pins its diagnostics only
CASES = ("example1-from-1", "example1-from-2", "recursive", "grid-5x5", "recsys-5x4")
BINARY = ("example1-from-1", "example1-from-2", "grid-5x5")
MULTI = ("recursive", "recsys-5x4")

# Digests of the outputs before the synthesis tail and the episode loop were
# shared. The bc CSVs are pinned from the first version that sums successors
# in sorted order; their values equal the earlier ones to within 1e-12. The
# batch-truth2 JSONs (fixed truth, short episodes, low threshold) are pinned
# from the trial-by-trial batch loop. The model files are pinned from the
# writers that ran json.dumps(..., indent=2, sort_keys=True), and so are the
# classify and mec listings.
GOLDEN = {
    "example1-from-1/classify.json": "719d7a2c6d3616cd076dbb55ab594343b7bdce7c7014cc2bf4c0ffb66bb8229b",
    "example1-from-1/diag.json": "b87bc63a53a249e7682ee4a1a5b940022c3303df1ebaf27efb638e98573730b2",
    "example1-from-1/mec-informative.json": "d1bfd7e2f638732c00e3cdaaa5c94ff4d92bddfbf41f6d5f1a85f2324d52cf2b",
    "example1-from-1/mec-model1.json": "415144510b8cef01734162ffb31f72f9f1bcf4ef35b7c2b0da848fcc11700bc0",
    "example1-from-1/mec-model2.json": "b230550e1e6304024327fde0d83ba508c1a872deaa623440a4bbe28b6f558e32",
    "example1-from-1/model.json": "f0a66fb176c3dc759770c320358a93f2fb70dd639aa1cf8788385a17a0e50134",
    "example1-from-2/batch-truth2.json": "ba873e7ab5cd4e3bff462e310540cc9f4be48f8cbacb61e3bd075df69761a8e6",
    "example1-from-2/batch.json": "cd98e64b357a10140539680dad5c67ef6275e97e909ada92be45fae99981a85a",
    "example1-from-2/bc.csv": "eb832759d55862b4ac794f470768e06e031279af0f9d6400f9b1be9a2d56a484",
    "example1-from-2/classify.json": "719d7a2c6d3616cd076dbb55ab594343b7bdce7c7014cc2bf4c0ffb66bb8229b",
    "example1-from-2/diag.json": "b2fd52d916b06f315deffa7fa5a9ed5a2f9082cc2eb4d2b8d5396903099d6527",
    "example1-from-2/mec-informative.json": "d1bfd7e2f638732c00e3cdaaa5c94ff4d92bddfbf41f6d5f1a85f2324d52cf2b",
    "example1-from-2/mec-model1.json": "415144510b8cef01734162ffb31f72f9f1bcf4ef35b7c2b0da848fcc11700bc0",
    "example1-from-2/mec-model2.json": "b230550e1e6304024327fde0d83ba508c1a872deaa623440a4bbe28b6f558e32",
    "example1-from-2/model.json": "b42daf1d47417aacc750e6980f56bc846a5deb1e57c0945f46319829efde1310",
    "example1-from-2/policy.json": "70a6d4252527a8605ef384e30ed6d50c74017192852fdb0cc6c38e30439dd4f2",
    "example1-from-2/trace.csv": "fe06e0c1eeba7616e307d673c57a9719d975956bb475b245de3a3314b35fde02",
    "grid-5x5/batch-truth2.json": "b6afc34585af42bdbc6e38ed94b75367c3f05c4ed2ac8258a17a3f1b583cd663",
    "grid-5x5/batch.json": "0807c46d825edd6cd2a018c9676a649f0fca3f1bb606aab5a829c3a25a8e51fb",
    "grid-5x5/bc.csv": "349d94e28c054570cacbdddfb425d1f01d23d7d9afffd730d7988bf10082cdec",
    "grid-5x5/classify.json": "2720734977cf314d4444188d1810459ab947bdb5f5640a07b9e558d11a591cea",
    "grid-5x5/diag.json": "6f58ce620468986d67e5917dbc00ac71e4c4474747d889b9a0ebd462ff8c2b34",
    "grid-5x5/mec-informative.json": "aaaea90e876caf6eb45c8485415829c516b4e9feb3e6dbbff515b7c42e103401",
    "grid-5x5/mec-model1.json": "8bcab15442ad351ed2e265ff2c536017deb9c4990e400dbf557e3976df4def4a",
    "grid-5x5/mec-model2.json": "8bcab15442ad351ed2e265ff2c536017deb9c4990e400dbf557e3976df4def4a",
    "grid-5x5/model.json": "f4fadb6c37a5c8e4d0ce0d631479b53b785a6620734584dbca85f7008ef190dd",
    "grid-5x5/policy.json": "a782ce6e917bcaa8b7f69eb4e359ced6b77d91a378540ef9de76fcc970e92eff",
    "grid-5x5/trace.csv": "16a4f64e415320bcefad8564d536036e37f5a502c3e13c7e37edc86401738e2e",
    "recsys-5x4/batch-truth2.json": "ed3449e440a2a894bc7707a58bfeb0d59599e63f7eac10575740b6e1c68cd8dc",
    "recsys-5x4/batch.json": "bed9386592951966a4bb4256ca04bc16990750aaf8b860397039346ccb245ed7",
    "recsys-5x4/bc.csv": "46f51f4cb20e98975a3a2e2beb19b7e48f4c6a2dff0129b8136ba6fded288649",
    "recsys-5x4/classify.json": "f9916040a6a79d7080fa091537370d396128f3d4ee5f5d991cc16e283d04ceca",
    "recsys-5x4/diag.json": "3a3ee473a98be81ecffb25b568b39496fe87fa04cd7644bbaf3b21dafd6ce4bb",
    "recsys-5x4/mec-model1.json": "dbcac1f7753b91cefb6c13a8afad3642229572f3e74fd21d2ea2e33ab10b83e0",
    "recsys-5x4/mec-model2.json": "dbcac1f7753b91cefb6c13a8afad3642229572f3e74fd21d2ea2e33ab10b83e0",
    "recsys-5x4/mec-model3.json": "dbcac1f7753b91cefb6c13a8afad3642229572f3e74fd21d2ea2e33ab10b83e0",
    "recsys-5x4/model.json": "8168637388e4cc92322485b151f3705aaf30f4627e62017fdfdbf970fb8e2533",
    "recsys-5x4/policy.json": "a11f316abde02490df0d39c8814fe1f62182916d74b56c04e9021d86d7014e7a",
    "recsys-5x4/trace.csv": "e0278d2c4b3edcf4e902c8d789e215df7b7ace96cab418c4a2573db318818c72",
    "recursive/batch-truth2.json": "32d3a05df6ab344e46fad972fa53978892a654aba2a97e15690b2750d1f4b03f",
    "recursive/batch.json": "3d586b828dbb3c45628f8fabde201523e869cd995bb005f5e2d3f236439ce290",
    "recursive/bc.csv": "113804c9be0d5ee1df23a81c2d4be6479d10fc097ca1ed4b20639c0c94fa97bb",
    "recursive/classify.json": "838574b079097545928cbd099cb6b6b456c222a8b1100b78f76028c4355dab0d",
    "recursive/diag.json": "b2281fe4b381633b040a30894b07702dcc8d223279aca7f1affe1df773762fa7",
    "recursive/mec-model1.json": "469d2abc51f620abc6de95ac687709419ccc3f74816824b6c88175e489d4a7dd",
    "recursive/mec-model2.json": "469d2abc51f620abc6de95ac687709419ccc3f74816824b6c88175e489d4a7dd",
    "recursive/mec-model3.json": "469d2abc51f620abc6de95ac687709419ccc3f74816824b6c88175e489d4a7dd",
    "recursive/model.json": "1bd10ab11ed99141bea6f2642691f8d3027e18b588cacbfa213d0d6bf5c76401",
    "recursive/policy.json": "e192932a5bc16d0c1b87592f7969dde7f62f3af027d55b98e783e5d077ecbfa7",
    "recursive/trace.csv": "a23ed1cb5a04d59684e89d500f3dcce7f2a26ca36a44f93daf96e743974741fe",
}

# The recommender's policy and diagnostics are pinned from the synthesis that
# searched and decided every (active set, entry state) subproblem on its own,
# before each active set was decided once. The bc CSVs, and the grid's policy
# and diagnostics, are pinned from the tree whose bc DP folded each step's
# masses with models._left_sum.
PAPER_SCALE = {
    "grid-40x40/bc.csv": "129eea278b67457151a5936e059c8d6c755f566b8de4b8bd1a8684e72439c3f7",
    "grid-40x40/diag.json": "0fb48d573b5e92f9b3ea8a4f833aa9e28f88091e7053ea8657c3eca4a840be2c",
    "grid-40x40/policy.json": "192c8f574168041f737e35edab813f2ab45a692a288ba1163a6b0b56f34b390d",
    "recsys-10x6/bc.csv": "cb33ad0214340d1273626a60ce9b417f7f90b3a4b0208b1537d1ede66f48a860",
    "recsys-10x6/diag.json": "001179eb0c1817c7e16ae2d590765f09db2b20d85c102bd705b2e661926af839",
    "recsys-10x6/policy.json": "a19d2f83dc3dc4ab5f46a12ee913c03fdcfc8583624edffd9c6b2f71d76acd0f",
}
SPECS = Path(__file__).resolve().parents[1] / "bench" / "specs"
BENCH_HORIZON = {"grid-40x40": 300, "recsys-10x6": 40}


def _model(case: str, work: Path) -> Path:
    path = work / case / "model.json"
    if case.startswith("example1"):
        path.write_text(mmdp_to_json(example1_mmdp(initial=case[-1])))
    elif case == "recursive":
        path.write_text(mmdp_to_json(_recursive_instance()))
    else:
        kind, spec = ("grid", GRID_5X5) if case == "grid-5x5" else ("recsys", RECSYS_5X4)
        spec_path = work / f"{case}-spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["gen", kind, str(spec_path), "--out", str(path)]) == 0
    return path


def golden_outputs(work: Path) -> dict[str, bytes]:
    """Run classify, mec, synthesize, simulate (single and batch) and bc on every case."""
    outputs: dict[str, bytes] = {}
    for case in CASES:
        out = work / case
        out.mkdir()
        model = str(_model(case, work))
        listings = [["classify", model, "--out", str(out / "classify.json")],
                    ["mec", model, "--out", str(out / "mec-model1.json")],
                    ["mec", model, "--model", "2", "--out", str(out / "mec-model2.json")]]
        if case in MULTI:
            listings.append(["mec", model, "--model", "3", "--out", str(out / "mec-model3.json")])
        if case in BINARY:
            listings.append(["mec", model, "--informative", "--out", str(out / "mec-informative.json")])
        for args in listings:
            assert main(args) == 0, args
        policy = str(out / "policy.json")
        if main(["synthesize", model, "--out", policy, "--diagnostics", str(out / "diag.json")]) == 0:
            for args in (
                ["simulate", model, policy, "--truth", "1", "--seed", "7", "--out", str(out / "trace.csv")],
                ["simulate", model, policy, "--seed", "3", "--trials", "40", "--out", str(out / "batch.json")],
                ["simulate", model, policy, "--truth", "2", "--seed", "5", "--trials", "30",
                 "--max-steps", "25", "--threshold", "0.9", "--out", str(out / "batch-truth2.json")],
                ["bc", model, policy, "--horizon", "12", "--out", str(out / "bc.csv")],
            ):
                assert main(args) == 0, args
        for path in sorted(out.iterdir()):
            outputs[f"{case}/{path.name}"] = path.read_bytes()
    return outputs


def paper_scale_outputs(work: Path) -> dict[str, bytes]:
    """Synthesize both benchmark workloads, with diagnostics, and run bc at the benchmark's horizon."""
    outputs: dict[str, bytes] = {}
    for workload, horizon in BENCH_HORIZON.items():
        out = work / workload
        out.mkdir()
        model, policy = str(out / "model.json"), str(out / "policy.json")
        assert main(["gen", workload.split("-")[0], str(SPECS / f"{workload}.json"), "--out", model]) == 0
        assert main(["synthesize", model, "--out", policy, "--diagnostics", str(out / "diag.json")]) == 0
        assert main(["bc", model, policy, "--horizon", str(horizon), "--out", str(out / "bc.csv")]) == 0
        for name in ("bc.csv", "diag.json", "policy.json"):
            outputs[f"{workload}/{name}"] = (out / name).read_bytes()
    return outputs


def digests(outputs: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def _compensated_sum(items):
    """``sum`` as Python 3.12 computes it: compensated (Neumaier) when every item is an exact
    float, and the builtin otherwise."""
    items = list(items)
    if not items or not all(type(x) is float for x in items):
        return builtins.sum(items)
    total = compensation = 0.0
    for x in items:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


def _sum_sensitive_outputs(work: Path) -> dict[str, bytes]:
    """``gen``, ``bc`` and ``bc --bounds`` on every case that has a policy."""
    outputs: dict[str, bytes] = {}
    for case in CASES:
        out = work / case
        out.mkdir()
        model = str(_model(case, work))
        policy = str(out / "policy.json")
        if main(["synthesize", model, "--out", policy]) != 0:
            continue
        n = len(json.loads((out / "model.json").read_text())["models"])
        q, theta = [repr(1 / n)] * n, [repr(2 * k / (n * (n + 1))) for k in range(1, n + 1)]
        priors = f"{','.join(q)}:{','.join(theta)}"
        for args in (
            ["bc", model, policy, "--horizon", "12", "--out", str(out / "bc.csv")],
            ["bc", model, policy, "--horizon", "12", "--bounds", priors, "--out", str(out / "bounds.csv")],
        ):
            assert main(args) == 0, args
        for name in ("model.json", "bc.csv", "bounds.csv"):
            outputs[f"{case}/{name}"] = (out / name).read_bytes()
    return outputs


def test_outputs_do_not_depend_on_how_sum_adds_floats(tmp_path):
    """Since Python 3.12 the builtin ``sum`` compensates float sums; the package's
    outputs must be the same bytes on every supported interpreter."""
    import mdpdetect.analysis  # noqa: F401  (bound on first use by the CLI)
    import mdpdetect.simulate  # noqa: F401

    (tmp_path / "plain").mkdir()
    (tmp_path / "compensated").mkdir()
    plain = _sum_sensitive_outputs(tmp_path / "plain")
    modules = [m for name, m in sys.modules.items() if name.startswith("mdpdetect.")]
    with contextlib.ExitStack() as stack:
        for module in modules:
            stack.enter_context(mock.patch.object(module, "sum", _compensated_sum, create=True))
        compensated = _sum_sensitive_outputs(tmp_path / "compensated")
    assert compensated == plain
    got = digests(compensated)
    assert [name for name in got if name in GOLDEN and got[name] != GOLDEN[name]] == []


def test_cli_outputs_match_golden_bytes(tmp_path):
    got = digests(golden_outputs(tmp_path))
    assert sorted(got) == sorted(GOLDEN)
    changed = [name for name in GOLDEN if got[name] != GOLDEN[name]]
    assert changed == []


def test_paper_scale_synthesis_matches_golden_bytes(tmp_path):
    assert digests(paper_scale_outputs(tmp_path)) == PAPER_SCALE


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {**golden_outputs(Path(tmp)), **paper_scale_outputs(Path(tmp))}
        json.dump(digests(outputs), sys.stdout, indent=4, sort_keys=True)
        print()
