"""Golden bytes: the CLI outputs on small fixed instances, pinned by sha256.

The policy JSON, ``--diagnostics`` JSON, single-trace CSV, batch JSON and bc
CSV of every case below are fixed points. A refactor or a speed-up of the
synthesis, the episode loop or the coefficient DP must reproduce them byte
for byte. After a deliberate change of output, print the new digests with

    PYTHONPATH=src:tests python tests/test_golden.py

and say in the change log why the bytes moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from mdpdetect.cli import main
from mdpdetect.models import mmdp_to_json

from conftest import example1_mmdp
from test_general import _recursive_instance

GRID_5X5 = {"width": 5, "height": 5, "obstacles": [[1, 1], [3, 1]],
            "goal_region": [[3, 3], [4, 3], [3, 4], [4, 4]]}
RECSYS_5X4 = {"item_count": 5, "type_count": 4, "seed": 0}

# a case with no detection policy pins its diagnostics only
CASES = ("example1-from-1", "example1-from-2", "recursive", "grid-5x5", "recsys-5x4")

# Digests of the outputs before the synthesis tail and the episode loop were
# shared. The bc CSVs are pinned from the first version that sums successors
# in sorted order; their values equal the earlier ones to within 1e-12. The
# batch-truth2 JSONs (fixed truth, short episodes, low threshold) are pinned
# from the trial-by-trial batch loop.
GOLDEN = {
    "example1-from-1/diag.json": "b87bc63a53a249e7682ee4a1a5b940022c3303df1ebaf27efb638e98573730b2",
    "example1-from-2/batch-truth2.json": "ba873e7ab5cd4e3bff462e310540cc9f4be48f8cbacb61e3bd075df69761a8e6",
    "example1-from-2/batch.json": "dfe1bb8c17688d0bb75d43f45cc970cc723605a370db3ebaa0526ae0242aab0b",
    "example1-from-2/bc.csv": "eb832759d55862b4ac794f470768e06e031279af0f9d6400f9b1be9a2d56a484",
    "example1-from-2/diag.json": "b2fd52d916b06f315deffa7fa5a9ed5a2f9082cc2eb4d2b8d5396903099d6527",
    "example1-from-2/policy.json": "70a6d4252527a8605ef384e30ed6d50c74017192852fdb0cc6c38e30439dd4f2",
    "example1-from-2/trace.csv": "fe06e0c1eeba7616e307d673c57a9719d975956bb475b245de3a3314b35fde02",
    "grid-5x5/batch-truth2.json": "b6afc34585af42bdbc6e38ed94b75367c3f05c4ed2ac8258a17a3f1b583cd663",
    "grid-5x5/batch.json": "c35ab8b4179f5a7279605747983e451e8b16aebe26b8f410c632269fb545fbfd",
    "grid-5x5/bc.csv": "349d94e28c054570cacbdddfb425d1f01d23d7d9afffd730d7988bf10082cdec",
    "grid-5x5/diag.json": "6f58ce620468986d67e5917dbc00ac71e4c4474747d889b9a0ebd462ff8c2b34",
    "grid-5x5/policy.json": "a782ce6e917bcaa8b7f69eb4e359ced6b77d91a378540ef9de76fcc970e92eff",
    "grid-5x5/trace.csv": "16a4f64e415320bcefad8564d536036e37f5a502c3e13c7e37edc86401738e2e",
    "recsys-5x4/batch-truth2.json": "ed3449e440a2a894bc7707a58bfeb0d59599e63f7eac10575740b6e1c68cd8dc",
    "recsys-5x4/batch.json": "93a2dda44fe865298a78673dd97a97b9f5a7b7a8d8b9fbc581551fd1f2820fe2",
    "recsys-5x4/bc.csv": "46f51f4cb20e98975a3a2e2beb19b7e48f4c6a2dff0129b8136ba6fded288649",
    "recsys-5x4/diag.json": "3a3ee473a98be81ecffb25b568b39496fe87fa04cd7644bbaf3b21dafd6ce4bb",
    "recsys-5x4/policy.json": "a11f316abde02490df0d39c8814fe1f62182916d74b56c04e9021d86d7014e7a",
    "recsys-5x4/trace.csv": "e0278d2c4b3edcf4e902c8d789e215df7b7ace96cab418c4a2573db318818c72",
    "recursive/batch-truth2.json": "32d3a05df6ab344e46fad972fa53978892a654aba2a97e15690b2750d1f4b03f",
    "recursive/batch.json": "de8cce38cfe56bd5e737cec73b976298dd53ae3357c59d958aaf590cada4e939",
    "recursive/bc.csv": "113804c9be0d5ee1df23a81c2d4be6479d10fc097ca1ed4b20639c0c94fa97bb",
    "recursive/diag.json": "b2281fe4b381633b040a30894b07702dcc8d223279aca7f1affe1df773762fa7",
    "recursive/policy.json": "e192932a5bc16d0c1b87592f7969dde7f62f3af027d55b98e783e5d077ecbfa7",
    "recursive/trace.csv": "a23ed1cb5a04d59684e89d500f3dcce7f2a26ca36a44f93daf96e743974741fe",
}


def _model(case: str, work: Path) -> Path:
    path = work / f"{case}.json"
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
    """Run synthesize, simulate (single and batch) and bc on every case."""
    outputs: dict[str, bytes] = {}
    for case in CASES:
        model = str(_model(case, work))
        out = work / case
        out.mkdir()
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


def digests(outputs: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def test_cli_outputs_match_golden_bytes(tmp_path):
    got = digests(golden_outputs(tmp_path))
    assert sorted(got) == sorted(GOLDEN)
    changed = [name for name in GOLDEN if got[name] != GOLDEN[name]]
    assert changed == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(digests(golden_outputs(Path(tmp))), sys.stdout, indent=4, sort_keys=True)
        print()
