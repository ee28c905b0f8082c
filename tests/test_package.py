"""The package's public surface."""

import ast
import types
from pathlib import Path

import mdpdetect
from mdpdetect import general_apd
from mdpdetect.models import mmdp_to_json

from conftest import example1_mmdp, random_sparse_cut_mmdp, rng_for
from test_general import _recursive_instance

SRC = Path(mdpdetect.__file__).parent


def _is_module(name):
    return isinstance(getattr(mdpdetect, name), types.ModuleType)


def test_star_import_binds_every_public_name_and_no_module():
    names = mdpdetect.__all__
    assert len(names) == len(set(names)) == 60
    assert not any(_is_module(name) for name in names)
    # the public names the package binds, less its submodules
    public = {name for name in dir(mdpdetect) if not name.startswith("_")}
    assert set(names) == {name for name in public if not _is_module(name)}
    assert {"analysis", "binary", "errors", "general", "graphs", "models", "policy", "scenarios"} <= public
    namespace = {}
    exec("from mdpdetect import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


# Bound only so that bench/tracer.py can wrap them in both modules: the
# synthesis tail in ``binary`` calls them, ``general`` itself does not.
_TRACER_BINDINGS = {("general.py", name) for name in ("almost_sure_reach_set", "mec_decompose", "reach_policy")}


def test_no_module_imports_a_name_it_never_uses():
    """Every imported name is read in its module, or re-exported through ``__all__``."""
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {
            name
            for node in tree.body
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)
        }
        unused |= {(path.name, name) for name in imported - read - exported}
    assert unused == _TRACER_BINDINGS


def _readme_quickstart():
    """The first python block of the README."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quickstart_runs_on_detectable_and_undetectable_models(tmp_path, monkeypatch, capsys):
    """The quickstart runs on a binary undetectable model and on 3-model models with and
    without a detection policy; only binary roots name a witness."""
    cases = {
        "binary-undetectable": (example1_mmdp(initial="1"), False),
        "three-detectable": (_recursive_instance(), True),
        "three-undetectable": (random_sparse_cut_mmdp(rng_for(1700), n_models=3, n_states=6), False),
    }
    code = compile(_readme_quickstart(), "README.md", "exec")
    for name, (mmdp, exists) in cases.items():
        assert general_apd(mmdp).exists is exists, name
        work = tmp_path / name
        work.mkdir()
        (work / "model.json").write_text(mmdp_to_json(mmdp))
        monkeypatch.chdir(work)
        exec(code, {})
        assert capsys.readouterr().out, name
