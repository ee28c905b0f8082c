"""The package's public surface."""

import ast
import types
from pathlib import Path

import mdpdetect

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
