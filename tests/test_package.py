"""The package's public surface."""

import types

import mdpdetect


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
