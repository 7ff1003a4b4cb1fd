"""The package's public names: every exported name resolves."""

import importlib
import pkgutil

import pytest

import subrec

MODULES = ["subrec"] + sorted(
    f"subrec.{info.name}" for info in pkgutil.iter_modules(subrec.__path__)
)


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name}"


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from subrec import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(subrec.__all__)


def test_there_is_no_geometry_module():
    assert "subrec.geometry" not in MODULES
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("subrec.geometry")
