"""Public API: every name a module exports exists, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import cvmhunet

MODULES = ["cvmhunet"] + [f"cvmhunet.{m.name}" for m in pkgutil.iter_modules(cvmhunet.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    assert [n for n in exported if not hasattr(module, n)] == []
