"""The public names: every export list names something that exists."""

import importlib
import pkgutil

import pytest

import httq

MODULES = ["httq", *(f"httq.{m.name}" for m in pkgutil.iter_modules(httq.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(mod, name)] == []
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(exported) <= set(namespace)

