"""The public names: every export list names something that exists, and no
module imports a name it never uses."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def _traced_names() -> set:
    """(module, attribute) of every module-level name perfbench/spans.py wraps."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    loader = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    return {(where, attr) for where, attr, *_ in spans.WRAPS if ":" not in where}


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_uses(module):
    # a name is used if the module reads it or lists it in __all__; the one
    # exception is a name the benchmark's spans wrap at this module
    mod = importlib.import_module(module)
    tree = ast.parse(Path(mod.__file__).read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(getattr(mod, "__all__", ()))
    traced = {attr for where, attr in _traced_names() if where == module}
    unused = {name: line for name, line in imported.items()
              if name not in used and name not in traced}
    assert unused == {}
