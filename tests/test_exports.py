"""Every name a module exports through ``__all__`` resolves, and every private
module-level name of the package is used somewhere in it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ordlines

MODULES = ["ordlines"] + [f"ordlines.{m.name}" for m in pkgutil.iter_modules(ordlines.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def _defined_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _used_names(stmt) -> set[str]:
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_private_module_name_is_used():
    # A module-level _name (function, class or constant) that no other
    # statement of the package names is dead code, left behind by its last caller.
    statements = [
        (path.name, stmt)
        for path in sorted(Path(ordlines.__file__).parent.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    used = [_used_names(stmt) for _, stmt in statements]
    unused = [
        f"{module}: {name}"
        for i, (module, stmt) in enumerate(statements)
        for name in _defined_names(stmt)
        if name.startswith("_")
        and not name.startswith("__")
        and not any(name in names for j, names in enumerate(used) if j != i)
    ]
    assert unused == []
