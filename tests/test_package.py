"""The public surface: every exported name exists, and is exported once;
every module-level import is used or exported; ``python -m tripeel`` runs."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tripeel

SRC = Path(__file__).resolve().parent.parent / "src"

MODULES = ["tripeel"] + [
    f"tripeel.{m.name}" for m in pkgutil.iter_modules(tripeel.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def _unused_imports(module) -> list:
    """Module-level imported names that the module neither uses nor exports."""
    source = inspect.getsource(module)
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(getattr(module, "__all__", []))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name in used:
                continue
            unused.append(name)
    return unused


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    assert _unused_imports(importlib.import_module(name)) == []


def test_module_entry_point_runs():
    out = subprocess.run(
        [sys.executable, "-m", "tripeel", "--version"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == f"tripeel, version {tripeel.__version__}"
