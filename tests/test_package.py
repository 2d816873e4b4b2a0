"""The public surface: every exported name exists, and is exported once."""

import importlib
import pkgutil

import pytest

import tripeel

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
