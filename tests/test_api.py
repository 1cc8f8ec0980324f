"""Public surface: each module's ``__all__`` names exactly its public functions and classes."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import causet_qft

MODULES = [
    importlib.import_module(f"causet_qft.{info.name}") for info in pkgutil.iter_modules(causet_qft.__path__)
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_is_exact(module):
    def is_code(obj):
        return inspect.isfunction(obj) or inspect.isclass(obj)

    assert all(hasattr(module, name) for name in module.__all__)
    assert len(set(module.__all__)) == len(module.__all__)
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_") and is_code(obj) and obj.__module__ == module.__name__
    }
    exported = {name for name in module.__all__ if is_code(getattr(module, name))}
    assert exported == defined
