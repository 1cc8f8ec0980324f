"""Public surface: each module's ``__all__`` names exactly its public functions and classes,
and the package's own code reads every name it exports and every public method."""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import pkgutil
from pathlib import Path

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


def _names_read_in_the_package() -> set[str]:
    """Every name the package's source reads, as a name or an attribute."""
    reads = set()
    for path in Path(causet_qft.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return reads


def test_every_exported_name_is_read_in_the_package():
    """No test-only code in the package: each ``__all__`` name is read somewhere in its
    source, as a name or an attribute.  Helpers only the tests call live in ``oracles``."""
    reads = _names_read_in_the_package()
    unread = [
        f"{module.__name__}.{name}"
        for module in [causet_qft, *MODULES]
        for name in getattr(module, "__all__", ())
        if name not in reads
    ]
    assert unread == []


# Read from outside the package: the benchmark's tracer wraps it as a layer boundary.
UNREAD_METHODS = {"causet_qft.fock.FieldOperator.as_matrix"}


def test_every_public_method_is_read_in_the_package():
    """The same for the public methods and properties of the package's classes: each is read
    somewhere in the source, by name, unless it is listed as read from outside."""
    reads = _names_read_in_the_package()
    kinds = (property, functools.cached_property, staticmethod, classmethod)
    members = [
        (f"{module.__name__}.{cls.__name__}.{name}", name)
        for module in MODULES
        for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == module.__name__
        for name, obj in vars(cls).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or isinstance(obj, kinds))
    ]
    assert len(members) > 20
    unread = [qualified for qualified, name in members if name not in reads and qualified not in UNREAD_METHODS]
    assert unread == []
