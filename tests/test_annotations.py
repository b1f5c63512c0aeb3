"""Every annotation in the package names something its module defines.

The modules postpone annotations (``from __future__ import annotations``),
so a misspelt or unimported name in one raises nothing until a tool reads
it.  ``typing.get_type_hints`` resolves each annotation of every class,
function and method the package defines, as a type checker would.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import mcgseq


def _modules():
    return [
        importlib.import_module(f"mcgseq.{info.name}")
        for info in pkgutil.iter_modules(mcgseq.__path__)
        if info.name != "__main__"  # running it runs the CLI
    ]


def _annotated(module):
    """(qualified name, object) for each class, function and method that
    ``module`` defines."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module", _modules(), ids=lambda m: m.__name__)
def test_every_annotation_resolves(module):
    unresolved = []
    for name, obj in _annotated(module):
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert not unresolved


def test_functions_and_methods_are_found():
    """A function, a class, a method, a classmethod and a property."""
    found = {name for module in _modules() for name, _ in _annotated(module)}
    expected = {"is_laminar", "Word", "GroupOracle.elements", "LaminarFamily.of",
                "GroupOracle.identity"}
    assert expected <= found
