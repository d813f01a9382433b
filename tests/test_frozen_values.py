"""Every value type of the library is immutable in one way.

A class whose body calls ``read_only(`` holds a read-only array, and it is
a ``dataclass(frozen=True, ...)``, so that rebinding an attribute raises
``dataclasses.FrozenInstanceError`` for every value alike.  A second way to
be immutable (``__slots__`` with a hand-written ``__setattr__``) is a
second copy of that rule.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "lielength"
MODULES = sorted(SOURCE.glob("*.py"))


def _is_frozen_dataclass(decorator):
    """``@dataclass(frozen=True, ...)``, the name bare or as an attribute."""
    if not isinstance(decorator, ast.Call):
        return False
    func = decorator.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return name == "dataclass" and any(
        kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
        and kw.value.value is True for kw in decorator.keywords)


def unfrozen_holders(tree):
    """Names of the classes in ``tree`` whose body calls ``read_only`` and
    that are not decorated ``dataclass(frozen=True, ...)``."""
    names = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        calls = any(isinstance(call, ast.Call) and (
            getattr(call.func, "id", None) == "read_only"
            or getattr(call.func, "attr", None) == "read_only")
            for call in ast.walk(node))
        if calls and not any(map(_is_frozen_dataclass, node.decorator_list)):
            names.append(node.name)
    return names


def test_the_rule_on_a_sample():
    tree = ast.parse(
        "@dataclass(frozen=True, eq=False)\n"
        "class A:\n    def __post_init__(self):\n        read_only(self.x)\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class B:\n    def f(self):\n        return algebra.read_only(1)\n"
        "@dataclass\n"
        "class C:\n    def f(self):\n        return read_only(1)\n"
        "@dataclass(frozen=False)\n"
        "class D:\n    def f(self):\n        return read_only(1)\n"
        "class E:\n    __slots__ = ('x',)\n"
        "    def __init__(self, x):\n        self.x = read_only(x)\n"
        "class F:\n    def f(self):\n        return 1\n")
    assert unfrozen_holders(tree) == ["C", "D", "E"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_read_only_holder_is_a_frozen_dataclass(path):
    assert unfrozen_holders(ast.parse(path.read_text())) == []
