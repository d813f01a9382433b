"""The library's settable values, counted per module.

A settable value is a parameter with a default, or a dataclass field with a
default that is neither a ``ClassVar`` nor ``init=False``; CLI flags are not
counted.  A value that only tests set is a constant, so a new one needs a
deliberate edit of ``EXPECTED``.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "lielength"

EXPECTED = {"__init__": 0, "acceptance": 1, "algebra": 8, "circle": 0,
            "cli": 2, "coarse": 0, "elementary": 3, "explength": 9,
            "oracles": 6, "schatten": 3}


def _is_dataclass(node):
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def settable_values(tree):
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(
                d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(
                isinstance(st, ast.AnnAssign) and st.value is not None
                and "ClassVar" not in ast.unparse(st.annotation)
                and "init=False" not in ast.unparse(st.value)
                for st in node.body)
    return count


def test_counting_rule_on_a_sample():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n"
        "def f(a, b=1, *, c=2, d): return lambda x=0: x\n"
        "@dataclass\n"
        "class C:\n"
        "    a: int\n"
        "    b: int = 0\n"
        "    c: ClassVar[int] = 1\n"
        "    d: list = field(init=False)\n"
        "    e: list = field(default_factory=list)\n"
        "class Plain:\n"
        "    x: int = 0\n")
    assert settable_values(tree) == 5


def test_settable_values_per_module():
    counts = {path.stem: settable_values(ast.parse(path.read_text()))
              for path in sorted(SOURCE.glob("*.py"))}
    assert counts == EXPECTED
    assert sum(counts.values()) == 32
