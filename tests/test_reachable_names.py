"""Every public name of the library is read by the library or the benchmark.

A public top-level function or class of a ``src/lielength`` module must be
read by name, as a bare name or an attribute, and a public method as an
attribute, somewhere in ``src/lielength`` or in the benchmark's own modules
under ``bench/``.  A definition is no read, and neither is a re-export of
the package ``__init__``.  Test modules are no readers, so a check that
only tests reach counts as unread.  ``EXCEPTIONS`` lists the names kept
without a reader, each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "lielength"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
READERS = MODULES + sorted(p for p in (ROOT / "bench").glob("*.py")
                           if not p.name.startswith("test_"))

# A module name stands for every public name it defines.
EXCEPTIONS = {
    "algebra.connected_components":
        "a bench/tracing.py span names it as a string; it goes when that "
        "span moves to spanning_forest",
    "algebra.scalar_real": "value-type API: the real scalars' constructor",
    "algebra.group_to_json": "value-type API: the writer of a group element",
    "coarse.SampledSpace.d": "value-type API: the distance of two points",
    "circle.CircleFunction.multiply": "value-type API: the group product",
    "oracles": "the test reference implementations",
}


def public_definitions(tree, module):
    """(qualified name, name, is a method) of each public top-level function
    or class of ``tree`` and of each public method of its classes."""
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            out.append((f"{module}.{node.name}", node.name, False))
        if isinstance(node, ast.ClassDef):
            out += [(f"{module}.{node.name}.{sub.name}", sub.name, True)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not sub.name.startswith("_")]
    return out


def reads(trees):
    """The bare names and the attribute names that ``trees`` load."""
    names, attributes = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                attributes.add(node.attr)
    return names, attributes


def unread(definitions, readers, exceptions):
    """Qualified names of ``definitions`` (module name -> tree) that no tree
    of ``readers`` reads, apart from ``exceptions``."""
    names, attributes = reads(readers)
    out = []
    for module, tree in definitions.items():
        if module in exceptions:
            continue
        for qualified, name, is_method in public_definitions(tree, module):
            seen = name in attributes or not is_method and name in names
            if not seen and qualified not in exceptions:
                out.append(qualified)
    return out


def library():
    """The module trees by module name, and the trees of every reader."""
    return ({p.stem: ast.parse(p.read_text()) for p in MODULES},
            [ast.parse(p.read_text()) for p in READERS])


def test_the_rule_on_a_sample():
    """An import is no read, a bare name reads no method, and an excepted
    name or module is not asked for."""
    module = ast.parse(
        "def used():\n    pass\n"
        "def unused():\n    pass\n"
        "def _private():\n    pass\n"
        "def kept():\n    pass\n"
        "class Value:\n"
        "    def read(self):\n        return used()\n"
        "    def unread(self):\n        pass\n"
        "    def named(self):\n        pass\n"
        "    def __eq__(self, other):\n        pass\n")
    reader = ast.parse("from m import unused\n"
                       "def f(v, named):\n    return v.read(), named\n")
    oracles = ast.parse("def ref():\n    pass\n")
    definitions = {"m": module, "oracles": oracles}
    assert unread(definitions, [module, reader], {"m.kept", "oracles"}) == [
        "m.unused", "m.Value", "m.Value.unread", "m.Value.named"]


def test_every_exception_is_a_module_or_an_unread_definition():
    """An excepted name that gains a reader, or loses its definition, leaves
    the table."""
    definitions, readers = library()
    found = set(unread(definitions, readers, set()))
    assert [e for e in EXCEPTIONS
            if e not in definitions and e not in found] == []


def test_every_public_name_is_read():
    definitions, readers = library()
    assert unread(definitions, readers, EXCEPTIONS) == []
