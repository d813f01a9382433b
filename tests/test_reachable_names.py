"""Every public name of the library is read by the library or the benchmark.

A public top-level function or class of a ``src/lielength`` module must be
read by name, as a bare name or an attribute, and a public method as an
attribute, somewhere in ``src/lielength`` or in the benchmark's own modules
under ``bench/``.  A definition is no read, and neither is a re-export of
the package ``__init__``.  Test modules are no readers, so a check that
only tests reach counts as unread.  ``EXCEPTIONS`` lists the names kept
without a reader, each with its reason.

A read of ``.name`` counts for every class that defines a method ``name``,
so ``SHARED_METHODS`` names, for each method another class shares, the
function that reads it or the reason it is kept without one.
"""

import ast
import collections
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

# Each public method whose name another library class also defines: its
# reader, ``module.function`` or ``module.Class.method``, whose body reads
# the attribute, or, in words, why it is kept without one.
SHARED_METHODS = {
    "algebra.GroupElement.check_invariants":
        "algebra.GroupElement.__post_init__",
    "explength.FactorizationCertificate.check_invariants":
        "elementary.hs_determinant",
    "circle.CircleFunction.from_json": "cli._cmd_cel",
    "explength.FactorizationCertificate.from_json":
        "value-type API: the reader of a certificate",
    "algebra.MatrixOverAlgebra.identity": "explength._initial_certificates",
    "algebra.GroupElement.identity":
        "explength.FactorizationCertificate.from_factors",
    "schatten.PUnitary.identity": "schatten.geodesic_chain",
    "algebra.MatrixOverAlgebra.inverse": "explength._initial_certificates",
    "algebra.GroupElement.inverse": "explength._lower_bound",
    "circle.CircleFunction.inverse": "value-type API: the group inverse",
    "schatten.PUnitary.inverse": "value-type API: the group inverse",
    "circle.CircleFunction.to_json":
        "value-type API: the writer of a circle function",
    "explength.FactorizationCertificate.to_json": "explength.ElBracket.to_json",
    "explength.ElBracket.to_json": "cli._cmd_el",
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


def shared_methods(definitions):
    """Qualified names of the public methods of ``definitions`` (module
    name -> tree) whose name another class there also defines."""
    owners = collections.defaultdict(list)
    for module, tree in definitions.items():
        for qualified, name, is_method in public_definitions(tree, module):
            if is_method:
                owners[name].append(qualified)
    return sorted(q for found in owners.values() if len(found) > 1
                  for q in found)


def reads_attribute(definitions, reader, name):
    """Whether ``reader``, ``module.function`` or ``module.Class.method`` of
    ``definitions``, is defined and loads the attribute ``name``."""
    module, *path = reader.split(".")
    node = definitions.get(module)
    for part in path:
        node = next((sub for sub in getattr(node, "body", [])
                     if isinstance(sub, (ast.FunctionDef, ast.ClassDef))
                     and sub.name == part), None)
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
        and sub.attr == name for sub in ast.walk(node))


def misread(definitions, table):
    """The entries of ``table`` whose reader does not read their method; an
    entry with a space is a reason, not a reader."""
    return [f"{q}: {reader}" for q, reader in table.items()
            if " " not in reader
            and not reads_attribute(definitions, reader, q.rsplit(".")[-1])]


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


def test_the_shared_method_rule_on_a_sample():
    """Two classes that define ``inverse`` share it; each entry needs a
    reader that loads ``.inverse``, or a reason."""
    module = ast.parse(
        "class A:\n    def inverse(self):\n        pass\n"
        "    def only(self):\n        pass\n"
        "class B:\n    def inverse(self):\n        return self\n"
        "def uses(a):\n    return a.inverse()\n"
        "def other(a):\n    return a.only()\n")
    definitions = {"m": module}
    assert shared_methods(definitions) == ["m.A.inverse", "m.B.inverse"]
    table = {"m.A.inverse": "m.uses", "m.B.inverse": "kept for a reason"}
    assert misread(definitions, table) == []
    table = {"m.A.inverse": "m.other", "m.B.inverse": "m.B.inverse"}
    assert misread(definitions, table) == ["m.A.inverse: m.other",
                                           "m.B.inverse: m.B.inverse"]


def test_every_shared_method_names_its_reader_or_a_reason():
    """The table lists each shared method, and no other name."""
    definitions, _ = library()
    assert sorted(SHARED_METHODS) == shared_methods(definitions)
    assert misread(definitions, SHARED_METHODS) == []
