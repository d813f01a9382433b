"""Every name a library module imports is used in that module.

The package ``__init__`` is left out: its imports are its exports.  An
import whose last use was deleted is dead code that still costs a load and
misleads a reader about what the module depends on.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "lielength"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree):
    """Names bound by an import anywhere in ``tree`` and never read as a
    bare name (``import a.b`` binds ``a``); ``__future__`` imports bind
    nothing."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_rule_on_a_sample():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport numpy as np\n"
                     "from .algebra import FUNCTIONS, MATRIX\n"
                     "def f():\n    from .x import y\n    return MATRIX, os\n")
    assert unused_imports(tree) == ["FUNCTIONS", "np", "y"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []
