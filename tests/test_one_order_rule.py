"""Every inequality the library checks reads one order rule.

``algebra.in_order(lower, upper)`` is lower <= upper up to 1e-9 (1 + upper).
A comparison that writes its own ``<expr> + 1e-9`` or ``<expr> - 1e-9``
states a second, absolute slack beside it, and a second ``def in_order`` a
second rule.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "lielength"
MODULES = sorted(SOURCE.glob("*.py"))


def _is_the_slack(node):
    return isinstance(node, ast.Constant) and node.value == 1e-9


def _states_the_slack(node):
    """``<expr> + 1e-9``, ``1e-9 + <expr>`` or ``<expr> - 1e-9``."""
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.Add):
        return _is_the_slack(node.left) or _is_the_slack(node.right)
    return isinstance(node.op, ast.Sub) and _is_the_slack(node.right)


def own_slacks(tree):
    """Line numbers of the comparisons in ``tree`` with an operand
    ``<expr> + 1e-9`` or ``<expr> - 1e-9``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Compare)
                  and any(map(_states_the_slack,
                              [node.left, *node.comparators])))


def order_rules(tree):
    return [node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "in_order"]


def test_the_rule_on_a_sample():
    tree = ast.parse("a = x <= y + 1e-9\n"
                     "b = 1e-9 + y >= x\n"
                     "c = lhs <= mid + 1e-9 and mid <= rhs\n"
                     "d = x <= y + 1e-9 * (1.0 + y)\n"
                     "e = x <= y + 1e-12\n"
                     "f = y + 1e-9\n"
                     "g = exact - 1e-9 <= upper <= 1.05 * exact\n"
                     "h = x - 1e-12 <= y\n"
                     "def in_order(lower, upper):\n    return lower <= upper\n")
    assert own_slacks(tree) == [1, 2, 3, 7]
    assert order_rules(tree) == ["in_order"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_comparison_states_its_own_slack(path):
    assert own_slacks(ast.parse(path.read_text())) == []


def test_the_order_rule_is_defined_once_in_algebra():
    homes = [path.stem for path in MODULES
             for _ in order_rules(ast.parse(path.read_text()))]
    assert homes == ["algebra"]
