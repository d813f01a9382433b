"""Exact length computation for circle-valued functions on a graph.

A circle-valued function is stored as one phase in [0, 1) per vertex of a
finite graph that discretizes a compact space.  Adequate sampling means that
adjacent phases differ by less than 1/2 on the circle, so each edge has a
unique nearest real representative of its phase increment.  Unwrapping
propagates those increments along a spanning tree; integer windings around
the fundamental cycles detect functions outside the identity component.

The length of an identity-component function is 2*pi times the quotient
norm: the smallest sup norm of a real lift, minimized over the integer
constants (one per connected component) that parameterize all lifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    BanachAlgebra,
    finite_floats,
    function_algebra,
    json_fields,
    read_only,
)

SAMPLING_GUARD = 1e-12
WINDING_INT_TOL = 1e-6


class SamplingConditionError(ValueError):
    """An edge joins phases at circular distance >= 1/2: the discretization
    is declared inadequate and the input is rejected."""


class WindingError(ValueError):
    """A fundamental cycle carries nonzero winding: the function is not in
    the identity component, so no continuous real lift exists."""


# A discretized compact space X is the function algebra C(X) on its graph:
# one value, whose cached ``graph`` every circle function on it reads.
DiscretizedSpace = function_algebra


def circular_distance(s, t):
    """Distance of two phases on R/Z, in [0, 1/2], elementwise."""
    d = np.abs(s - t) % 1.0
    return np.minimum(d, 1.0 - d)


def nearest_increment(s, t):
    """The unique representative in [-1/2, 1/2) of t - s mod 1, elementwise."""
    d = (t - s) % 1.0
    return np.where(d >= 0.5, d - 1.0, d)


@dataclass(frozen=True, eq=False)
class CircleFunction:
    """Phases in [0, 1) on the vertices of a discretized space."""

    space: BanachAlgebra
    phase: np.ndarray

    def __post_init__(self):
        phase = finite_floats(self.phase, "phases")
        if phase.shape != (self.space.vertices,):
            raise ValueError("one phase per vertex required")
        phase = read_only(phase % 1.0)
        object.__setattr__(self, "phase", phase)
        tails, heads = self.space.graph.tails, self.space.graph.heads
        bad = circular_distance(phase[tails], phase[heads]) >= 0.5 - SAMPLING_GUARD
        if bad.any():
            u, v = self.space.edges[bad.argmax()]
            raise SamplingConditionError(
                f"edge ({u},{v}) joins phases at circular distance "
                f">= 1/2; refine the discretization")

    def multiply(self, other):
        """Pointwise product: phases add mod 1."""
        if self.space != other.space:
            raise ValueError("mismatched spaces")
        return CircleFunction(self.space, (self.phase + other.phase) % 1.0)

    def inverse(self):
        return CircleFunction(self.space, (-self.phase) % 1.0)

    def to_json(self):
        return {"vertices": self.space.vertices,
                "edges": [list(e) for e in self.space.edges],
                "phase": self.phase.tolist()}

    @classmethod
    def from_json(cls, doc):
        vertices, phase = json_fields(doc, "a circle function", "vertices",
                                      "phase")
        return cls(function_algebra(vertices, doc.get("edges", [])), phase)


@dataclass(frozen=True, eq=False)
class RealLift:
    """A real-valued lift of a circle function: value mod 1 equals the phase
    at every vertex and edge increments are the nearest representatives."""

    value: np.ndarray
    base: CircleFunction

    def __post_init__(self):
        value = read_only(self.value, float)
        object.__setattr__(self, "value", value)
        wrap = np.abs((value - self.base.phase + 0.5) % 1.0 - 0.5)
        if np.max(wrap) > 1e-12:
            raise ValueError("lift does not reduce to the phases mod 1")
        space = self.base.space
        tails, heads = space.graph.tails, space.graph.heads
        inc = nearest_increment(self.base.phase[tails], self.base.phase[heads])
        bad = np.abs((value[heads] - value[tails]) - inc) > 1e-9
        if bad.any():
            u, v = space.edges[bad.argmax()]
            raise ValueError(f"edge ({u},{v}) increment is not the "
                             "nearest representative")


def _tree_lift(f):
    """Propagate nearest increments along the spanning forest, then read off
    the cycle windings.  Root value is the root's phase in [0, 1).  Returns
    (lift, windings) where windings maps each non-tree edge to the integer
    winding of its fundamental cycle."""
    graph, phase = f.space.graph, f.phase
    tails, heads = graph.tree.T
    steps = nearest_increment(phase[tails], phase[heads])
    lift = phase.tolist()
    # tree edges come in visiting order: every tail is lifted before its edge
    for u, v, step in zip(tails.tolist(), heads.tolist(), steps.tolist()):
        lift[v] = lift[u] + step
    lift = np.array(lift)
    tails, heads = graph.nontree.T
    w = lift[tails] + nearest_increment(phase[tails], phase[heads]) - lift[heads]
    k = np.round(w)
    off = np.abs(w - k) > WINDING_INT_TOL
    if off.any():
        u, v = graph.nontree[off.argmax()].tolist()
        raise ArithmeticError(
            f"winding of cycle through edge ({u},{v}) is not an integer")
    return lift, dict(zip(map(tuple, graph.nontree.tolist()),
                          k.astype(int).tolist()))


def identity_component_check(f):
    """True iff every fundamental cycle has winding number 0.

    Returns (ok, windings) where windings maps each non-tree edge to the
    integer winding of its fundamental cycle.
    """
    _, windings = _tree_lift(f)
    return all(k == 0 for k in windings.values()), windings


def unwrap(f):
    """Real lift of an identity-component circle function.

    Raises WindingError when some cycle winds, SamplingConditionError is
    raised earlier at construction of the input.
    """
    lift, windings = _tree_lift(f)
    bad = {e: k for e, k in windings.items() if k != 0}
    if bad:
        raise WindingError(f"nonzero cycle windings {bad}: "
                           "not in the identity component")
    return RealLift(lift, f)


def quotient_norm(f):
    """Minimal sup norm of a real lift of f over the per-component integer
    offsets.  Requires f in the identity component.

    On a component whose lift spans [lo, hi] the best offset is one of the
    two integers bracketing -(lo + hi)/2, so both are tried."""
    lift = unwrap(f).value
    labels = f.space.graph.labels
    lo, hi = np.full((2, labels.max() + 1), [[np.inf], [-np.inf]])
    np.minimum.at(lo, labels, lift)
    np.maximum.at(hi, labels, lift)
    center = -(lo + hi) / 2.0
    k = np.stack([np.floor(center), np.ceil(center)])
    return float(np.maximum(np.abs(lo + k), np.abs(hi + k)).min(axis=0).max())


def cel(f):
    """Exponential length of the unitary e^{2 pi i f}: 2*pi times the
    quotient norm of f."""
    return 2.0 * math.pi * quotient_norm(f)
