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

from .algebra import connected_components

SAMPLING_GUARD = 1e-12
WINDING_INT_TOL = 1e-6


class SamplingConditionError(ValueError):
    """An edge joins phases at circular distance >= 1/2: the discretization
    is declared inadequate and the input is rejected."""


class WindingError(ValueError):
    """A fundamental cycle carries nonzero winding: the function is not in
    the identity component, so no continuous real lift exists."""


@dataclass(frozen=True)
class DiscretizedSpace:
    """Vertex/edge discretization of a compact space.  Components are the
    connected components of the graph."""

    vertices: int
    edges: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "edges",
                           tuple((int(u), int(v)) for u, v in self.edges))
        for u, v in self.edges:
            if not (0 <= u < self.vertices and 0 <= v < self.vertices):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError("self-loops are not allowed")

    @property
    def components(self):
        return connected_components(self.vertices, self.edges)


def circular_distance(s, t):
    """Distance of two phases on R/Z, in [0, 1/2]."""
    d = abs(s - t) % 1.0
    return min(d, 1.0 - d)


def nearest_increment(s, t):
    """The unique representative in (-1/2, 1/2) of t - s mod 1."""
    d = (t - s) % 1.0
    return d - 1.0 if d >= 0.5 else d


@dataclass(frozen=True)
class CircleFunction:
    """Phases in [0, 1) on the vertices of a discretized space."""

    space: DiscretizedSpace
    phase: np.ndarray

    def __post_init__(self):
        phase = np.asarray(self.phase, dtype=float)
        if phase.shape != (self.space.vertices,):
            raise ValueError("one phase per vertex required")
        if not np.all(np.isfinite(phase)):
            raise ValueError("phases must be finite")
        phase = phase % 1.0
        object.__setattr__(self, "phase", phase)
        for u, v in self.space.edges:
            if circular_distance(phase[u], phase[v]) >= 0.5 - SAMPLING_GUARD:
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
        space = DiscretizedSpace(doc["vertices"], doc.get("edges", []))
        return cls(space, np.asarray(doc["phase"], dtype=float))


@dataclass(frozen=True)
class RealLift:
    """A real-valued lift of a circle function: value mod 1 equals the phase
    at every vertex and edge increments are the nearest representatives."""

    space: DiscretizedSpace
    value: np.ndarray
    base: CircleFunction

    def __post_init__(self):
        value = np.asarray(self.value, dtype=float)
        object.__setattr__(self, "value", value)
        wrap = np.abs((value - self.base.phase + 0.5) % 1.0 - 0.5)
        if np.max(wrap) > 1e-12:
            raise ValueError("lift does not reduce to the phases mod 1")
        for u, v in self.space.edges:
            inc = nearest_increment(self.base.phase[u], self.base.phase[v])
            if abs((value[v] - value[u]) - inc) > 1e-9:
                raise ValueError(f"edge ({u},{v}) increment is not the "
                                 "nearest representative")


def _spanning_forest(space):
    """Deterministic BFS spanning forest: (roots, tree_edges, nontree_edges),
    one root per component, the smallest vertex in it, and tree edges
    oriented away from it."""
    adjacency = [[] for _ in range(space.vertices)]
    for idx, (u, v) in enumerate(space.edges):
        adjacency[u].append((v, idx))
        adjacency[v].append((u, idx))
    visited = [False] * space.vertices
    in_tree = [False] * len(space.edges)
    roots = []
    tree_edges = []
    for root in range(space.vertices):
        if visited[root]:
            continue
        visited[root] = True
        roots.append(root)
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v, idx in sorted(adjacency[u]):
                if not visited[v]:
                    visited[v] = True
                    in_tree[idx] = True
                    tree_edges.append((u, v))
                    queue.append(v)
    nontree = [e for idx, e in enumerate(space.edges) if not in_tree[idx]]
    return roots, tree_edges, nontree


def _tree_lift(f):
    """Propagate nearest increments along the spanning forest, then read off
    the cycle windings.  Root value is the root's phase in [0, 1).

    Returns (lift, windings) where windings maps each non-tree edge to the
    integer winding of its fundamental cycle.
    """
    roots, tree_edges, nontree = _spanning_forest(f.space)
    lift = np.array(f.phase, dtype=float)
    children = {}
    for u, v in tree_edges:
        children.setdefault(u, []).append(v)
    for root in roots:
        stack = [root]
        while stack:
            u = stack.pop()
            for v in children.get(u, []):
                lift[v] = lift[u] + nearest_increment(f.phase[u], f.phase[v])
                stack.append(v)
    windings = {}
    for u, v in nontree:
        w = lift[u] + nearest_increment(f.phase[u], f.phase[v]) - lift[v]
        k = round(w)
        if abs(w - k) > WINDING_INT_TOL:
            raise ArithmeticError(
                f"winding of cycle through edge ({u},{v}) is not an integer")
        windings[(u, v)] = int(k)
    return lift, windings


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
    return RealLift(f.space, lift, f)


def _component_offset_norm(lo, hi):
    """min over integers k of max(|lo + k|, |hi + k|), computed exactly from
    the two integers bracketing -(lo + hi)/2."""
    center = -(lo + hi) / 2.0
    best = math.inf
    for k in (math.floor(center), math.ceil(center)):
        best = min(best, max(abs(lo + k), abs(hi + k)))
    return best


def quotient_norm(f):
    """Minimal sup norm of a real lift of f over the per-component integer
    offsets.  Requires f in the identity component."""
    lift = unwrap(f).value
    comps = np.asarray(f.space.components)
    worst = 0.0
    for c in np.unique(comps):
        vals = lift[comps == c]
        worst = max(worst, _component_offset_norm(float(vals.min()),
                                                  float(vals.max())))
    return worst


def cel(f):
    """Exponential length of the unitary e^{2 pi i f}: 2*pi times the
    quotient norm of f."""
    return 2.0 * math.pi * quotient_norm(f)
