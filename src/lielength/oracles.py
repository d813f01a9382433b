"""Brute-force reference oracles for tiny instances.

These are deliberately independent of the production algorithms they
validate: the length oracle enumerates gridded factorizations instead of
optimizing, and the offset oracle enumerates integer vectors instead of
using the two-candidate closed form.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .circle import unwrap


class OracleBudgetError(RuntimeError):
    """The requested grid exceeds the oracle's instance cap."""


def _diag_phases(g):
    """Diagonal phase angles of a diagonal-unitary group element over the
    complex scalars, or the single angle grid target for 1x1 elements."""
    flat = np.asarray(g.matrix.to_flat())
    if flat.ndim != 2 or flat.shape[0] != flat.shape[1]:
        raise OracleBudgetError("oracle handles plain scalar matrices only")
    n = flat.shape[0]
    off = flat - np.diag(np.diag(flat))
    if n > 1 and np.max(np.abs(off)) > 1e-12:
        raise OracleBudgetError("oracle handles diagonal targets only")
    return np.diag(flat)


def oracle_el_bruteforce(g, grid_points=201, max_factors=2, angle_range=None,
                         candidate_cap=100_000, tol=None):
    """Exhaustive length reference for a tiny diagonal unitary (dimension
    at most 2): grid every factor's diagonal angles, multiply out, and keep
    the shortest factorization whose product lands within the grid
    tolerance of the target.

    The relaxed hit criterion means the value can sit up to one grid cell
    on either side of the true infimum over the scanned family.
    """
    phases = _diag_phases(g)
    n = len(phases)
    if n > 2:
        raise OracleBudgetError("oracle limited to dimension <= 2")
    if np.max(np.abs(np.abs(phases) - 1.0)) > 1e-9:
        raise OracleBudgetError("oracle expects a unitary (diagonal) target")
    target = np.angle(phases)
    span = angle_range if angle_range is not None else math.pi
    axis = np.linspace(-span, span, grid_points)
    resolution = axis[1] - axis[0]
    if tol is None:
        tol = 0.75 * resolution
    single_count = grid_points ** n
    total = sum(single_count ** k for k in range(1, max_factors + 1))
    if total > candidate_cap:
        raise OracleBudgetError(
            f"{total} candidates exceed the cap {candidate_cap}")
    diag_grid = list(itertools.product(axis, repeat=n))
    best = math.inf
    for k in range(1, max_factors + 1):
        for combo in itertools.product(diag_grid, repeat=k):
            summed = np.sum(np.asarray(combo), axis=0)
            miss = np.angle(np.exp(1j * (summed - target)))
            if np.max(np.abs(miss)) <= tol:
                cost = sum(max(abs(v) for v in factor) for factor in combo)
                best = min(best, cost)
    if not math.isfinite(best):
        raise OracleBudgetError("no gridded factorization hit the target")
    return best


def oracle_quotient_norm(f, offset_range=5):
    """Exhaustive minimization of the lift sup norm over integer offset
    vectors in [-offset_range, offset_range]^components."""
    lift = unwrap(f).value
    comps = f.space.graph.labels
    n_comp = int(comps.max()) + 1
    if n_comp > 6:
        raise OracleBudgetError("oracle limited to at most 6 components")
    offsets = np.arange(-offset_range, offset_range + 1, dtype=float)
    combos = np.array(list(itertools.product(offsets, repeat=n_comp)))
    shifted = lift[None, :] + combos[:, comps]
    return float(np.min(np.max(np.abs(shifted), axis=1)))
