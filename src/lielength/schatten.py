"""Finite-dimensional p-Schatten unitary groups.

The group consists of d-by-d unitaries u metrized by d(u, v) = |u - v|_p,
where |.|_p is the Schatten p-norm with respect to a weighted trace
tau(x) = sum_i w_i x_ii (all weights 1 by default).  With non-uniform
weights the functional is positive but tracial only when the weights are
constant on blocks; bi-invariance of the metric is guaranteed for uniform
weights and all inequalities proved by spectral calculus (the exp sandwich,
chain step bounds) hold for any positive weights.

Self-adjoint logarithms are normalized to operator norm at most pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import exp_i_selfadjoint, read_only, unitary_spectrum

EXP_LIPSCHITZ_BOUND = math.e  # telescoping bound 1 + sum_k 1/(k-1)!


@dataclass(frozen=True)
class SchattenContext:
    """Hilbert dimension, exponent p >= 1, and positive trace weights."""

    dim: int
    p: float
    weights: np.ndarray = None

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        w = read_only(np.ones(self.dim) if self.weights is None
                      else self.weights, float)
        if w.shape != (self.dim,) or np.any(w <= 0):
            raise ValueError("weights must be positive, one per dimension")
        object.__setattr__(self, "weights", w)


def p_norm(a, context):
    """Weighted Schatten p-norm via the singular spectrum: with |a| = V S V*,
    |a|_p^p = sum_j (sum_i w_i |V_ij|^2) s_j^p."""
    a = np.asarray(a, dtype=complex)
    gram = a.conj().T @ a
    s2, vecs = np.linalg.eigh(gram)
    s = np.sqrt(np.clip(s2, 0.0, None))
    vertex_weights = context.weights @ (np.abs(vecs) ** 2)
    return float(np.sum(vertex_weights * s ** context.p) ** (1.0 / context.p))


@dataclass(frozen=True)
class PUnitary:
    """A unitary in the p-Schatten unitary group of its context."""

    context: SchattenContext
    matrix: np.ndarray

    def __post_init__(self):
        m = read_only(self.matrix, complex)
        if m.shape != (self.context.dim, self.context.dim):
            raise ValueError("matrix shape does not match context dimension")
        if np.linalg.norm(m.conj().T @ m - np.eye(self.context.dim)) > 1e-9:
            raise ValueError("matrix is not unitary within 1e-9")
        object.__setattr__(self, "matrix", m)

    def dist_to(self, other):
        return p_norm(self.matrix - other.matrix, self.context)

    def dist_to_identity(self):
        return p_norm(self.matrix - np.eye(self.context.dim), self.context)

    def inverse(self):
        return PUnitary(self.context, self.matrix.conj().T)

    def __matmul__(self, other):
        return PUnitary(self.context, self.matrix @ other.matrix)

    def principal_log_selfadjoint(self):
        """The self-adjoint a with u = e^{ia} and |a|_inf <= pi, on the
        principal branch of ``unitary_spectrum``."""
        _, theta, z = unitary_spectrum(self.matrix)
        a = (z * theta) @ z.conj().T
        return 0.5 * (a + a.conj().T)

    @classmethod
    def identity(cls, context):
        return cls(context, np.eye(context.dim))

    @classmethod
    def from_selfadjoint(cls, a, context):
        a = np.asarray(a, dtype=complex)
        lam, vecs = np.linalg.eigh(a)
        return cls(context, exp_i_selfadjoint(lam, vecs))


def random_selfadjoint(dim, rng, operator_norm=math.pi):
    """Random self-adjoint matrix rescaled to the requested operator norm."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = 0.5 * (m + m.conj().T)
    top = np.max(np.abs(np.linalg.eigvalsh(a)))
    return a * (operator_norm / top)


def random_punitary(context, rng, operator_norm=math.pi):
    return PUnitary.from_selfadjoint(
        random_selfadjoint(context.dim, rng, operator_norm), context)


def sandwich_check(a, context, slack=1e-9):
    """The two-sided estimate (|a|_p / 2, |e^{ia} - 1|_p, |a|_p).

    Requires |a|_inf <= pi.  Raises AssertionError if either inequality
    fails beyond the numeric slack.
    """
    a = np.asarray(a, dtype=complex)
    if np.linalg.norm(a - a.conj().T) > 1e-9 * (1 + np.linalg.norm(a)):
        raise ValueError("input must be self-adjoint")
    lam = np.linalg.eigvalsh(a)
    if np.max(np.abs(lam)) > math.pi + 1e-12:
        raise ValueError("spectrum outside [-pi, pi]")
    u = PUnitary.from_selfadjoint(a, context)
    lhs = 0.5 * p_norm(a, context)
    mid = u.dist_to_identity()
    rhs = p_norm(a, context)
    if not (lhs <= mid + slack and mid <= rhs + slack):
        raise AssertionError(
            f"sandwich violated: {lhs} <= {mid} <= {rhs} fails")
    return lhs, mid, rhs


def coarse_proper_chain(u, delta_cap, step):
    """Chain 1 = u_0, ..., u_k = u with every step below ``step``, witnessing
    coarse properness of the metric for d(u, 1) < delta_cap.

    k is the smallest admissible count: 1 when a single step suffices, else
    the least integer exceeding max(pi/step, 2*delta_cap/step).
    """
    d0 = u.dist_to_identity()
    if not d0 < delta_cap:
        raise ValueError(f"d(u,1) = {d0} is not below delta_cap = {delta_cap}")
    one = PUnitary.identity(u.context)
    if d0 == 0.0:
        return [one]
    if d0 < step:
        return [one, u]
    k = math.floor(max(math.pi / step, 2.0 * delta_cap / step)) + 1
    chain = _subdivided_chain(u, k)
    steps = [chain[j].dist_to(chain[j + 1]) for j in range(k)]
    if max(steps) >= step:
        raise AssertionError("subdivided chain exceeded the step bound")
    return chain


def _subdivided_chain(u, k):
    a = u.principal_log_selfadjoint()
    lam, vecs = np.linalg.eigh(a)
    chain = [PUnitary.identity(u.context)]
    for j in range(1, k + 1):
        m = exp_i_selfadjoint(lam * (j / k), vecs)
        chain.append(PUnitary(u.context, m))
    return chain


@dataclass
class GeodesicChainReport:
    chain: list
    step_lengths: list
    sum_of_steps: float
    distance: float

    @property
    def satisfies_large_scale_geodesic(self):
        if not self.step_lengths:
            return True
        return (max(self.step_lengths) <= 2.0 + 1e-9
                and self.distance <= 2.0 * self.sum_of_steps + 1e-9)


def geodesic_chain(u):
    """Chain witnessing large-scale geodesicity with constant 2: steps of
    p-length at most 2 whose total length is at most 2 d(u, 1)."""
    d0 = u.dist_to_identity()
    if d0 == 0.0:
        return GeodesicChainReport([PUnitary.identity(u.context)], [], 0.0, 0.0)
    a = u.principal_log_selfadjoint()
    anorm = p_norm(a, u.context)
    n = 1 if anorm <= 1.0 else math.ceil(anorm / 2.0)
    chain = _subdivided_chain(u, n)
    steps = [chain[j].dist_to(chain[j + 1]) for j in range(n)]
    report = GeodesicChainReport(chain, steps, float(sum(steps)), d0)
    if max(steps) > 2.0 + 1e-9 or report.sum_of_steps > 2.0 * d0 + 1e-9:
        raise AssertionError("geodesic chain violated the constant-2 bounds")
    return report


def affine_action(u, x):
    """The affine isometric action u.x = ux + (u - 1); the orbit of the
    origin is the cocycle b(u) = u - 1."""
    x = np.asarray(x, dtype=complex)
    return u.matrix @ x + cocycle(u)


def cocycle(u):
    return u.matrix - np.eye(u.context.dim)


def haagerup_witness(elements, n):
    """Gram matrix K_ij = exp(-|b(g_i^{-1} g_j)|_p^2 / n) and its minimum
    eigenvalue.

    For p = 2 the squared distance is of negative type on the group, so the
    Gram matrix is positive semidefinite up to rounding.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = len(elements)
    gram = np.empty((m, m))
    for i, gi in enumerate(elements):
        for j, gj in enumerate(elements):
            d = gi.dist_to(gj)
            gram[i, j] = math.exp(-(d * d) / n)
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (gram + gram.T))))
    return gram, min_eig


@dataclass
class ExpContinuityReport:
    ratios: list
    sup_operator_norm: float


def exp_p_continuity(a, sequence, context):
    """Lipschitz ratios |e^{ia_m} - e^{ia}|_p / |a_m - a|_p for a sequence of
    self-adjoint a_m with uniformly bounded operator norm.

    Every ratio is certified against the telescoping bound e (the constant
    1 + sum_{k>=2} 1/(k-1)! after integer rescaling into the unit ball).
    """
    a = np.asarray(a, dtype=complex)
    ua = PUnitary.from_selfadjoint(a, context)
    sup_norm = float(np.max(np.abs(np.linalg.eigvalsh(a))))
    ratios = []
    for am in sequence:
        am = np.asarray(am, dtype=complex)
        sup_norm = max(sup_norm, float(np.max(np.abs(np.linalg.eigvalsh(am)))))
        denom = p_norm(am - a, context)
        if denom == 0.0:
            ratios.append(0.0)
            continue
        num = PUnitary.from_selfadjoint(am, context).dist_to(ua)
        ratios.append(num / denom)
    if not all(r <= EXP_LIPSCHITZ_BOUND + 1e-9 for r in ratios):
        raise AssertionError(
            f"exp ratio exceeded the telescoping bound e: {max(ratios)}")
    return ExpContinuityReport(ratios, sup_norm)
