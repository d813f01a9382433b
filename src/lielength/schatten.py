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

from .algebra import (
    NumericFailureError,
    read_only,
    spectral,
    unitary_spectrum,
)

EXP_LIPSCHITZ_BOUND = math.e  # telescoping bound 1 + sum_k 1/(k-1)!
# Most steps a coarse-proper chain may take: one unitary is built per step,
# so the cap bounds its memory (10,000 4x4 unitaries hold 2.5 MB of entries).
MAX_CHAIN_STEPS = 10_000


@dataclass(frozen=True)
class SchattenContext:
    """Hilbert dimension >= 1, finite exponent p >= 1, positive trace weights."""

    dim: int
    p: float
    weights: np.ndarray = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not 1 <= self.p < math.inf:
            raise ValueError(f"p must be finite and >= 1, got {self.p}")
        w = read_only(np.ones(self.dim) if self.weights is None
                      else self.weights, float)
        if w.shape != (self.dim,) or not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError("weights must be finite, positive, one per dim")
        object.__setattr__(self, "weights", w)

    def __eq__(self, other):
        if not isinstance(other, SchattenContext):
            return NotImplemented
        return (self.dim == other.dim and self.p == other.p
                and np.array_equal(self.weights, other.weights))

    def __hash__(self):
        return hash((self.dim, self.p, self.weights.tobytes()))


def p_norm(a, context):
    """Weighted Schatten p-norm: with |a| = V S V*, |a|_p^p = sum_j c_j s_j^p
    for c_j = sum_i w_i |V_ij|^2.  At p = 2 it is the trace tau(a* a) =
    sum_i w_i sum_k |a_ki|^2, with no eigendecomposition.  Every other norm,
    and a 2-norm whose trace is lost to the float range, is
    t s_max (sum_j c_j (s_j / s_max)^p)^(1/p) with s taken on a / t, for t
    the largest real or imaginary part of an entry: neither a* a nor the sum
    can leave the float range.

    ``a`` is one matrix, whose norm is returned as a float, or a stack of
    matrices along the leading axes, whose norms are returned as an array of
    the stack's shape, each equal to the norm of its matrix alone.  A matrix
    with a non-finite entry is refused with a ``ValueError``.
    """
    a = np.asarray(a, dtype=complex)
    root = 1.0 / context.p
    if context.p == 2:
        with np.errstate(over="ignore", invalid="ignore"):
            sums = (context.weights
                    * (a * a.conj()).real.sum(axis=-2)).sum(axis=-1)
        # Only the zero matrix has the trace 0: any other 0, inf or NaN is
        # lost to the float range.  The cheap test on floats goes first.
        flat = sums.ravel().tolist()
        in_range = min(flat, default=0.0) > 0.0 and sum(flat) < math.inf
        if in_range and sums.ndim == 0:
            return float(sums ** root)
        # The root is taken on each float64 scalar: the array power may
        # round differently in the last bit.
        norms = np.array([t ** root for t in sums.ravel()]).reshape(sums.shape)
        if in_range:
            return norms
        lost = ~np.isfinite(sums) | (sums == 0) & a.any(axis=(-2, -1))
    else:
        norms, lost = np.zeros(a.shape[:-2]), a.any(axis=(-2, -1))
    if lost.any():
        b = a[lost]
        if not np.isfinite(b).all():
            raise ValueError(f"p = {context.p:g}: the matrix has a non-finite "
                             "entry")
        scale = np.maximum(abs(b.real), abs(b.imag)).max(axis=(-2, -1))
        b = b / scale[:, None, None]
        s2, vecs = np.linalg.eigh(np.swapaxes(b.conj(), -2, -1) @ b)
        s = np.sqrt(np.clip(s2, 0.0, None))
        top = s.max(axis=-1)
        sums = np.sum(context.weights @ (np.abs(vecs) ** 2)
                      * (s / top[:, None]) ** context.p, axis=-1)
        norms[lost] = [t * m * r ** root for t, m, r in
                       zip(scale.tolist(), top.tolist(), sums)]
    return float(norms) if norms.ndim == 0 else norms


@dataclass(frozen=True, eq=False)
class PUnitary:
    """A unitary in the p-Schatten unitary group of its context."""

    context: SchattenContext
    matrix: np.ndarray

    def __post_init__(self):
        m = read_only(self.matrix, complex)
        if m.shape != (self.context.dim, self.context.dim):
            raise ValueError("matrix shape does not match context dimension")
        if not np.isfinite(m).all():
            raise ValueError("matrix has a non-finite entry")
        with np.errstate(over="ignore", invalid="ignore"):
            residual = np.linalg.norm(m.conj().T @ m - np.eye(self.context.dim))
        if not residual <= 1e-9:
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
        return _selfadjoint(*self._principal_spectrum())

    def _principal_spectrum(self):
        """Angles theta in (-pi, pi] and unitary z with u = z e^{i theta} z*."""
        _, theta, z, diagonal = unitary_spectrum(self.matrix)
        if not diagonal:
            raise NumericFailureError("unitary input failed to diagonalize")
        return theta, z

    @classmethod
    def identity(cls, context):
        return cls(context, np.eye(context.dim))

    @classmethod
    def from_selfadjoint(cls, a, context):
        return _exp_i(a, context)[1]


def _exp_i(a, context):
    """|a|_inf and e^{ia} for a self-adjoint a, from one eigh of a.  An a
    of the wrong shape, non-finite or non-self-adjoint is refused: eigh reads
    only the lower triangle, so it would measure another operator."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (context.dim, context.dim):
        raise ValueError(f"input shape {a.shape} does not match context "
                         f"dimension {context.dim}")
    if not np.isfinite(a).all():
        raise ValueError("input has a non-finite entry")
    with np.errstate(over="ignore", invalid="ignore"):
        asymmetry = np.linalg.norm(a - a.conj().T)
        size = np.linalg.norm(a)
    if not asymmetry <= 1e-9 * (1 + size):
        raise ValueError("input must be self-adjoint")
    lam, vecs = np.linalg.eigh(a)
    return (float(np.max(np.abs(lam))),
            PUnitary(context, spectral(np.exp(1j * lam), vecs)))


def _selfadjoint(theta, z):
    """z diag(theta) z*, made exactly self-adjoint."""
    a = spectral(theta, z)
    return 0.5 * (a + a.conj().T)


def random_selfadjoint(dim, rng, operator_norm):
    """Random self-adjoint matrix rescaled to the requested operator norm."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = 0.5 * (m + m.conj().T)
    top = np.max(np.abs(np.linalg.eigvalsh(a)))
    return a * (operator_norm / top)


def random_punitary(context, rng, operator_norm=math.pi):
    return PUnitary.from_selfadjoint(
        random_selfadjoint(context.dim, rng, operator_norm), context)


def sandwich_check(a, context):
    """The two-sided estimate (|a|_p / 2, |e^{ia} - 1|_p, |a|_p).

    Requires |a|_inf <= pi.  Raises AssertionError if either inequality
    fails by more than 1e-9.
    """
    a = np.asarray(a, dtype=complex)
    top, u = _exp_i(a, context)
    if not top <= math.pi + 1e-12:
        raise ValueError("spectrum outside [-pi, pi]")
    rhs = p_norm(a, context)
    lhs = 0.5 * rhs
    mid = u.dist_to_identity()
    if not (lhs <= mid + 1e-9 and mid <= rhs + 1e-9):
        raise AssertionError(
            f"sandwich violated: {lhs} <= {mid} <= {rhs} fails")
    return lhs, mid, rhs


def coarse_proper_chain(u, delta_cap, step):
    """Chain 1 = u_0, ..., u_k = u with every step below ``step``, witnessing
    coarse properness of the metric for d(u, 1) < delta_cap.

    k is the smallest admissible count: 1 when a single step suffices, else
    the least integer exceeding max(pi/step, 2*delta_cap/step).  A k above
    ``MAX_CHAIN_STEPS`` is refused before any element is built.
    """
    if not step > 0:
        raise ValueError(f"step must be > 0, got {step}")
    d0 = u.dist_to_identity()
    if not d0 < delta_cap:
        raise ValueError(f"d(u,1) = {d0} is not below delta_cap = {delta_cap}")
    one = PUnitary.identity(u.context)
    if d0 == 0.0:
        return [one]
    if d0 < step:
        return [one, u]
    ratio = max(math.pi / step, 2.0 * delta_cap / step)
    if not ratio < MAX_CHAIN_STEPS:
        raise ValueError(
            f"delta_cap {delta_cap} and step {step} need a chain of more "
            f"than MAX_CHAIN_STEPS = {MAX_CHAIN_STEPS} steps: k = "
            "floor(max(pi, 2 delta_cap) / step) + 1")
    chain, steps = _chain(*u._principal_spectrum(), u.context,
                          math.floor(ratio) + 1)
    if max(steps) >= step:
        raise AssertionError("subdivided chain exceeded the step bound")
    return chain


def _chain(theta, z, context, k):
    """The chain 1, e^{i a j / k} for j = 1..k, of the self-adjoint log
    a = z diag(theta) z*, from one ``spectral`` call, and its k step
    lengths as floats, from one stacked norm."""
    fractions = np.arange(1, k + 1)[:, None] / k
    points = spectral(np.exp(1j * (theta * fractions)), z)
    mats = np.concatenate([np.eye(context.dim)[None], points])
    chain = [PUnitary(context, m) for m in mats]
    return chain, p_norm(mats[:-1] - mats[1:], context).tolist()


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
                and self.sum_of_steps <= 2.0 * self.distance + 1e-9)


def geodesic_chain(u):
    """Chain witnessing large-scale geodesicity with constant 2: steps of
    p-length at most 2 whose total length is at most 2 d(u, 1)."""
    d0 = u.dist_to_identity()
    if d0 == 0.0:
        return GeodesicChainReport([PUnitary.identity(u.context)], [], 0.0, 0.0)
    theta, z = u._principal_spectrum()
    anorm = p_norm(_selfadjoint(theta, z), u.context)
    n = 1 if anorm <= 1.0 else math.ceil(anorm / 2.0)
    chain, steps = _chain(theta, z, u.context, n)
    report = GeodesicChainReport(chain, steps, float(sum(steps)), d0)
    if not report.satisfies_large_scale_geodesic:
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
    if not n >= 1:
        raise ValueError("n must be >= 1")
    if not elements:
        raise ValueError("the witness needs at least one element")
    context = elements[0].context
    if any(g.context != context for g in elements):
        raise ValueError("the elements do not share one SchattenContext")
    # d(g_i, g_j) = d(g_j, g_i) exactly, as the norm of -a is that of a bit
    # for bit, and d(g, g) = 0: one stacked norm over the pairs i < j fills
    # both triangles.
    mats = np.stack([g.matrix for g in elements])
    m = len(elements)
    gram = np.eye(m)
    rows, cols = np.triu_indices(m, 1)
    dists = p_norm(mats[rows] - mats[cols], context).tolist() if m > 1 else []
    for i, j, d in zip(rows.tolist(), cols.tolist(), dists):
        gram[i, j] = gram[j, i] = math.exp(-(d * d) / n)
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
    sup_norm, ua = _exp_i(a, context)
    ratios = []
    for am in sequence:
        am = np.asarray(am, dtype=complex)
        am_norm, uam = _exp_i(am, context)
        sup_norm = max(sup_norm, am_norm)
        denom = p_norm(am - a, context)
        ratios.append(0.0 if denom == 0.0 else uam.dist_to(ua) / denom)
    if not all(r <= EXP_LIPSCHITZ_BOUND + 1e-9 for r in ratios):
        raise AssertionError(
            f"exp ratio exceeded the telescoping bound e: {max(ratios)}")
    return ExpContinuityReport(ratios, sup_norm)
