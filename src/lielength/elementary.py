"""Elementary groups inside GL(n, A): generators, bracket identities, the
trace-zero span decomposition, the determinant-style invariant of
factorizations, conjugation contractions, and unboundedness witnesses.

Generator vocabulary over an algebra A, all of size n:

* ``E(i, j, a)`` -- group generator: identity plus a at entry (i, j);
* ``e(i, j, a)`` -- Lie algebra: a at entry (i, j), zeros elsewhere;
* ``f(i, j, a)`` -- Lie algebra: a at (i, i), -a at (j, j);
* ``g(a)``      -- Lie algebra: a at (n-1, n-1), with tau(a) = 0.

The invariant of a factorization prod exp(X_k) is sum_k tau_n(X_k), where
tau_n is the trace composed with the tracial functional of A; it is well
defined modulo the periods of that trace, 2*pi*i Z in each component (one
for the scalars and matrix blocks, one per graph component for function
algebras).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    MATRIX,
    SCALAR_COMPLEX,
    SCALAR_REAL,
    AlgebraElement,
    BanachAlgebra,
    GroupElement,
    MatrixOverAlgebra,
    _value_from_json,
    algebra_from_json,
    json_fields,
    scalar_complex,
)
from .explength import ElBracket, FactorizationCertificate

GENERATOR_KINDS = ("E", "e", "f", "g")
EMPTY_WORD = "the word is empty; give at least one generator"
# The most numbers the n x n matrix of a generator may hold: n^2 times the
# numbers of one payload.  A word states its size n, or its slots do, without
# data behind it, so the size is refused here, before any matrix is built.
MAX_WORD_ENTRIES = 10**6


@dataclass(frozen=True)
class ElementaryGenerator:
    """One generator of the elementary machinery; ``i``/``j`` are 1-based
    row/column slots as usually written, payload is an algebra element."""

    kind: str
    n: int
    payload: AlgebraElement
    i: int = 0
    j: int = 0

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        for name in ("n", "i", "j"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"a generator's {name} must be an integer, "
                                 f"not {value!r}")
        if self.n < 1:
            raise ValueError(f"a generator's n must be >= 1, not {self.n}")
        numbers = int(self.n) ** 2 * math.prod(
            self.payload.algebra.value_shape())
        if numbers > MAX_WORD_ENTRIES:
            raise ValueError(
                f"a word of size n = {self.n} holds {numbers} numbers per "
                f"matrix, more than MAX_WORD_ENTRIES = {MAX_WORD_ENTRIES}")
        if self.kind in ("E", "e", "f"):
            if not (1 <= self.i <= self.n and 1 <= self.j <= self.n):
                raise ValueError("slot out of range")
            if self.i == self.j:
                raise ValueError("off-diagonal kinds need i != j")
        if self.kind == "g":
            trace = default_trace(self.payload.algebra)
            if np.max(np.abs(trace(self.payload.value))) > 1e-8:
                raise ValueError(
                    "corner generator payload must have vanishing trace")

    def matrix(self):
        a = self.payload.value
        algebra = self.payload.algebra
        n = self.n
        if self.kind == "f":
            values = [algebra.zero_value()] * n
            values[self.i - 1], values[self.j - 1] = a, -a
            return MatrixOverAlgebra.diagonal(algebra, values)
        if self.kind == "g":
            return MatrixOverAlgebra.single_entry(algebra, n, n - 1, n - 1, a)
        e = MatrixOverAlgebra.single_entry(algebra, n, self.i - 1, self.j - 1, a)
        if self.kind == "e":
            return e
        # E = 1 + e is exact: the identity is 0 at (i, j), since i != j
        return MatrixOverAlgebra.identity(algebra, n) + e


def word_from_json(doc):
    """Parse a generator word.

    Accepts either a bare list of ``{"kind": "E", "i": .., "j": .., "a": ..}``
    entries (payloads over the complex scalars, complex numbers as
    ``[re, im]``) or ``{"algebra": .., "n": .., "word": [..]}`` with payloads
    encoded for that algebra.  An empty or malformed word is refused with
    ``ValueError``.
    """
    bare = not isinstance(doc, dict)
    entries = doc if bare else json_fields(doc, "a word", "algebra", "n",
                                           "word")[2]
    if not isinstance(entries, list):
        raise ValueError(f"a word must be a JSON list, not {entries!r:.40}")
    if not entries:
        raise ValueError(EMPTY_WORD)
    keys = ("kind", "a", "i", "j") if bare else ("kind", "a")
    for e in entries:
        json_fields(e, "a generator", *keys)
    if bare:
        # a slot that is not an integer is refused by its generator
        slots = [e[k] for e in entries for k in "ij" if isinstance(e[k], int)]
        alg, n = scalar_complex(), max(slots, default=0)
    else:
        alg, n = algebra_from_json(doc["algebra"]), doc["n"]
    word = []
    for e in entries:
        payload = AlgebraElement(alg, _value_from_json(e["a"], alg))
        word.append(ElementaryGenerator(e["kind"], n, payload,
                                        e.get("i", 0), e.get("j", 0)))
    return word


def gen_E(i, j, payload, n):
    return ElementaryGenerator("E", n, payload, i, j)


def gen_e(i, j, payload, n):
    return ElementaryGenerator("e", n, payload, i, j)


def gen_f(i, j, payload, n):
    return ElementaryGenerator("f", n, payload, i, j)


def gen_g(payload, n):
    return ElementaryGenerator("g", n, payload)


def elementary_product(word):
    """Product of group generators E(i, j, a), tagged as an element of the
    elementary group.  An empty word is refused with ``ValueError``: it
    names no algebra and no size."""
    if not word:
        raise ValueError(EMPTY_WORD)
    algebra = word[0].payload.algebra
    n = word[0].n
    out = MatrixOverAlgebra.identity(algebra, n)
    for gen in word:
        if gen.kind != "E":
            raise ValueError("group words are built from E generators only")
        if gen.n != n or gen.payload.algebra != algebra:
            raise ValueError("inconsistent word")
        with np.errstate(over="ignore", invalid="ignore"):
            out = out @ gen.matrix()
    if not np.all(np.isfinite(out.data)):
        raise ValueError("the word's product leaves the floating-point range")
    return GroupElement(out, "En", validate=False)


def word_certificate(word):
    """Factorization certificate for an elementary word: each E(i, j, a)
    contributes the nilpotent factor e(i, j, a), whose exponential it is."""
    target = elementary_product(word)
    factors = [gen_e(g.i, g.j, g.payload, g.n).matrix() for g in word]
    return FactorizationCertificate.from_factors(factors, target)


def commutator(x, y):
    return (x @ y) - (y @ x)


def bracket_identities_check(a, b, n, i, j):
    """Residual norms of the two structural identities

        f(i,j,a)      = [e(i,j,a), e(j,i,1)]
        g(ab - ba)    = [e(n,1,a), e(1,n,b)] - f(n,1,ba)

    Both hold exactly in the algebra; residuals are floating-point only.
    """
    algebra = a.algebra
    one = AlgebraElement(algebra, algebra.unit_value())
    lhs1 = gen_f(i, j, a, n).matrix()
    rhs1 = commutator(gen_e(i, j, a, n).matrix(), gen_e(j, i, one, n).matrix())
    res1 = (lhs1 - rhs1).op_norm()

    ab = algebra.mul(a.value, b.value)
    ba = algebra.mul(b.value, a.value)
    lhs2 = gen_g(AlgebraElement(algebra, ab - ba), n).matrix()
    rhs2 = commutator(gen_e(n, 1, a, n).matrix(), gen_e(1, n, b, n).matrix()) \
        - gen_f(n, 1, AlgebraElement(algebra, ba), n).matrix()
    res2 = (lhs2 - rhs2).op_norm()
    return res1, res2


# ---------------------------------------------------------------------------
# the tracial functional and the factorization invariant


def default_trace(algebra):
    """The tracial functional on an algebra, as a callable on raw values: the
    scalar itself, the unnormalized matrix trace (det exp X = exp tr X), the
    per-component mean on function algebras (returning a component vector)."""
    if algebra.kind in (SCALAR_COMPLEX, SCALAR_REAL):
        return lambda v: np.atleast_1d(np.asarray(v, dtype=complex))
    if algebra.kind == MATRIX:
        return lambda v: np.atleast_1d(np.trace(np.asarray(v, dtype=complex)))
    comps = algebra.graph.labels
    n_comp = int(comps.max()) + 1

    def mean_per_component(v):
        v = np.asarray(v, dtype=complex)
        return np.array([v[comps == c].mean() for c in range(n_comp)])

    return mean_per_component


def check_tracial(algebra, rng):
    """Verify tau(xy - yx) = 0 to 1e-10 on 20 random sampled pairs."""
    trace = default_trace(algebra)
    worst = 0.0
    for _ in range(20):
        x, y = algebra.random_value(rng), algebra.random_value(rng)
        comm = algebra.mul(x, y) - algebra.mul(y, x)
        worst = max(worst, float(np.max(np.abs(trace(comm)))))
    if worst > 1e-10:
        raise AssertionError(f"trace fails on commutators by {worst}")
    return worst


def trace_of_matrix(x):
    """tau_n(X) = tau(sum of the diagonal entries), tau the trace of X's
    algebra."""
    return default_trace(x.algebra)(x.trace_sum().value)


@dataclass
class HSDeterminantValue:
    raw: np.ndarray
    reduced: np.ndarray
    lattice_coefficients: list


def reduce_mod_lattice(value):
    """Reduction modulo the periods of the trace, 2*pi*i Z in each component
    (the trace of a component's unit is 1): m = round(Im value / 2 pi), and
    the reduced value is value - 2*pi*i m.  Returns (reduced, m as a list)."""
    value = np.atleast_1d(np.asarray(value, dtype=complex))
    m = np.round(value.imag / (2 * math.pi)).astype(int)
    return value - 2j * math.pi * m, m.tolist()


def hs_determinant(cert):
    """Sum of tau_n over the certificate's factors, reduced modulo the
    periods of the trace of its algebra.  Invariant of the target element:
    two factorizations differ by a period."""
    cert.check_invariants()
    trace = default_trace(cert.target.algebra)
    raw = sum((trace(x.trace_sum().value) for x in cert.factors),
              np.zeros_like(trace(cert.target.algebra.zero_value())))
    reduced, coeffs = reduce_mod_lattice(raw)
    return HSDeterminantValue(raw, reduced, coeffs)


# ---------------------------------------------------------------------------
# trace-zero span decomposition


@dataclass
class TracelessDecomposition:
    """Coefficients expressing a trace-zero matrix in the generator span."""

    e_coefficients: dict
    f_coefficients: dict
    g_coefficient: object
    n: int
    algebra: BanachAlgebra

    def rebuild(self):
        terms = [("e", i, j, a) for (i, j), a in self.e_coefficients.items()]
        terms += [("f", i, j, a) for (i, j), a in self.f_coefficients.items()]
        out = MatrixOverAlgebra.zeros(self.algebra, self.n)
        for kind, i, j, a in terms + [("g", 0, 0, self.g_coefficient)]:
            payload = AlgebraElement(self.algebra, a)
            out += ElementaryGenerator(kind, self.n, payload, i, j).matrix()
        return out


def traceless_decompose(x):
    """Express a matrix with tau_n(X) = 0, tau the default trace of its
    algebra, in the e/f/g generator span.

    Off-diagonal entries map to e coefficients; the diagonal is cleared by
    the cascade f(1,2)(x_11), f(2,3)(x_11 + x_22), ...; the remainder sits
    in the lower-right corner with vanishing trace.
    """
    trace_value = np.max(np.abs(trace_of_matrix(x)))
    if trace_value > 1e-10:
        raise ValueError(f"matrix has nonzero trace {trace_value:.3g}")
    n = x.n
    e_coeffs = {(i + 1, j + 1): x.data[i, j]
                for i in range(n) for j in range(n)
                if i != j and x.algebra.norm(x.data[i, j]) != 0.0}
    f_coeffs = {}
    carry = x.algebra.zero_value()
    for k in range(n - 1):
        carry = carry + x.data[k, k]
        if x.algebra.norm(carry) != 0.0:
            f_coeffs[(k + 1, k + 2)] = carry
    g_coeff = x.data[n - 1, n - 1] + carry
    return TracelessDecomposition(e_coeffs, f_coeffs, g_coeff, n, x.algebra)


# ---------------------------------------------------------------------------
# conjugation contractions and unboundedness witnesses

CONTRACTION_SLOTS = ((1, 3), (2, 3), (3, 1), (3, 2))


def _torus_element(algebra, lam, slot):
    """diag with lam in the slot's active row and lam^{-1} in row 3,
    matching the contracting conjugator for that slot."""
    active = slot[0] if slot[0] != 3 else slot[1]
    diag = [1.0, 1.0, 1.0]
    diag[active - 1] = lam
    diag[2] = 1.0 / lam
    unit = algebra.unit_value()
    return MatrixOverAlgebra.diagonal(algebra, [value * unit for value in diag])


def conjugation_contraction(lam, a, slot):
    """Conjugate E_slot(a) by the diagonal torus element for that slot.

    The result is exactly E_slot(lam^2 a), so its distance to the identity
    is the norm of that payload and contracts to zero as lam -> 0.
    """
    if lam == 0:
        raise ValueError("lam must be nonzero")
    if slot not in CONTRACTION_SLOTS:
        raise ValueError(f"slot must be one of {CONTRACTION_SLOTS}")
    algebra = a.algebra
    i, j = slot
    target = gen_E(i, j, a, 3).matrix()
    torus = _torus_element(algebra, lam, slot)
    inverse_torus = _torus_element(algebra, 1.0 / lam, slot)
    if slot in ((1, 3), (2, 3)):
        conj = torus @ target @ inverse_torus
    else:
        conj = inverse_torus @ target @ torus
    expected = gen_E(i, j, AlgebraElement(algebra, (lam ** 2) * a.value),
                     3).matrix()
    identity_residual = (conj - expected).op_norm()
    if identity_residual > 1e-9 * (1 + conj.op_norm()):
        raise AssertionError("conjugation identity failed numerically")
    distance = (conj - MatrixOverAlgebra.identity(algebra, 3)).op_norm()
    return GroupElement(conj, "En", validate=False), distance


def unboundedness_witness(m, algebra=None):
    """Length bracket for E_{1,2}(m 1): lower bound log(m + 1) from the
    operator norm, upper bound m from the one-factor nilpotent certificate.
    Both grow without bound in m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    algebra = algebra or scalar_complex()
    payload = AlgebraElement(algebra, m * algebra.unit_value())
    word = [gen_E(1, 2, payload, 2)]
    cert = word_certificate(word)
    lower = math.log(cert.target.matrix.op_norm())
    return ElBracket(lower, cert.sum_of_norms, cert)
