"""Elementary groups inside GL(n, A): generators, bracket identities, the
trace-zero span decomposition, the determinant-style invariant of
factorizations, conjugation contractions, and unboundedness witnesses.

Generator vocabulary over an algebra A, all of size n:

* ``E(i, j, a)`` -- group generator: identity plus a at entry (i, j);
* ``e(i, j, a)`` -- Lie algebra: a at entry (i, j), zeros elsewhere;
* ``f(i, j, a)`` -- Lie algebra: a at (i, i), -a at (j, j);
* ``g(a)``      -- Lie algebra: a at (n-1, n-1), with tau(a) = 0.

The invariant of a factorization prod exp(X_k) is sum_k tau_n(X_k), where
tau_n is the trace composed with a tracial functional on A; it is well
defined modulo a supplied lattice (2*pi*i Z for the complex field, one
generator per graph component for function algebras).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    FUNCTIONS,
    MATRIX,
    SCALAR_COMPLEX,
    SCALAR_REAL,
    AlgebraElement,
    BanachAlgebra,
    GroupElement,
    MatrixOverAlgebra,
    scalar_complex,
)
from .explength import ElBracket, FactorizationCertificate

GENERATOR_KINDS = ("E", "e", "f", "g")


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
    encoded for that algebra.
    """
    from .algebra import _value_from_json, algebra_from_json, scalar_complex

    if isinstance(doc, dict):
        alg = algebra_from_json(doc["algebra"])
        n = doc["n"]
        entries = doc["word"]
    else:
        alg = scalar_complex()
        entries = doc
        n = max(max(e["i"], e["j"]) for e in entries)
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


def elementary_product(word, algebra=None, n=None):
    """Product of group generators E(i, j, a), tagged as an element of the
    elementary group.  The empty word is the identity; it needs the ambient
    algebra and size passed explicitly since there is nothing to infer."""
    if not word:
        if algebra is None or n is None:
            raise ValueError("empty word needs explicit algebra and n")
        return GroupElement(MatrixOverAlgebra.identity(algebra, n), "En",
                            validate=False)
    algebra = word[0].payload.algebra
    n = word[0].n
    out = MatrixOverAlgebra.identity(algebra, n)
    for gen in word:
        if gen.kind != "E":
            raise ValueError("group words are built from E generators only")
        if gen.n != n or gen.payload.algebra != algebra:
            raise ValueError("inconsistent word")
        out = out @ gen.matrix()
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
# tracial functionals and the factorization invariant


def default_trace(algebra):
    """The default tracial functional on an algebra, as a callable on raw
    values: scalar identity, normalized matrix trace, per-component mean on
    function algebras (returning a component vector)."""
    if algebra.kind in (SCALAR_COMPLEX, SCALAR_REAL):
        return lambda v: np.atleast_1d(np.asarray(v, dtype=complex))
    if algebra.kind == MATRIX:
        return lambda v: np.atleast_1d(np.trace(np.asarray(v, dtype=complex)))
    comps = np.asarray(algebra.components())
    n_comp = int(comps.max()) + 1 if comps.size else 0

    def mean_per_component(v):
        v = np.asarray(v, dtype=complex)
        return np.array([v[comps == c].mean() for c in range(n_comp)])

    return mean_per_component


def default_lattice(algebra):
    """Lattice generators for the factorization invariant: 2*pi*i for
    scalar and matrix algebras, 2*pi*i per graph component (scaled by the
    trace of that component's unit) for function algebras."""
    if algebra.kind != FUNCTIONS:
        return [np.array([2j * math.pi])]
    trace = default_trace(algebra)
    comps = np.asarray(algebra.components())
    n_comp = int(comps.max()) + 1 if comps.size else 0
    gens = []
    for c in range(n_comp):
        unit_c = np.where(comps == c, 1.0, 0.0)
        gens.append(2j * math.pi * trace(unit_c))
    return gens


@dataclass
class HSDeterminantContext:
    """Tracial functional and lattice data for the factorization invariant."""

    algebra: BanachAlgebra
    trace: object = field(init=False)
    lattice: list = field(init=False)

    def __post_init__(self):
        self.trace = default_trace(self.algebra)
        self.lattice = default_lattice(self.algebra)

    def check_tracial(self, rng):
        """Verify tau(xy - yx) = 0 to 1e-10 on 20 random sampled pairs."""
        worst = 0.0
        for _ in range(20):
            x = self.algebra.random_value(rng)
            y = self.algebra.random_value(rng)
            comm = self.algebra.mul(x, y) - self.algebra.mul(y, x)
            worst = max(worst, float(np.max(np.abs(self.trace(comm)))))
        if worst > 1e-10:
            raise AssertionError(f"trace fails on commutators by {worst}")
        return worst

    def trace_of_matrix(self, x):
        """tau_n(X) = tau(sum of diagonal entries)."""
        return np.asarray(self.trace(x.trace_sum().value))


@dataclass
class HSDeterminantValue:
    raw: np.ndarray
    reduced: np.ndarray
    lattice_coefficients: list


def reduce_mod_lattice(value, generators):
    """Nearest-lattice-point reduction of a vector in E: integer
    coefficients from the rounded least-squares solution against the
    generator matrix (exact for the default per-component generators)."""
    value = np.atleast_1d(np.asarray(value, dtype=complex))
    if not generators:
        return value, []
    basis = np.stack([np.atleast_1d(np.asarray(g, dtype=complex))
                      for g in generators], axis=1)
    real_basis = np.vstack([basis.real, basis.imag])
    real_value = np.concatenate([value.real, value.imag])
    coeffs, *_ = np.linalg.lstsq(real_basis, real_value, rcond=None)
    m = np.round(coeffs).astype(int)
    reduced = value - basis @ m
    return reduced, m.tolist()


def hs_determinant(cert, ctx):
    """Sum of tau_n over the certificate's factors, reduced modulo the
    context lattice.  Invariant of the target element: two factorizations
    differ by a lattice element."""
    cert.check_invariants()
    raw = np.zeros_like(np.atleast_1d(ctx.trace_of_matrix(
        MatrixOverAlgebra.zeros(ctx.algebra, cert.target.n))))
    for x in cert.factors:
        raw = raw + ctx.trace_of_matrix(x)
    reduced, coeffs = reduce_mod_lattice(raw, ctx.lattice)
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
        out = MatrixOverAlgebra.zeros(self.algebra, self.n)
        for (i, j), a in self.e_coefficients.items():
            out = out + gen_e(i, j, AlgebraElement(self.algebra, a),
                              self.n).matrix()
        for (i, j), a in self.f_coefficients.items():
            out = out + gen_f(i, j, AlgebraElement(self.algebra, a),
                              self.n).matrix()
        out = out + gen_g(AlgebraElement(self.algebra, self.g_coefficient),
                          self.n).matrix()
        return out


def traceless_decompose(x, ctx=None):
    """Express a matrix with tau_n(X) = 0 in the e/f/g generator span.

    Off-diagonal entries map to e coefficients; the diagonal is cleared by
    the cascade f(1,2)(x_11), f(2,3)(x_11 + x_22), ...; the remainder sits
    in the lower-right corner with vanishing trace.
    """
    ctx = ctx or HSDeterminantContext(x.algebra)
    trace_value = np.max(np.abs(ctx.trace_of_matrix(x)))
    if trace_value > 1e-10:
        raise ValueError(f"matrix has nonzero trace {trace_value:.3g}")
    n = x.n
    e_coeffs = {}
    for i in range(n):
        for j in range(n):
            if i != j and x.algebra.norm(x.data[i, j]) != 0.0:
                e_coeffs[(i + 1, j + 1)] = x.data[i, j]
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
