"""Exponential length functionals: exact closed forms, optimization-based
upper bounds, and rigorous lower bounds.

The exponential length of a group element g is the infimum of sum_i |X_i|
over factorizations g = exp(X_1) ... exp(X_n); the reduced variant takes
|sum_i X_i| instead.  Neither infimum is computable in general, so every
estimate here is a bracket: the upper bound comes from an explicit
factorization certificate, the lower bound from log |g| (valid because
|exp(X)| <= e^{|X|} and the norm is submultiplicative).  Reported values are
always tied to the norm of the ambient matrix algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .algebra import (
    FUNCTIONS,
    GroupElement,
    MatrixOverAlgebra,
    NumericFailureError,
    SpectrumOnCutError,
    mat_exp,
    mat_log,
    matrix_from_json,
    matrix_to_json,
)


class NoFactorizationError(RuntimeError):
    """No admissible factorization was found: the element is outside the
    identity component, or the budget or floating-point range ran out."""


@dataclass
class FactorizationCertificate:
    """An ordered list of Lie-algebra factors whose exponentials multiply to
    a target, with its residual and both norm aggregates."""

    factors: list
    target: GroupElement
    residual: float
    sum_of_norms: float
    norm_of_sum: float

    @classmethod
    def from_factors(cls, factors, target):
        product = _product_of_exponentials(factors, target)
        residual = (product.matrix - target.matrix).op_norm()
        zero = MatrixOverAlgebra.zeros(target.algebra, target.n)
        return cls(list(factors), target, residual, _sum_norms(factors),
                   _norm_of_sum([zero] + list(factors)))

    def check_invariants(self):
        if self.residual > 1e-6:
            raise AssertionError(f"residual {self.residual} above tolerance")
        if self.sum_of_norms < self.norm_of_sum - 1e-9 * (1 + self.sum_of_norms):
            raise AssertionError("triangle inequality violated")
        target_norm = self.target.matrix.op_norm()
        if target_norm > 0 and self.sum_of_norms < math.log(target_norm) - 1e-6:
            raise AssertionError("certificate is shorter than log|target|")

    def inverse(self):
        """Certificate for target^{-1}: reversed, negated factors.  The sum
        of norms is unchanged."""
        factors = [(-x) for x in reversed(self.factors)]
        return FactorizationCertificate.from_factors(
            factors, self.target.inverse())

    def concat(self, other):
        """Certificate for (self.target @ other.target) by concatenation."""
        return FactorizationCertificate.from_factors(
            self.factors + other.factors, self.target @ other.target)

    def to_json(self):
        return {
            "factors": [matrix_to_json(x) for x in self.factors],
            "residual": self.residual,
            "sum_of_norms": self.sum_of_norms,
            "norm_of_sum": self.norm_of_sum,
        }

    @classmethod
    def from_json(cls, doc, target):
        factors = [matrix_from_json(d) for d in doc["factors"]]
        return cls.from_factors(factors, target)


def _product_of_exponentials(factors, target):
    out = GroupElement.identity(target.algebra, target.n)
    for x in factors:
        out = out @ mat_exp(x)
    return out


@dataclass
class ElBracket:
    """Two-sided enclosure of an exponential length value."""

    lower: float
    upper: float
    certificate: FactorizationCertificate

    def __post_init__(self):
        if self.lower > self.upper + 1e-6:
            raise AssertionError(
                f"bracket inverted: lower {self.lower} > upper {self.upper}")

    def to_json(self):
        return {"lower": self.lower, "upper": self.upper,
                "lower_method": "log-op-norm",
                "certificate": self.certificate.to_json()}


def el_lower_bound(g):
    """max(0, log|g|, log|g^{-1}|): every factorization of g satisfies
    sum |X_i| >= log |prod exp(X_i)|, and the reversed-negated factorization
    of g^{-1} has the same sum."""
    best = 0.0
    for h in (g, g.inverse()):
        norm = h.matrix.op_norm()
        if norm > 0:
            best = max(best, math.log(norm))
    return best


def _pointwise_column_norm(flat):
    return float(np.max(np.sum(np.abs(flat), axis=-2).max(axis=-1)))


def el_exact_unitary(u):
    """|log u| with the principal branch: the bi-invariant length of a
    unitary.

    For function algebras the value is the sup over vertices of the
    pointwise norm; it equals the group's length exactly whenever the
    pointwise principal logarithm is itself continuous across every edge
    (in particular on edgeless discretizations and near the identity).
    """
    if not u.is_unitary():
        raise ValueError("input is not unitary")
    log = mat_log(u)
    if u.algebra.kind == FUNCTIONS:
        return _pointwise_column_norm(log.to_flat())
    return log.op_norm()


def el_exact_positive_diagonal(a):
    """|log a| for a = diag(d, d^{-1}) with d positive invertible in a
    commutative algebra; the single-factor and log|a| bounds meet here."""
    mat = a.matrix
    if mat.n != 2:
        raise ValueError("expected a 2x2 diagonal element")
    if not mat.algebra.is_commutative:
        raise ValueError("requires a commutative algebra")
    norms = mat.entry_norms()
    if norms[0, 1] > 1e-9 or norms[1, 0] > 1e-9:
        raise ValueError("off-diagonal entries must vanish")
    d = np.asarray(mat.data[0, 0])
    dinv = np.asarray(mat.data[1, 1])
    if np.max(np.abs(d * dinv - mat.algebra.unit_value())) > 1e-7:
        raise ValueError("expected diag(d, d^{-1})")
    if np.any(np.abs(np.imag(np.atleast_1d(d))) > 1e-9) or np.any(
            np.real(np.atleast_1d(d)) <= 1e-9):
        raise ValueError("d must be positive")
    logs = np.log(np.real(np.atleast_1d(d)))
    return float(np.max(np.abs(logs)))


@dataclass
class EstimateBudget:
    """Deterministic caps for the factorization search."""

    max_factors: ClassVar[int] = 16
    init_step: ClassVar[float] = 0.25
    min_step: ClassVar[float] = 1e-4
    residual_tol: ClassVar[float] = 1e-8
    restarts: int = 2
    iterations: int = 20
    trials: int = 6
    optimize: bool = True


def _try_log(matrix, tag="GL"):
    return mat_log(GroupElement(matrix, tag, validate=False))


def _rotated_log_certificate(g):
    """Single-factor certificate through a rotated branch: with the cut ray
    turned into the largest gap of the spectrum's arguments,
    log(e^{-ia} g) + ia I exponentiates back to g exactly.

    Only available over complex scalars (the extra ia I leaves a real Lie
    algebra)."""
    if g.algebra.dtype == np.float64:
        raise SpectrumOnCutError("rotated branch needs complex scalars")
    args = np.sort(np.angle(np.linalg.eigvals(g.matrix.to_flat())).ravel())
    gaps = np.diff(np.concatenate([args, [args[0] + 2 * math.pi]]))
    widest = int(np.argmax(gaps))
    if gaps[widest] < 1e-6:
        raise SpectrumOnCutError("spectrum arguments leave no branch gap")
    cut_direction = args[widest] + gaps[widest] / 2.0
    alpha = cut_direction - math.pi
    rotated = g.matrix.scaled(np.exp(-1j * alpha))
    log = _try_log(rotated)
    phase = MatrixOverAlgebra.identity(g.algebra, g.n).scaled(1j * alpha)
    return [log + phase]


def _polar_certificate(g):
    """Two-factor certificate from the polar decomposition g = W P with W
    unitary and P positive definite: both factors always admit a principal
    log over the complex scalars."""
    u, s, vh = np.linalg.svd(g.matrix.to_flat())
    p_flat = (np.swapaxes(vh.conj(), -1, -2) * s[..., None, :]) @ vh
    w = MatrixOverAlgebra.from_flat(g.algebra, g.n, u @ vh)
    p = MatrixOverAlgebra.from_flat(g.algebra, g.n, p_flat)
    return [_try_log(w, "U"), _try_log(p, "GL")]


def _initial_certificates(g, budget, initial_factors):
    """Candidate factorizations: caller-supplied factors, the single-factor
    principal log when admissible, its subdivisions, a rotated-branch single
    factor, the polar two-factor split, and logs along the linear
    interpolation from the identity (factor count doubling until every step
    admits a log)."""
    pool = []
    if initial_factors is not None:
        pool.append(list(initial_factors))
    single = None
    try:
        single = mat_log(g)
        pool.append([single])
    except (SpectrumOnCutError, NumericFailureError):
        pass
    if single is not None:
        for k in (2, 4):
            if k <= budget.max_factors:
                pool.append([single.scaled(1.0 / k) for _ in range(k)])
        return pool
    for fallback in (_rotated_log_certificate, _polar_certificate):
        try:
            pool.append(fallback(g))
        except (SpectrumOnCutError, NumericFailureError,
                np.linalg.LinAlgError):
            pass
    ident = MatrixOverAlgebra.identity(g.algebra, g.n)
    k = 2
    while k <= budget.max_factors:
        try:
            factors = []
            prev = ident
            for j in range(1, k + 1):
                t = j / k
                point = ident.scaled(1.0 - t) + g.matrix.scaled(t)
                step = GroupElement(prev.inverse() @ point, "GL",
                                    validate=False)
                factors.append(mat_log(step))
                prev = point
            pool.append(factors)
            break
        except (SpectrumOnCutError, NumericFailureError, np.linalg.LinAlgError):
            k *= 2
    if not pool:
        # GL(n, R) is the only disconnected group; exp never reaches det < 0
        if g.algebra.dtype == np.float64 and np.linalg.slogdet(
                g.matrix.to_flat())[0] < 0:
            raise NoFactorizationError(
                "det < 0: the element is outside the identity component")
        raise NoFactorizationError(
            f"every path step left the log domain up to {budget.max_factors} "
            "factors: the search budget or the floating-point range of "
            "exp/log is exhausted")
    return pool


def _random_direction(algebra, n, rng, unitary):
    v = MatrixOverAlgebra.random(algebra, n, rng, scale=1.0)
    if unitary:
        v = (v - v.adjoint()).scaled(0.5)
    norm = v.op_norm()
    if norm == 0:
        return None
    return v.scaled(1.0 / norm)


def _refine_factors(factors, g, objective, budget, rng):
    """Derivative-free coordinate descent over the interior split points:
    each move re-splits one adjacent pair of factors through a perturbed
    midpoint, keeping the product fixed.  Adjacent factors are merged when
    that shortens the objective."""
    unitary = g.group_tag in ("U", "Up")
    best = list(factors)
    best_val = objective(best)
    step = budget.init_step
    for _ in range(budget.iterations):
        improved = False
        # merge pass
        if len(best) > 1:
            merged = _merge_pass(best, best_val, objective)
            if merged is not None:
                best, best_val = merged
                improved = True
        # re-split pass
        for i in range(len(best) - 1):
            first = mat_exp(best[i]).matrix
            pair_product = first @ mat_exp(best[i + 1]).matrix
            for _ in range(budget.trials):
                direction = _random_direction(g.algebra, g.n, rng, unitary)
                if direction is None:
                    continue
                mid = first @ mat_exp(direction.scaled(step)).matrix
                try:
                    x_new = _try_log(mid, "U" if unitary else "GL")
                    y_new = _try_log(mid.inverse() @ pair_product,
                                     "U" if unitary else "GL")
                except (SpectrumOnCutError, NumericFailureError):
                    continue
                candidate = best[:i] + [x_new, y_new] + best[i + 2:]
                val = objective(candidate)
                if val < best_val - 1e-12:
                    best, best_val, improved = candidate, val, True
                    break
        if not improved:
            step *= 0.5
            if step < budget.min_step:
                break
    return best, best_val


def _merge_pass(factors, value, objective):
    """First merge of an adjacent pair that shortens the objective below
    ``value`` (the objective of ``factors``), as (factors, objective value),
    or None."""
    for i in range(len(factors) - 1):
        prod = mat_exp(factors[i]).matrix @ mat_exp(factors[i + 1]).matrix
        try:
            merged = _try_log(prod)
        except (SpectrumOnCutError, NumericFailureError):
            continue
        candidate = factors[:i] + [merged] + factors[i + 2:]
        val = objective(candidate)
        if val < value - 1e-12:
            return candidate, val
    return None


def _sum_norms(factors):
    return float(sum(x.op_norm() for x in factors))


def _norm_of_sum(factors):
    return sum(factors[1:], factors[0]).op_norm()


def _search(g, objective, budget, seed, initial_factors):
    pool = _initial_certificates(g, budget, initial_factors)
    candidates = [(objective(f), f) for f in pool]
    candidates.sort(key=lambda t: t[0])
    results = list(candidates)
    if budget.optimize:
        for restart in range(budget.restarts):
            rng = np.random.default_rng([seed, restart])
            start = candidates[min(restart, len(candidates) - 1)][1]
            refined, val = _refine_factors(start, g, objective, budget, rng)
            results.append((val, refined))
    results.sort(key=lambda t: t[0])
    for val, factors in results:
        cert = FactorizationCertificate.from_factors(factors, g)
        if cert.residual <= budget.residual_tol * (1 + g.matrix.op_norm()):
            return cert
    raise NoFactorizationError("no certificate met the residual tolerance")


def el_estimate(g, budget=None, seed=0):
    """Bracket [log-norm lower bound, best certificate sum] for el(g).

    Deterministic for a fixed seed; the certificate witnessing the upper
    bound is returned inside the bracket.
    """
    budget = budget or EstimateBudget()
    cert = _search(g, _sum_norms, budget, seed, None)
    return ElBracket(el_lower_bound(g), cert.sum_of_norms, cert)


def rel_estimate(g, budget=None, seed=0, initial_factors=None):
    """Upper bound for the reduced length: minimal |sum X_i| over the same
    certificate family the el search explores, including the certificate
    that wins the el objective (so rel <= el upper holds on the shared
    pool)."""
    budget = budget or EstimateBudget()
    cert = _search(g, _norm_of_sum, budget, seed, initial_factors)
    value = cert.norm_of_sum
    if budget.optimize:
        el_cert = _search(g, _sum_norms, budget, seed, initial_factors)
        value = min(value, el_cert.norm_of_sum)
    return value


def trotter_check(x, y, n):
    """Defects of the product and commutator scaling formulas at subdivision
    n: |(e^{X/n} e^{Y/n})^n - e^{X+Y}| and
    |(e^{X/n} e^{Y/n} e^{-X/n} e^{-Y/n})^{n^2} - e^{[X,Y]}|."""
    if n < 1:
        raise ValueError("n must be >= 1")
    algebra, size = x.algebra, x.n
    ex = mat_exp(x.scaled(1.0 / n)).matrix
    ey = mat_exp(y.scaled(1.0 / n)).matrix
    step = (ex @ ey).to_flat()
    powered = MatrixOverAlgebra.from_flat(
        algebra, size, np.linalg.matrix_power(step, n))
    product_error = (powered - mat_exp(x + y).matrix).op_norm()

    word = (ex @ ey @ mat_exp(x.scaled(-1.0 / n)).matrix
            @ mat_exp(y.scaled(-1.0 / n)).matrix).to_flat()
    powered2 = MatrixOverAlgebra.from_flat(
        algebra, size, np.linalg.matrix_power(word, n * n))
    bracket = (x @ y) - (y @ x)
    commutator_error = (powered2 - mat_exp(bracket).matrix).op_norm()
    return product_error, commutator_error


@dataclass
class MinimalityReport:
    """Fitted Lipschitz comparison of a length function against |X| on
    exp of a small ball."""

    constant: float
    witness_index: int
    lower_holds: bool
    pairs: list


def minimality_check(samples):
    """Fit the smallest K with ell(exp X) <= |X| <= K * ell(exp X) over
    Lie-algebra samples X, where ell is the certificate upper bound of
    ``el_estimate`` without optimization; comparisons allow 1e-9.
    """
    quick = EstimateBudget(optimize=False)
    constant = 0.0
    witness = -1
    lower_holds = True
    pairs = []
    for idx, x in enumerate(samples):
        g = mat_exp(x)
        value = el_estimate(g, budget=quick).upper
        norm = x.op_norm()
        pairs.append((norm, value))
        if value > norm + 1e-9:
            lower_holds = False
        if value > 0 and norm / value > constant:
            constant = norm / value
            witness = idx
        if value == 0 and norm > 1e-9:
            constant = math.inf
            witness = idx
    return MinimalityReport(constant, witness, lower_holds, pairs)
