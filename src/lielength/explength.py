"""Exponential length functionals: exact closed forms, optimization-based
upper bounds, and rigorous lower bounds.

The exponential length of a group element g is the infimum of sum_i |X_i|
over factorizations g = exp(X_1) ... exp(X_n); the reduced variant takes
|sum_i X_i| instead.  Neither infimum is computable in general, so every
estimate here is a bracket: the upper bound comes from an explicit
factorization certificate, the lower bound from ``el_lower_bound`` (log |g|,
valid because |exp(X)| <= e^{|X|} and the norm is submultiplicative, or
|log u| for a unitary where a theorem makes it exact).  Reported values are
always tied to the norm of the ambient matrix algebra.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .algebra import (
    FUNCTIONS,
    SCALAR_REAL,
    GroupElement,
    MatrixOverAlgebra,
    NumericFailureError,
    SpectrumOnCutError,
    in_order,
    json_fields,
    mat_exp,
    mat_exps,
    mat_log,
    matrix_from_json,
    matrix_to_json,
    op_norms,
    random_stack,
    round_trips,
    spectral,
    stack_from_flat,
    stack_to_flat,
    stacked_logs,
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
        product = GroupElement.identity(target.algebra, target.n)
        for x in factors:
            product = product @ mat_exp(x)
        residual = (product.matrix - target.matrix).op_norm()
        zero = MatrixOverAlgebra.zeros(target.algebra, target.n)
        return cls(list(factors), target, residual, _sum_norms(factors),
                   _norm_of_sum([zero] + list(factors)))

    def check_invariants(self):
        """Refuse what the search refuses, by ``admissible_residual``; that
        residual also bounds log |prod exp X_i| >= log(|target| - it)."""
        target_norm = self.target.matrix.op_norm()
        allowed = admissible_residual(target_norm)
        if not self.residual <= allowed:
            raise AssertionError(f"residual {self.residual} above {allowed}")
        if not in_order(self.norm_of_sum, self.sum_of_norms):
            raise AssertionError("triangle inequality violated")
        if self.sum_of_norms < math.log(max(1.0, target_norm - allowed)):
            raise AssertionError("certificate is shorter than log|target|")

    def to_json(self):
        return {
            "factors": [matrix_to_json(x) for x in self.factors],
            "residual": self.residual,
            "sum_of_norms": self.sum_of_norms,
            "norm_of_sum": self.norm_of_sum,
        }

    @classmethod
    def from_json(cls, doc, target):
        """The certificate of g = ``target`` whose factors ``doc`` holds,
        checked again; ValueError naming them when they are not a list."""
        (factors,) = json_fields(doc, "a certificate", "factors")
        if not isinstance(factors, list):
            raise ValueError(f"a certificate's factors must be a JSON list, "
                             f"not {factors!r:.40}")
        factors = [matrix_from_json(d) for d in factors]
        return cls.from_factors(factors, target)


@dataclass
class ElBracket:
    """Two-sided enclosure of an exponential length value; ``lower_method``
    names the bound of ``el_lower_bound`` that gave ``lower``."""

    lower: float
    upper: float
    certificate: FactorizationCertificate
    lower_method: str

    def __post_init__(self):
        if not in_order(self.lower, self.upper):
            raise AssertionError(
                f"bracket inverted: lower {self.lower} > upper {self.upper}")

    def to_json(self):
        return {"lower": self.lower, "upper": self.upper,
                "lower_method": self.lower_method,
                "certificate": self.certificate.to_json()}


def el_lower_bound(g):
    """(value, method): the larger of two lower bounds of el(g).  An
    element with a non-finite entry is refused.

    ``"log-op-norm"``, max(0, log|g|, log|g^{-1}|), holds for every g:
    every factorization satisfies sum |X_i| >= log |prod exp(X_i)|, and the
    reversed-negated factorization of g^{-1} has the same sum.

    ``"unitary-log"``, ``el_exact_unitary(g)``, holds for a U-tagged 1x1
    element u over the complex scalars, ``matrix_algebra(k)`` or a function
    algebra, whose length is taken over skew-adjoint factors iA_j.  Over C
    and M_k the norm is unitarily invariant, and Thompson's formula
    e^{iA} e^{iB} = e^{i(V A V* + W B W*)} for self-adjoint A, B and some
    unitaries V, W (R. C. Thompson, Linear Multilinear Algebra 19, 1986)
    gives |log(e^{iA} e^{iB})| <= |A| + |B| when |A| + |B| < pi.  By
    induction every factorization has sum |A_j| >= |log u| on the principal
    branch, and |log u| <= pi covers the longer ones.  Over C(X),
    evaluation at a vertex is a contractive unital *-homomorphism, so
    sup_x |arg u(x)| is a lower bound too.  Only the log-norm bound is
    taken for n > 1, where the l1-sum operator norm is not unitarily
    invariant, over the real scalars, and for an element that
    ``el_exact_unitary`` refuses: one built with ``validate=False`` that is
    not unitary, or one whose principal log is refused."""
    g.check_finite()
    return _lower_bound(g, _principal_log(g) if _unitary_tagged(g) else None)


def _unitary_tagged(g):
    """Whether g is a U-tagged 1x1 element over C, M_k or C(X), the reach
    of the ``"unitary-log"`` bound."""
    return g.group_tag == "U" and g.n == 1 and g.algebra.kind != SCALAR_REAL


def _principal_log(g):
    """``mat_log(g)``, or None where it is refused."""
    try:
        return mat_log(g)
    except (SpectrumOnCutError, NumericFailureError):
        return None


def _lower_bound(g, single):
    """``el_lower_bound`` of a finite g, given ``single``, its principal log
    or None; the ``"unitary-log"`` bound needs it, and the el search's pool
    has already taken it."""
    best = 0.0
    for h in (g, g.inverse()):
        norm = h.matrix.op_norm()
        if norm > 0:
            best = max(best, math.log(norm))
    if single is not None and _unitary_tagged(g) and g.is_unitary():
        exact = _log_length(g, single)
        if exact > best:
            return exact, "unitary-log"
    return best, "log-op-norm"


def el_exact_unitary(u):
    """|log u| with the principal branch: the bi-invariant length of a
    unitary.

    For function algebras the value is the sup over vertices of the
    pointwise norm; it equals the group's length exactly whenever the
    pointwise principal logarithm is itself continuous across every edge
    (in particular on edgeless discretizations and near the identity).
    """
    u.check_finite()
    if not u.is_unitary():
        raise ValueError("input is not unitary")
    return _log_length(u, mat_log(u))


def _log_length(u, log):
    """|log u| from the principal log of u: over C(X), the sup over
    vertices of the pointwise norm."""
    if u.algebra.kind == FUNCTIONS:
        return float(np.abs(log.to_flat()).sum(axis=-2).max())
    return log.op_norm()


def el_exact_positive_diagonal(a):
    """|log a| for a = diag(d, d^{-1}) with d positive invertible in a
    commutative algebra; the single-factor and log|a| bounds meet here.

    Each test is judged at the scale of what it tests: the off-diagonal
    entries against the larger diagonal entry, d d^{-1} - 1 against
    |d| |d^{-1}|, and the imaginary part of d against |d|."""
    a.check_finite()
    mat = a.matrix
    if mat.n != 2:
        raise ValueError("expected a 2x2 diagonal element")
    if not mat.algebra.is_commutative:
        raise ValueError("requires a commutative algebra")
    norms = mat.entry_norms()
    if not max(norms[0, 1], norms[1, 0]) <= 1e-9 * max(norms[0, 0],
                                                        norms[1, 1]):
        raise ValueError("off-diagonal entries must vanish")
    d, d_inv = (np.atleast_1d(mat.data[i, i]) for i in (0, 1))
    if not np.all(np.abs(d * d_inv - 1.0) <= 1e-7 * np.abs(d) * np.abs(d_inv)):
        raise ValueError("expected diag(d, d^{-1})")
    if not np.all((d.real > 0) & (np.abs(d.imag) <= 1e-9 * np.abs(d))):
        raise ValueError("d must be positive")
    return float(np.max(np.abs(np.log(d.real))))


@dataclass(frozen=True)
class EstimateBudget:
    """Deterministic caps for the factorization search; frozen, so that a
    budget keys the el certificates kept for an element."""

    max_factors: ClassVar[int] = 16
    init_step: ClassVar[float] = 0.25
    min_step: ClassVar[float] = 1e-4
    residual_tol: ClassVar[float] = 1e-8
    restarts: int = 2
    iterations: int = 20
    trials: int = 6
    optimize: bool = True


def admissible_residual(target_norm):
    """The one residual rule of a certificate of a target of norm |g|: at
    most ``EstimateBudget.residual_tol`` (1 + |g|)."""
    return EstimateBudget.residual_tol * (1.0 + target_norm)


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
    alpha = args[widest] + gaps[widest] / 2.0 - math.pi  # mid-gap cut
    rotated = g.matrix.scaled(np.exp(-1j * alpha))
    log = mat_log(GroupElement(rotated, "GL", validate=False))
    phase = MatrixOverAlgebra.identity(g.algebra, g.n).scaled(1j * alpha)
    return [log + phase]


def _polar_certificate(g):
    """Two-factor certificate from the polar decomposition g = W P with W
    unitary and P positive definite: both factors always admit a principal
    log over the complex scalars."""
    u, s, vh = np.linalg.svd(g.matrix.to_flat())
    p_flat = spectral(s, vh.conj().swapaxes(-1, -2))
    w = MatrixOverAlgebra.from_flat(g.algebra, g.n, u @ vh)
    p = MatrixOverAlgebra.from_flat(g.algebra, g.n, p_flat)
    return [mat_log(GroupElement(w, "U", validate=False)),
            mat_log(GroupElement(p, "GL", validate=False))]


def _initial_certificates(g, initial_factors, single):
    """Candidate factorizations: caller-supplied factors, the single-factor
    principal log ``single`` when admissible (not None), its subdivisions, a
    rotated-branch single factor, the polar two-factor split, and logs along
    the linear interpolation from the identity (factor count doubling until
    every step admits a log)."""
    pool = []
    if initial_factors is not None:
        pool.append(list(initial_factors))
    if single is not None:
        pool.append([single])
        pool.extend([single.scaled(1.0 / k) for _ in range(k)] for k in (2, 4))
        return pool
    for fallback in (_rotated_log_certificate, _polar_certificate):
        try:
            pool.append(fallback(g))
        except (SpectrumOnCutError, NumericFailureError,
                np.linalg.LinAlgError):
            pass
    ident = MatrixOverAlgebra.identity(g.algebra, g.n)
    k = 2
    while k <= EstimateBudget.max_factors:
        points = (ident.scaled(1.0 - j / k) + g.matrix.scaled(j / k)
                  for j in range(k + 1))
        try:
            pool.append([mat_log(GroupElement(a.inverse() @ b, "GL",
                                              validate=False))
                         for a, b in itertools.pairwise(points)])
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
            "every path step left the log domain up to "
            f"{EstimateBudget.max_factors} factors: the search budget or the "
            "floating-point range of exp/log is exhausted")
    return pool


def _resplits(g, left, pair, step, count, rng):
    """The re-split trials of a pair of factors of g, given as left = exp X
    and pair = exp X exp Y in flat form, as one stack.  Trial t draws a
    direction D, skew-adjoint when g is tagged U, and splits the pair
    at mid = left exp(step D/|D|) into X' = log(mid) and Y' = log(mid^-1
    pair): one expm, one inverse and one ``stacked_logs`` call for all
    trials.

    Returns (logs, targets, trials).  logs holds X' of every trial, then Y'
    of every trial, in flat form, and targets holds mid and mid^-1 pair in
    the same order: trial t's two rows are t and count + t, the arguments
    of its ``round_trips``.  trials lists, in order, the trials whose
    direction is nonzero and whose exp(step D/|D|) and two logs are all
    admitted; the logs of any other trial are finite and mean nothing."""
    algebra, n, unitary = g.algebra, g.n, g.group_tag == "U"
    directions = random_stack(algebra, n, count, rng)
    if unitary:
        adjoint = stack_from_flat(algebra, n, np.swapaxes(
            stack_to_flat(algebra, directions).conj(), -1, -2))
        directions = 0.5 * (directions - adjoint)
    norms = op_norms(algebra.norm(directions))
    inverse = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    steps = step * (inverse.reshape((count,) + (1,) * (directions.ndim - 1))
                    * directions)
    step_exps, step_failures = mat_exps(algebra, n,
                                        stack_to_flat(algebra, steps))
    with np.errstate(over="ignore", invalid="ignore"):
        mids = left @ step_exps
        rests = _inverses(mids) @ pair
    logs, verdicts, targets = stacked_logs(
        algebra, n, np.concatenate([mids, rests]), unitary)
    trials = [t for t in np.flatnonzero(norms > 0).tolist()
              if step_failures[t] is None and verdicts[t] is None
              and verdicts[count + t] is None]
    return logs, targets, trials


def _inverses(flats):
    """The inverse of each matrix in a stack; NaN for an exactly singular
    one, whose log is refused, rather than an error for the whole stack."""
    try:
        return np.linalg.inv(flats)
    except np.linalg.LinAlgError:
        out = np.full(flats.shape, np.nan, dtype=flats.dtype)
        for index in np.ndindex(flats.shape[:-2]):
            try:
                out[index] = np.linalg.inv(flats[index])
            except np.linalg.LinAlgError:
                pass
        return out


def _refine_factors(factors, g, objective, budget, rng):
    """Derivative-free coordinate descent over the interior split points:
    each sweep re-splits each adjacent pair through a perturbed midpoint,
    keeping the product and the factor count fixed; fewer than two factors
    allow none.  exps, the flat exp(best[i]) as one array, is computed once
    per factor.

    A pair's ``budget.trials`` trials are one stack (``_resplits``), and so
    are their values: the objective is ``_sum_norms`` or ``_norm_of_sum``,
    and one norm call on the stacked logs gives its value on every trial's
    candidate, equal bit for bit to ``objective`` of it (see ``_Summed``).
    The admitted trials are then judged in order.  A trial pays its round
    trip (``round_trips`` of its two logs) only once it shortens the
    objective; the first that also passes it wins, its logs become factors
    and its round-trip exponentials their exps, and the generator is put
    back to just after its draw."""
    best, best_val = list(factors), objective(factors)
    if len(best) < 2:
        return best, best_val
    algebra, n, count = g.algebra, g.n, budget.trials
    summed = _SUMMED[objective]
    terms = [summed.term(algebra, x.data) for x in best]
    exps = np.stack([mat_exp(x).matrix.to_flat() for x in best])
    step = budget.init_step
    for _ in range(budget.iterations):
        improved = False
        for i in range(len(best) - 1):
            state = rng.bit_generator.state
            logs, targets, trials = _resplits(
                g, exps[i], exps[i] @ exps[i + 1], step, count, rng)
            values, trial_terms = summed.trial_values(algebra, n, terms, i,
                                                      logs)
            for t in trials:
                if not values[t] < best_val - 1e-12:
                    continue
                both = [t, count + t]
                round_trip, verdicts = round_trips(algebra, n, logs[both],
                                                   targets[both])
                if any(verdicts):  # an error is true, None is false
                    continue
                best[i:i + 2] = [MatrixOverAlgebra.from_flat(algebra, n, y)
                                 for y in logs[both]]
                best_val, improved = float(values[t]), True
                terms[i:i + 2] = trial_terms[both]
                exps[i:i + 2] = round_trip
                rng.bit_generator.state = state
                random_stack(algebra, n, t + 1, rng)
                break
        if not improved:
            step *= 0.5
            if step < budget.min_step:
                break
    return best, best_val


def _sum_norms(factors):
    return float(sum(x.op_norm() for x in factors))


def _norm_of_sum(factors):
    return sum(factors[1:], factors[0]).op_norm()


@dataclass(frozen=True)
class _Summed:
    """An objective of factors f_0, ..., f_m written as value(term(f_0) +
    ... + term(f_m)), summed left to right as ``sum`` sums.  ``term`` maps
    the data of one factor, or of a stack of factors along a leading axis,
    to its terms, and ``value`` maps a sum, or a stack of sums, to values:
    a candidate whose pair is a stack of trials thus gets the value of
    each trial, bit for bit that of the candidate alone, since every float
    operation is the same elementwise."""

    term: Callable
    value: Callable

    def trial_values(self, algebra, n, terms, i, logs):
        """(values, trial_terms): given the terms of the factors and the
        logs of ``_resplits`` for the pair at i, the value of each trial's
        candidate, the factors with the pair replaced by that trial's X',
        Y', and the terms of the logs, in their order."""
        trial_terms = self.term(algebra, stack_from_flat(algebra, n, logs))
        count = len(logs) // 2
        total = functools.reduce(operator.add, terms[:i] + [
            trial_terms[:count], trial_terms[count:]] + terms[i + 2:])
        return self.value(algebra, total), trial_terms


# The two objectives of ``_search``, in the form ``_refine_factors`` stacks.
_SUMMED = {
    _sum_norms: _Summed(lambda algebra, data: op_norms(algebra.norm(data)),
                        lambda algebra, total: total),
    _norm_of_sum: _Summed(lambda algebra, data: data,
                          lambda algebra, sums: op_norms(algebra.norm(sums))),
}


def _search(g, work, objective, budget, seed, lower):
    """The certificate of least objective, among the pool of the element's
    ``_Work`` and its ``budget.restarts`` refined starts, that meets the
    residual gate.  When the pool's best meets the gate and reaches
    ``lower``, a lower bound of the objective (``in_order``), nothing can
    beat it: it is returned with no restart."""
    pool = work.pool
    candidates = sorted(((objective(f), i) for i, f in enumerate(pool)),
                        key=lambda t: t[0])
    gate = admissible_residual(g.matrix.op_norm())
    if in_order(candidates[0][0], lower):
        cert = work.pool_certificate(g, candidates[0][1])
        if cert.residual <= gate:
            return cert
    results = [(val, functools.partial(work.pool_certificate, g, i))
               for val, i in candidates]
    if budget.optimize:
        for restart in range(budget.restarts):
            rng = np.random.default_rng([seed, restart])
            start = pool[candidates[min(restart, len(candidates) - 1)][1]]
            refined, val = _refine_factors(start, g, objective, budget, rng)
            results.append((val, functools.partial(
                FactorizationCertificate.from_factors, refined, g)))
    results.sort(key=lambda t: t[0])
    for val, certify in results:
        cert = certify()
        if cert.residual <= gate:
            return cert
    raise NoFactorizationError("no certificate met the residual tolerance")


@dataclass
class _Work:
    """What the estimates of one element share: its pool, one certificate
    per pool entry (None until a search certifies it), its
    ``el_lower_bound`` (value, method), and its el certificates by
    (budget, seed)."""

    pool: list
    lower: tuple
    pool_certificates: list
    el_certificates: dict

    def pool_certificate(self, g, i):
        """The certificate of pool entry i, made on first use."""
        cert = self.pool_certificates[i]
        if cert is None:
            cert = FactorizationCertificate.from_factors(self.pool[i], g)
            self.pool_certificates[i] = cert
        return cert


# The work kept for the last element asked without initial factors: (key,
# ``_Work``).  One entry, replaced by one assignment, so memory stays
# bounded and each reader works on its own reference: two threads on two
# elements only miss.
_last_element = None


def _element_work(g, initial_factors):
    """The ``_Work`` of g.  Without initial factors it is kept for the last
    element asked, and reused when g has its value: the key is the algebra,
    n, the group tag, the dtype and the entry bytes, so writing through the
    caller's array is a miss.  An element whose pool raises
    ``NoFactorizationError`` is not kept, so it raises on every call, and
    one with a non-finite entry is refused before any log."""
    global _last_element
    g.check_finite()
    if initial_factors is not None:
        return _new_work(g, initial_factors)
    data = g.matrix.data
    key = (g.algebra, g.n, g.group_tag, data.dtype.str, data.tobytes())
    last = _last_element
    if last is not None and last[0] == key:
        return last[1]
    work = _new_work(g, None)
    _last_element = (key, work)
    return work


def _new_work(g, initial_factors):
    """The ``_Work`` of a finite g, with nothing certified yet: one
    principal log of g serves both the pool and the bound."""
    single = _principal_log(g)
    pool = _initial_certificates(g, initial_factors, single)
    return _Work(pool, _lower_bound(g, single), [None] * len(pool), {})


def _el_certificate(g, work, budget, seed):
    """The el search's certificate on the element's work, run once per
    (budget, seed)."""
    cert = work.el_certificates.get((budget, seed))
    if cert is None:
        cert = _search(g, work, _sum_norms, budget, seed, work.lower[0])
        work.el_certificates[budget, seed] = cert
    return cert


def el_estimate(g, budget=None, seed=0):
    """Bracket [``el_lower_bound``, best certificate sum] for el(g).

    Deterministic for a fixed seed; the certificate witnessing the upper
    bound is returned inside the bracket.  ``el_estimate`` and
    ``rel_estimate`` share one pool, its certificates and one el search per
    element: asked of the same element one after the other, the second call
    builds no pool, certifies no pool entry again and, for the same budget
    and seed, runs no el search.  Bracket and certificate are new objects
    on every call, and the certificate's target is g itself.
    """
    budget = budget or EstimateBudget()
    work = _element_work(g, None)
    cert = _el_certificate(g, work, budget, seed)
    cert = replace(cert, factors=list(cert.factors), target=g)
    lower, method = work.lower
    return ElBracket(lower, cert.sum_of_norms, cert, method)


def rel_estimate(g, budget=None, seed=0, initial_factors=None):
    """Upper bound for the reduced length: minimal |sum X_i| over the same
    certificate family the el search explores, including the certificate
    that wins the el objective (so rel <= el upper holds on the shared
    pool).  Both searches start from one pool, which, without
    ``initial_factors``, is the pool ``el_estimate`` uses for the same
    element; its certificates and its el search are shared with
    ``el_estimate`` too.  The rel search stops early only at 0: |log u| is
    not proven to bound |sum X_i| from below."""
    budget = budget or EstimateBudget()
    work = _element_work(g, initial_factors)
    value = _search(g, work, _norm_of_sum, budget, seed, 0.0).norm_of_sum
    if budget.optimize:
        value = min(value, _el_certificate(g, work, budget, seed).norm_of_sum)
    return value


# The first-order bound the product defect of ``trotter_check`` keeps:
# n * |(e^{X/n} e^{Y/n})^n - e^{X+Y}| < TROTTER_BOUND for |X|, |Y| <= 1.
TROTTER_BOUND = 4.0


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

