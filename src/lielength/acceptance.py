"""The acceptance battery: eleven property suites, each a callable that
returns a report dict with ``criterion``, ``passed``, ``detail``,
``elapsed_s`` and ``runtime_limit_s`` fields.

Every criterion is deterministic (fixed seeds) and pinned to the tolerance
it states; the CLI ``suite acceptance`` command and the pytest acceptance
module both run exactly these functions.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from . import (
    algebra,
    circle,
    coarse,
    elementary,
    explength,
    oracles,
    schatten,
)


def _criterion(name, limit=None):
    """Make a body returning ``(passed, detail)`` into a criterion: it is
    timed, a run of ``limit`` seconds or more fails it, and its report is
    built here."""
    def wrap(body):
        @functools.wraps(body)
        def run():
            start = time.perf_counter()
            passed, detail = body()
            elapsed = time.perf_counter() - start
            return {
                "criterion": name,
                "passed": bool(passed) and (limit is None or elapsed < limit),
                "detail": detail,
                "elapsed_s": round(elapsed, 3),
                "runtime_limit_s": limit,
            }
        return run
    return wrap


def random_unitary(k, rng):
    """Random element of the unitary group of size k, modeled as a 1x1
    matrix over the k-by-k matrix algebra, so the ambient norm is the
    operator norm."""
    alg = algebra.matrix_algebra(k)
    a = schatten.random_selfadjoint(k, rng, operator_norm=rng.uniform(0.3, math.pi))
    u = algebra.exp_i_selfadjoint(*np.linalg.eigh(a))
    mat = algebra.MatrixOverAlgebra(alg, u[None, None, :, :])
    return algebra.GroupElement(mat, "U", validate=False)


def random_gl(n, rng):
    """Random invertible n-by-n complex matrix whose eigenvalues all have
    modulus above 0.05."""
    alg = algebra.scalar_complex()
    while True:
        x = algebra.MatrixOverAlgebra.random(alg, n, rng, scale=0.7)
        if np.min(np.abs(np.linalg.eigvals(x.to_flat()))) > 0.05:
            return algebra.GroupElement(x, "GL", validate=False)


@_criterion("1: exp sandwich inequality", limit=10.0)
def criterion_1_sandwich():
    """Two-sided exponential estimate: 1000 random self-adjoint matrices
    with operator norm at most pi, dims {2,4,8,16}, p in {1,2,4}."""
    rng = np.random.default_rng(101)
    dims = (2, 4, 8, 16)
    violations = 0
    for idx in range(1000):
        dim = dims[idx % 4]
        a = schatten.random_selfadjoint(dim, rng,
                                        operator_norm=rng.uniform(1e-3, math.pi))
        for p in (1, 2, 4):
            ctx = schatten.SchattenContext(dim, p)
            try:
                schatten.sandwich_check(a, ctx)
            except AssertionError:
                violations += 1
    return violations == 0, f"violations={violations}"


def _random_admissible_circle(rng):
    """Random circle function built from a bounded real lift, so the
    sampling condition and zero windings hold by construction."""
    v = int(rng.integers(1, 7))
    labels = rng.integers(0, 3, size=v)
    edges = []
    for c in range(3):
        members = np.flatnonzero(labels == c)
        for a, b in zip(members[:-1], members[1:]):
            edges.append((int(a), int(b)))
        for a, b in zip(members[:-2], members[2:]):
            if rng.random() < 0.3:
                edges.append((int(a), int(b)))
    base = rng.uniform(-3.0, 3.0, size=3)
    lift = base[labels] + rng.uniform(-0.2, 0.2, size=v)
    space = circle.DiscretizedSpace(v, edges)
    return circle.CircleFunction(space, lift % 1.0), lift


@_criterion("2: circle closed form vs oracle", limit=5.0)
def criterion_2_abelian_closed_form():
    """quotient_norm equals the exhaustive offset oracle on 1000 random
    small instances; the sup of cel on edgeless graphs approaches pi."""
    rng = np.random.default_rng(202)
    mismatches = 0
    for _ in range(1000):
        f, _ = _random_admissible_circle(rng)
        mine = circle.quotient_norm(f)
        ref = oracles.oracle_quotient_norm(f, offset_range=5)
        if mine != ref:
            mismatches += 1
    edgeless = circle.DiscretizedSpace(8, ())
    top = 0.0
    for _ in range(10_000):
        f = circle.CircleFunction(edgeless, rng.uniform(0, 1, size=8))
        top = max(top, circle.cel(f))
    sup_ok = math.pi - 1e-3 <= top <= math.pi
    return (mismatches == 0 and sup_ok,
            f"mismatches={mismatches}, sup cel={top:.6f}")


@_criterion("3: el estimator soundness", limit=60.0)
def criterion_3_el_estimator():
    """el_estimate upper lands in [exact, 1.05 exact] on 100 random
    unitaries; the log-norm lower bound never exceeds the upper bound on
    1000 random invertibles."""
    rng = np.random.default_rng(303)
    bad_unitary = 0
    for idx in range(100):
        k = 2 + idx % 5
        u = random_unitary(k, rng)
        exact = explength.el_exact_unitary(u)
        bracket = explength.el_estimate(u, seed=idx)
        if not (exact - 1e-9 <= bracket.upper <= 1.05 * exact + 1e-6):
            bad_unitary += 1
    quick = explength.EstimateBudget(optimize=False)
    bad_order = 0
    for idx in range(1000):
        g = random_gl(2 + idx % 3, rng)
        try:  # ElBracket refuses an order miss
            explength.el_estimate(g, budget=quick, seed=idx)
        except (explength.NoFactorizationError, AssertionError):
            bad_order += 1
    return (bad_unitary == 0 and bad_order == 0,
            f"unitary misses={bad_unitary}, order misses={bad_order}")


@_criterion("4: positive diagonal closed form")
def criterion_4_positive_diagonal():
    """Length bracket collapses to |log d| on 100 random positive
    diagonals diag(d, 1/d), scalar and function algebras."""
    rng = np.random.default_rng(404)
    quick = explength.EstimateBudget(optimize=False)
    worst = 0.0
    graph = algebra.function_algebra(4, [(0, 1), (1, 2)])
    for idx in range(100):
        if idx % 2 == 0:
            alg = algebra.scalar_complex()
            d = np.exp(rng.uniform(-2, 2))
        else:
            alg = graph
            d = np.exp(rng.uniform(-2, 2, size=4))
        mat = algebra.MatrixOverAlgebra.diagonal(
            alg, [d * alg.unit_value(), (1.0 / d) * alg.unit_value()])
        g = algebra.GroupElement(mat, "GL", validate=False)
        exact = explength.el_exact_positive_diagonal(g)
        bracket = explength.el_estimate(g, budget=quick, seed=idx)
        worst = max(worst, abs(bracket.upper - exact),
                    abs(bracket.lower - exact))
    return worst <= 1e-6, f"worst bracket gap={worst:.2e}"


@_criterion("5: rel below el")
def criterion_5_rel_vs_el():
    """rel <= el on shared pools, and rel(exp(X)exp(Y)) <= |X+Y| on 500
    random pairs."""
    rng = np.random.default_rng(505)
    quick = explength.EstimateBudget(optimize=False)
    bad_pool = 0
    for idx in range(50):
        g = random_gl(2, rng)
        upper = explength.el_estimate(g, budget=quick, seed=idx).upper
        rel = explength.rel_estimate(g, budget=quick, seed=idx)
        if not explength.in_order(rel, upper):
            bad_pool += 1
    bad_sum = 0
    alg = algebra.scalar_complex()
    for idx in range(500):
        x = algebra.MatrixOverAlgebra.random(alg, 2, rng, scale=0.4)
        y = algebra.MatrixOverAlgebra.random(alg, 2, rng, scale=0.4)
        g = algebra.mat_exp(x) @ algebra.mat_exp(y)
        rel = explength.rel_estimate(g, budget=quick, seed=idx,
                                     initial_factors=[x, y])
        if rel > (x + y).op_norm() + 1e-9:
            bad_sum += 1
    return (bad_pool == 0 and bad_sum == 0,
            f"pool misses={bad_pool}, sum misses={bad_sum}")


@_criterion("6: Trotter first-order convergence")
def criterion_6_trotter():
    """Product-formula defect scales like 1/n: n * error(n) stays bounded
    and error halves (within [1.5, 3]) when n doubles, for n >= 64."""
    rng = np.random.default_rng(606)
    alg = algebra.scalar_complex()
    ns = (16, 32, 64, 128, 256, 512)
    bound_misses = 0
    ratio_misses = 0
    for _ in range(50):
        while True:
            x = algebra.MatrixOverAlgebra.random(alg, 2, rng, scale=1.0)
            y = algebra.MatrixOverAlgebra.random(alg, 2, rng, scale=1.0)
            x = x.scaled(rng.uniform(0.5, 1.0) / x.op_norm())
            y = y.scaled(rng.uniform(0.5, 1.0) / y.op_norm())
            comm = (x @ y) - (y @ x)
            if comm.op_norm() >= 0.05:
                break
        errors = {}
        for n in ns:
            product_error, _ = explength.trotter_check(x, y, n)
            errors[n] = product_error
            if not product_error * n < explength.TROTTER_BOUND:
                bound_misses += 1
        for n in (64, 128, 256):
            ratio = errors[n] / errors[2 * n]
            if not (1.5 <= ratio <= 3.0):
                ratio_misses += 1
    return (bound_misses == 0 and ratio_misses == 0,
            f"bound misses={bound_misses}, ratio misses={ratio_misses}")


@_criterion("7: maximal-metric chain certificates")
def criterion_7_metric_chains():
    """Coarse-properness and geodesic chains on 200 sampled p-unitaries,
    dims {4,8}, p in {1,2}: k stays below floor(2D/d) + floor(pi/d) + 2 and
    the constant-2 chain bounds hold."""
    rng = np.random.default_rng(707)
    delta = 1.0
    failures = 0
    for idx in range(200):
        dim = (4, 8)[idx % 2]
        p = (1, 2)[(idx // 2) % 2]
        ctx = schatten.SchattenContext(dim, p)
        u = schatten.random_punitary(ctx, rng,
                                     operator_norm=rng.uniform(0.2, math.pi))
        d0 = u.dist_to_identity()
        radius = d0 * 1.05 + 0.1
        chain = schatten.coarse_proper_chain(u, radius, delta)
        k = len(chain) - 1
        cap = math.floor(2 * radius / delta) + math.floor(math.pi / delta) + 2
        if k > cap:
            failures += 1
        try:
            schatten.geodesic_chain(u)
        except AssertionError:
            failures += 1
    return failures == 0, f"failures={failures}"


@_criterion("8: Haagerup witnesses")
def criterion_8_haagerup():
    """Positive-definiteness of the Gaussian cocycle kernels, exactness of
    the cocycle identity, and the isometric fit of b(u) = u - 1."""
    rng = np.random.default_rng(808)
    ctx = schatten.SchattenContext(6, 2)
    elements = [schatten.random_punitary(ctx, rng,
                                         operator_norm=rng.uniform(0.2, math.pi))
                for _ in range(50)]
    min_eigs = []
    for n in (1, 10):
        _, min_eig = schatten.haagerup_witness(elements, n)
        min_eigs.append(min_eig)
    gram_ok = all(m >= -1e-8 for m in min_eigs)

    worst_cocycle = 0.0
    for _ in range(1000):
        u = schatten.random_punitary(ctx, rng)
        v = schatten.random_punitary(ctx, rng)
        lhs = schatten.cocycle(u @ v)
        rhs = u.matrix @ schatten.cocycle(v) + schatten.cocycle(u)
        worst_cocycle = max(worst_cocycle,
                            schatten.p_norm(lhs - rhs, ctx))
    cocycle_ok = worst_cocycle <= 1e-10

    sample_elems = elements[:40]
    ids = list(range(len(sample_elems)))
    domain = coarse.SampledSpace.from_points(
        ids, lambda a, b: sample_elems[a].dist_to(sample_elems[b]), 0)
    codomain = coarse.SampledSpace.from_points(
        ids, lambda a, b: schatten.p_norm(
            schatten.cocycle(sample_elems[a]) - schatten.cocycle(sample_elems[b]),
            ctx), 0)
    fit = coarse.fit_quasi_isometry(
        coarse.CoarseMapSample(domain, codomain, [(i, i) for i in ids]))
    # distances reach the table through two float paths, so the additive
    # constant is compared at machine precision rather than literal zero
    fit_ok = fit.constant == 1.0 and fit.additive <= 1e-12
    return (gram_ok and cocycle_ok and fit_ok,
            f"min eigs={['%.2e' % m for m in min_eigs]}, "
            f"cocycle residual={worst_cocycle:.2e}, fit={fit.as_pair()}")


def _three_algebras():
    return (algebra.scalar_complex(),
            algebra.matrix_algebra(2),
            algebra.function_algebra(5, [(0, 1), (1, 2), (3, 4)]))


@_criterion("9: elementary bracket identities")
def criterion_9_elementary_identities():
    """Structural bracket identities at 1e-12 across three algebras, and
    the traceless decomposition round trip."""
    rng = np.random.default_rng(909)
    algebras = _three_algebras()
    worst_identity = 0.0
    worst_rebuild = 0.0
    for idx in range(500):
        alg = algebras[idx % 3]
        n = 2 + idx % 3
        a = algebra.AlgebraElement(alg, alg.random_value(rng))
        b = algebra.AlgebraElement(alg, alg.random_value(rng))
        i = 1 + idx % n
        j = 1 + (idx + 1) % n
        if i == j:
            j = 1 + (j % n)
        r1, r2 = elementary.bracket_identities_check(a, b, n, i, j)
        worst_identity = max(worst_identity, r1, r2)

        x = algebra.MatrixOverAlgebra.random(alg, n, rng)
        x = _project_traceless(x)
        decomp = elementary.traceless_decompose(x)
        worst_rebuild = max(worst_rebuild,
                            (decomp.rebuild() - x).op_norm())
    return (worst_identity <= 1e-12 and worst_rebuild <= 1e-12,
            f"identity residual={worst_identity:.2e}, "
            f"rebuild residual={worst_rebuild:.2e}")


def _project_traceless(x):
    """Cancel tau_n(X) by adjusting the corner entry inside ker(tau)."""
    alg = x.algebra
    value = elementary.trace_of_matrix(x)
    if alg.kind == algebra.FUNCTIONS:
        corner = np.asarray(value)[alg.graph.labels]
    elif alg.kind == algebra.MATRIX:
        corner = (value[0] / alg.k) * np.eye(alg.k)
    else:
        corner = value[0]
    # the other entries subtract an exact zero, so only the corner changes
    return x - algebra.MatrixOverAlgebra.single_entry(
        alg, x.n, x.n - 1, x.n - 1, corner)


@_criterion("10: factorization invariant")
def criterion_10_hs_determinant():
    """Factorization invariance of the determinant-style invariant modulo
    the lattice, and vanishing on elementary words."""
    rng = np.random.default_rng(1010)
    alg = algebra.scalar_complex()
    worst_invariance = 0.0
    for idx in range(100):
        g = random_gl(2, rng)
        cert_a = explength.FactorizationCertificate.from_factors(
            [algebra.mat_log(g)], g)
        cert_b = _split_certificate(g, rng)
        da = elementary.hs_determinant(cert_a)
        db = elementary.hs_determinant(cert_b)
        diff, _ = elementary.reduce_mod_lattice(da.raw - db.raw)
        worst_invariance = max(worst_invariance, float(np.max(np.abs(diff))))
    worst_word = 0.0
    for idx in range(100):
        word = []
        for _ in range(int(rng.integers(1, 6))):
            i, j = rng.permutation(3)[:2] + 1
            payload = algebra.AlgebraElement(alg, alg.random_value(rng))
            word.append(elementary.gen_E(int(i), int(j), payload, 3))
        cert = elementary.word_certificate(word)
        value = elementary.hs_determinant(cert)
        worst_word = max(worst_word, float(np.max(np.abs(value.raw))))
    return (worst_invariance <= 1e-8 and worst_word <= 1e-12,
            f"invariance={worst_invariance:.2e}, "
            f"elementary words={worst_word:.2e}")


def _split_certificate(g, rng):
    """An independent two-factor certificate through a random midpoint."""
    alg, n = g.algebra, g.n
    for _ in range(50):
        r = algebra.MatrixOverAlgebra.random(alg, n, rng, scale=0.3)
        mid = algebra.mat_exp(r)
        try:
            rest = algebra.GroupElement(
                mid.matrix.inverse() @ g.matrix, "GL", validate=False)
            return explength.FactorizationCertificate.from_factors(
                [r, algebra.mat_log(rest)], g)
        except (algebra.SpectrumOnCutError, algebra.NumericFailureError):
            continue
    raise RuntimeError("could not build a split certificate")


@_criterion("11: unboundedness witness")
def criterion_11_unboundedness():
    """Witness brackets [log(m+1), m] verified exactly for
    m in {1, 10, 100, 10^6}; the lower bound passes 13 at m = 10^6."""
    ms = (1, 10, 100, 10**6)
    brackets = [elementary.unboundedness_witness(m) for m in ms]
    lowers = [b.lower for b in brackets]
    ok = (all(abs(b.lower - math.log(m + 1)) <= 1e-12 and abs(b.upper - m)
              <= 1e-12 for m, b in zip(ms, brackets))
          and all(a < b for a, b in zip(lowers, lowers[1:]))
          and lowers[-1] > 13.0)
    return ok, f"lower(10^6)={lowers[-1]:.4f}"


CRITERIA = (
    criterion_1_sandwich,
    criterion_2_abelian_closed_form,
    criterion_3_el_estimator,
    criterion_4_positive_diagonal,
    criterion_5_rel_vs_el,
    criterion_6_trotter,
    criterion_7_metric_chains,
    criterion_8_haagerup,
    criterion_9_elementary_identities,
    criterion_10_hs_determinant,
    criterion_11_unboundedness,
)


def run_all():
    """Run every criterion, print one pass/fail line each, return reports."""
    reports = []
    for fn in CRITERIA:
        report = fn()
        reports.append(report)
        status = "PASS" if report["passed"] else "FAIL"
        print(f"[{status}] {report['criterion']} "
              f"({report['elapsed_s']}s) {report['detail']}")
    return reports
