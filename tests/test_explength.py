"""Length brackets: closed forms, the estimator, Trotter defects, and the
pseudo-length certificate algebra."""

import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lielength as ll
from lielength import acceptance, explength, oracles, schatten


def unitary_group_element(u):
    """A unitary matrix as a 1x1 element over the matrix algebra, so the
    ambient norm is the operator norm."""
    k = u.shape[0]
    alg = ll.matrix_algebra(k)
    return ll.GroupElement(ll.MatrixOverAlgebra(alg, u[None, None]), "U",
                           validate=False)


def random_unitary(k, rng, operator_norm=2.0):
    a = schatten.random_selfadjoint(k, rng, operator_norm)
    lam, vecs = np.linalg.eigh(a)
    return (vecs * np.exp(1j * lam)) @ vecs.conj().T


# -- exact values --------------------------------------------------------------

def test_el_exact_unitary_fixtures():
    alg = ll.scalar_complex()
    ident = ll.GroupElement(ll.MatrixOverAlgebra.identity(alg, 2), "U")
    assert ll.el_exact_unitary(ident) <= 1e-12

    minus = ll.GroupElement(
        ll.MatrixOverAlgebra(alg, -np.eye(2, dtype=complex)), "U")
    assert ll.el_exact_unitary(minus) == pytest.approx(math.pi, abs=1e-12)

    quarter = ll.GroupElement(
        ll.MatrixOverAlgebra(alg, np.diag([np.exp(1j * math.pi / 2), 1.0 + 0j])),
        "U")
    assert ll.el_exact_unitary(quarter) == pytest.approx(math.pi / 2,
                                                         abs=1e-12)


def test_el_exact_unitary_matches_bruteforce_depth3():
    # the oracle grids 1-, 2-, and 3-factor products; it can only find the
    # single-factor optimum for a scalar unitary
    alg = ll.scalar_complex()
    g = ll.GroupElement(
        ll.MatrixOverAlgebra(alg, np.array([[np.exp(1j * math.pi / 2)]])), "U")
    exact = ll.el_exact_unitary(g)
    upper = oracles.oracle_el_bruteforce(g, grid_points=41, max_factors=3)
    resolution = 2 * math.pi / 40
    assert exact == pytest.approx(math.pi / 2, abs=1e-12)
    assert exact - 1e-9 <= upper <= exact + resolution


def test_el_exact_positive_diagonal_fixtures():
    alg = ll.scalar_complex()
    ident = ll.GroupElement(ll.MatrixOverAlgebra.identity(alg, 2), "GL")
    assert ll.el_exact_positive_diagonal(ident) == 0.0

    g = ll.GroupElement(
        ll.MatrixOverAlgebra(alg, np.diag([math.e ** 2 + 0j, math.e ** -2])),
        "GL")
    assert ll.el_exact_positive_diagonal(g) == pytest.approx(2.0, abs=1e-12)

    two_point = ll.function_algebra(2, ())
    mat = ll.MatrixOverAlgebra.diagonal(
        two_point, [np.array([2.0, 3.0]), np.array([0.5, 1 / 3.0])])
    g = ll.GroupElement(mat, "GL", validate=False)
    assert ll.el_exact_positive_diagonal(g) == pytest.approx(math.log(3.0),
                                                             abs=1e-12)


def test_el_exact_positive_diagonal_rejects_nonpositive():
    alg = ll.scalar_complex()
    g = ll.GroupElement(
        ll.MatrixOverAlgebra(alg, np.diag([-2.0 + 0j, -0.5 + 0j])), "GL")
    with pytest.raises(ValueError):
        ll.el_exact_positive_diagonal(g)


@pytest.mark.parametrize("alg", [ll.scalar_complex(), ll.scalar_real()],
                         ids=["C", "R"])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("exact", [ll.el_exact_positive_diagonal,
                                   ll.el_exact_unitary],
                         ids=lambda f: f.__name__)
def test_exact_lengths_refuse_a_non_finite_entry_by_name(exact, bad, alg):
    """A NaN or infinite entry is named as such, not taken for a wrong
    shape or a non-unitary input, and never becomes a length."""
    g = ll.GroupElement(ll.MatrixOverAlgebra(alg, np.diag([bad, 1.0])), "GL",
                        validate=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^entries must be finite$"):
            exact(g)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(st.floats(-150.0, 150.0), st.booleans(),
       st.sampled_from(["C", "R", "functions"]))
def test_el_exact_positive_diagonal_is_judged_at_scale(exponent, flip, kind):
    """diag(d, 1/d) for d log-uniform in [1e-150, 1e150], d on either side
    of the diagonal, has length |log d|; the same element with an
    off-diagonal entry at 1e-6 of its scale, or with -d, is refused."""
    d = 10.0 ** exponent
    alg = {"C": ll.scalar_complex(), "R": ll.scalar_real(),
           "functions": ll.function_algebra(2, [(0, 1)])}[kind]
    unit = alg.unit_value()
    values = [d * unit, unit / d]
    if flip:
        values.reverse()

    def element(data):
        return ll.GroupElement(ll.MatrixOverAlgebra(alg, data),
                               validate=False)

    diag = ll.MatrixOverAlgebra.diagonal(alg, values).data
    assert ll.el_exact_positive_diagonal(element(diag)) == pytest.approx(
        abs(math.log(d)), rel=1e-12, abs=1e-15)
    scale = max(d, 1 / d)
    off = ll.MatrixOverAlgebra.single_entry(alg, 2, 0, 1, 1e-6 * scale * unit)
    with pytest.raises(ValueError, match="off-diagonal"):
        ll.el_exact_positive_diagonal(element(diag + off.data))
    with pytest.raises(ValueError, match="positive"):
        ll.el_exact_positive_diagonal(element(-diag))


@pytest.mark.parametrize("alg", [ll.scalar_real(), ll.scalar_complex()],
                         ids=["R", "C"])
def test_a_logm_overflow_is_a_refused_log(alg, logm_inputs):
    """On E12(m) = [[1, m], [0, 1]] at m >= 1e307 the search reaches scipy's
    log fallback, whose log [[0, m], [0, 0]] has an exponential that
    overflows.  That log is refused at its round trip: at 1e307 a
    four-factor path still certifies the upper bound m, and at 1e308 no
    factorization fits in the float range."""
    def unipotent(m):
        mat = ll.MatrixOverAlgebra(alg, np.array([[1.0, m], [0.0, 1.0]]))
        return ll.GroupElement(mat, validate=False)

    bracket = ll.el_estimate(unipotent(1e307), seed=0)
    assert logm_inputs
    assert bracket.upper == pytest.approx(1e307, rel=1e-12)
    assert bracket.lower == pytest.approx(math.log(1e307), rel=1e-12)
    with pytest.raises(ll.NoFactorizationError, match="floating-point range"):
        ll.el_estimate(unipotent(1e308), seed=0)


def test_el_lower_bound_fixtures():
    alg = ll.scalar_complex()
    ident = ll.GroupElement(ll.MatrixOverAlgebra.identity(alg, 2), "GL")
    assert ll.el_lower_bound(ident) == (0.0, "log-op-norm")

    for m in (1.0, 4.0):
        e = ll.MatrixOverAlgebra(alg, np.array([[1, m], [0, 1]], dtype=complex))
        g = ll.GroupElement(e, "GL")
        assert ll.el_lower_bound(g) == (pytest.approx(math.log(m + 1),
                                                      abs=1e-12),
                                        "log-op-norm")

    g = ll.GroupElement(
        ll.MatrixOverAlgebra(alg, np.diag([math.e ** 3 + 0j, math.e ** -3])),
        "GL")
    assert ll.el_lower_bound(g) == (pytest.approx(3.0, abs=1e-12),
                                    "log-op-norm")


NON_FINITE_ELEMENTS = {
    "nan-complex": (ll.scalar_complex(), [[math.nan, 0.0], [0.0, 1.0]]),
    "inf-real": (ll.scalar_real(), [[math.inf, 0.0], [0.0, 1.0]])}


@pytest.mark.parametrize("estimate", [
    ll.el_lower_bound, ll.el_estimate, ll.rel_estimate])
@pytest.mark.parametrize("alg, entries", NON_FINITE_ELEMENTS.values(),
                         ids=NON_FINITE_ELEMENTS)
def test_estimates_refuse_a_non_finite_element_before_any_log(
        monkeypatch, alg, entries, estimate):
    """An element built without validation is refused with the element's own
    message, not a log's error or a lower bound of 0."""
    g = ll.GroupElement(ll.MatrixOverAlgebra(alg, np.array(entries)), "GL",
                        validate=False)

    def refused(*args):
        raise AssertionError("a log was taken")

    monkeypatch.setattr(explength, "mat_log", refused)
    monkeypatch.setattr(explength, "stacked_logs", refused)
    monkeypatch.setattr(explength, "round_trips", refused)
    with pytest.raises(ValueError, match="^entries must be finite$"):
        estimate(g)


# -- the unitary lower bound and the early exit ------------------------------------

UNITARY_KINDS = ["C", "M2", "M3", "M4", "M5", "M6", "path", "edgeless"]


def u_tagged(kind, angle, rng):
    """A U-tagged 1x1 element over C, M_k or C(X) on six vertices, with
    |log u| = angle, except on C(X) where it is at most angle."""
    if kind == "C":
        alg = ll.scalar_complex()
        entry = np.exp(1j * rng.choice([-1, 1]) * angle)
    elif kind.startswith("M"):
        alg = ll.matrix_algebra(int(kind[1:]))
        entry = random_unitary(alg.k, rng, operator_norm=angle)
    else:
        edges = [(v, v + 1) for v in range(5)] if kind == "path" else ()
        alg = ll.function_algebra(6, edges)
        entry = np.exp(1j * rng.uniform(-angle, angle, size=6))
    mat = ll.MatrixOverAlgebra(alg, np.array(entry)[None, None])
    return ll.GroupElement(mat, "U", validate=False)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.sampled_from(UNITARY_KINDS), st.floats(0.0, math.pi),
       st.integers(0, 2**32 - 1))
def test_no_certificate_goes_below_the_unitary_lower_bound(kind, angle, seed):
    """Every certificate of the pool, and every factor list that
    ``_refine_factors`` makes from each of them, has a sum of norms at
    least ``el_lower_bound``, which takes |log u|."""
    g = u_tagged(kind, angle, np.random.default_rng(seed))
    lower, _ = ll.el_lower_bound(g)
    assert lower >= ll.el_exact_unitary(g)
    budget = ll.EstimateBudget(restarts=1, iterations=3, trials=3)
    for start in explength._initial_certificates(
            g, None, explength._principal_log(g)):
        cert = ll.FactorizationCertificate.from_factors(start, g)
        assert explength.in_order(lower, cert.sum_of_norms)
        rng = np.random.default_rng(seed)
        refined, value = explength._refine_factors(
            start, g, explength._sum_norms, budget, rng)
        assert value == explength._sum_norms(refined)
        assert explength.in_order(lower, value)


@pytest.fixture
def refine_calls(monkeypatch):
    """The calls into ``_refine_factors`` during a test."""
    calls = []
    refine = explength._refine_factors

    def counted(*args):
        calls.append(args)
        return refine(*args)

    monkeypatch.setattr(explength, "_refine_factors", counted)
    return calls


@pytest.mark.parametrize("kind", ["C", "M3", "path"])
def test_a_closed_unitary_bracket_makes_no_refine_call(kind, refine_calls):
    g = u_tagged(kind, 2.0, np.random.default_rng(5))
    bracket = ll.el_estimate(g, seed=1)
    assert bracket.lower_method == "unitary-log"
    assert bracket.lower == bracket.upper == ll.el_exact_unitary(g)
    assert refine_calls == []


@pytest.mark.parametrize("kind", ["C", "M3", "path"])
def test_the_pool_and_the_bound_share_one_principal_log(kind, monkeypatch):
    g = u_tagged(kind, 2.0, np.random.default_rng(5))
    monkeypatch.setattr(explength, "_last_element", None)
    calls = []
    monkeypatch.setattr(explength, "mat_log",
                        lambda h: calls.append(h) or ll.mat_log(h))
    bracket = ll.el_estimate(g, seed=1)
    assert len(calls) == 1
    assert bracket.lower_method == "unitary-log"
    assert bracket.lower == ll.el_exact_unitary(g)


def test_a_gl_element_still_makes_every_restart(refine_calls):
    g = acceptance.random_gl(3, np.random.default_rng(1))
    budget = ll.EstimateBudget()
    bracket = ll.el_estimate(g, budget=budget, seed=1)
    assert bracket.lower_method == "log-op-norm"
    assert len(refine_calls) == budget.restarts


UNITARY_LOG_OUT_OF_REACH = {
    # unitary_spectrum would read |log 2i| = pi/2, above log 2
    "not-unitary": (ll.scalar_complex(), [[2j]]),
    "n=2": (ll.scalar_complex(), np.diag(np.exp([1j, -0.5j]))),
    "real-minus-one": (ll.scalar_real(), [[-1.0]])}


@pytest.mark.parametrize("alg, entries", UNITARY_LOG_OUT_OF_REACH.values(),
                         ids=UNITARY_LOG_OUT_OF_REACH)
def test_out_of_the_theorems_reach_the_log_norm_bound_stays(alg, entries):
    g = ll.GroupElement(ll.MatrixOverAlgebra(alg, np.array(entries)), "U",
                        validate=False)
    log_norm = max(0.0, *(math.log(h.matrix.op_norm())
                          for h in (g, g.inverse())))
    assert ll.el_lower_bound(g) == (log_norm, "log-op-norm")


# -- the estimator ---------------------------------------------------------------

def test_estimate_single_factor_initialization():
    alg = ll.scalar_complex()
    rng = np.random.default_rng(0)
    x = ll.MatrixOverAlgebra.random(alg, 3, rng, scale=0.2)
    g = ll.mat_exp(x)
    bracket = ll.el_estimate(g, seed=0)
    assert bracket.upper <= x.op_norm() + 1e-9
    assert bracket.lower <= bracket.upper + 1e-9


def test_estimate_close_to_exact_on_unitaries():
    rng = np.random.default_rng(1)
    for idx in range(10):
        k = 2 + idx % 4
        g = unitary_group_element(random_unitary(k, rng))
        exact = ll.el_exact_unitary(g)
        bracket = ll.el_estimate(g, seed=idx)
        assert exact - 1e-9 <= bracket.upper <= 1.05 * exact + 1e-6


def test_estimate_bracket_regression_mixed_element():
    alg = ll.scalar_complex()
    d = ll.MatrixOverAlgebra(alg, np.diag([math.e + 0j, 1 / math.e]))
    e12 = ll.MatrixOverAlgebra(alg, np.array([[1, 1], [0, 1]], dtype=complex))
    g = ll.GroupElement(d, "GL") @ ll.GroupElement(e12, "GL")
    bracket = ll.el_estimate(g, seed=1)
    assert bracket.lower <= bracket.upper
    assert math.isfinite(bracket.upper)
    # frozen regression values (seed 1): lower = log |g|, upper from search
    assert bracket.lower == pytest.approx(1.693147, abs=1e-5)
    assert bracket.upper == pytest.approx(2.013253, abs=5e-3)


def test_estimate_deterministic_for_fixed_seed():
    alg = ll.scalar_complex()
    rng = np.random.default_rng(3)
    x = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.8)
    g = ll.mat_exp(x)
    a = ll.el_estimate(g, seed=11)
    b = ll.el_estimate(g, seed=11)
    assert a.upper == b.upper and a.lower == b.lower


def test_estimate_near_the_float_range_warns_nothing():
    """Entries of 1e160: every log along the search is taken and checked
    without a warning, and the bracket keeps its frozen values."""
    mat = ll.MatrixOverAlgebra(ll.matrix_algebra(2),
                               [[[[1e160, 1e160], [1e160, -1e160]]]])
    g = ll.GroupElement(mat, "GL")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        bracket = ll.el_estimate(g, seed=0)
    assert bracket.lower == pytest.approx(368.76018846932726, rel=1e-12)
    assert bracket.upper == pytest.approx(368.77357037121675, rel=1e-12)


def test_cli_samples_never_reach_the_logm_fallback(logm_inputs):
    """The draws behind `el bracket --group gl3 --seed 1` and `rel estimate
    --group gl2 --seed 3` take every log through the eigen-decomposition."""
    gl3 = acceptance.random_gl(3, np.random.default_rng(1))
    ll.el_estimate(gl3, seed=1)
    gl2 = acceptance.random_gl(2, np.random.default_rng(3))
    ll.rel_estimate(gl2, seed=3)
    assert logm_inputs == []


def test_a_nearly_singular_fallback_slice_is_refused_under_any_filter(
        monkeypatch):
    """el of [[1, 1e200], [0, 1]] over R reaches re-split trials whose
    Schur diagonal holds an entry below 1e-20: scipy warns on them, so the
    library refuses them before scipy's log.  The bracket, the certificate
    bytes and the verdict of every ``stacked_logs`` call are the same under
    the default and the error filters, and no warning is raised."""
    mat = ll.MatrixOverAlgebra(ll.scalar_real(),
                               np.array([[1.0, 1e200], [0.0, 1.0]]))
    g = ll.GroupElement(mat, validate=False)
    logs = explength.stacked_logs

    def run(action):
        verdicts = []

        def recorded(*args):
            out = logs(*args)
            verdicts.extend(None if v is None else (type(v), str(v))
                            for v in out[1])
            return out

        monkeypatch.setattr(explength, "stacked_logs", recorded)
        explength._last_element = None
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter(action)
            bracket = ll.el_estimate(g, seed=0)
        assert seen == []
        return (bracket.lower, bracket.upper,
                [x.data.tobytes() for x in bracket.certificate.factors],
                verdicts)

    default = run("default")
    assert default == run("error")
    assert default[:2] == pytest.approx((math.log(1e200), 1e200), rel=1e-12)
    assert (ll.NumericFailureError,
            "matrix logarithm did not converge") in default[3]


def test_a_budget_outside_its_range_is_refused():
    """A budget of no trials, or of negative restarts or iterations, is a
    ValueError that names the field; the least admitted values run."""
    for field, value in (("trials", 0), ("restarts", -1), ("iterations", -1),
                         ("trials", 1.5), ("trials", True)):
        with pytest.raises(ValueError, match=f"EstimateBudget.{field} "):
            ll.EstimateBudget(**{field: value})
    g = acceptance.random_gl(2, np.random.default_rng(3))
    least = ll.EstimateBudget(restarts=0, iterations=0, trials=1)
    assert ll.el_estimate(g, budget=least).upper == ll.el_estimate(
        g, budget=ll.EstimateBudget(optimize=False)).upper
    ll.el_estimate(g, budget=ll.EstimateBudget(restarts=1, iterations=1,
                                               trials=1))


def test_estimate_outside_identity_component_raises():
    alg = ll.scalar_real()
    g = ll.GroupElement(ll.MatrixOverAlgebra(alg, np.diag([-1.0, 1.0])), "GL")
    with pytest.raises(ll.NoFactorizationError):
        ll.el_estimate(g, seed=0)


@pytest.mark.parametrize("alg, diagonal, outside", [
    # the principal, rotated and polar logs all need a log of
    # diag(1e200, 1e-200), whose spread 1e400 leaves the float range, and
    # the straight path from the identity crosses 0
    pytest.param(ll.scalar_complex(), [-1e200, -1e-200], False, id="C-huge"),
    pytest.param(ll.scalar_real(), [-1e200, -1e-200], False, id="R-huge"),
    pytest.param(ll.scalar_real(), [-1.0, -1.0], False, id="R-minus-identity"),
    pytest.param(ll.scalar_real(), [-1.0, 1.0], True, id="R-det-negative"),
])
def test_no_factorization_message_is_truthful(alg, diagonal, outside):
    """Only det < 0 over the reals is outside the identity component; the
    other failures name the exhausted budget and floating-point range."""
    g = ll.GroupElement(ll.MatrixOverAlgebra(alg, np.diag(diagonal)), "GL")
    with pytest.raises(ll.NoFactorizationError) as caught:
        ll.el_estimate(g, seed=0)
    message = str(caught.value)
    assert ("identity component" in message) == outside
    assert ("budget" in message and "floating-point range" in message) \
        == (not outside)


@pytest.mark.parametrize("alg, s", [
    (ll.scalar_complex(), 1e200), (ll.scalar_real(), 1e307),
    (ll.scalar_complex(), 1e307)], ids=["C-1e200", "R-1e307", "C-1e307"])
def test_a_spread_past_the_float_range_gets_a_path_bracket(alg, s):
    """diag(s, 1/s) has no log (its spread s^2 leaves the float range), but
    each step of the two-step path from the identity has one, of norm
    log(s / 2): at most 706.2, whose exp is inside the float range.  The
    search starts from that path and may shorten it."""
    g = ll.GroupElement(ll.MatrixOverAlgebra(alg, np.diag([s, 1.0 / s])),
                        "GL")
    bracket = ll.el_estimate(g, seed=0)
    assert bracket.lower == math.log(s)
    assert len(bracket.certificate.factors) == 2
    assert bracket.upper <= 2 * math.log(s / 2) * (1 + 1e-12)
    bracket.certificate.check_invariants()


@pytest.mark.parametrize("alg", [ll.scalar_real(), ll.scalar_complex()],
                         ids=["R", "C"])
def test_a_unit_determinant_triangle_gets_its_one_factor(alg):
    """[[1e6, 1], [0, 1e-6]] has spread 1e12 and a well-conditioned
    eigenbasis: its principal log is one factor, near log 1e6."""
    g = ll.GroupElement(ll.MatrixOverAlgebra(
        alg, np.array([[1e6, 1.0], [0.0, 1e-6]])), "GL")
    bracket = ll.el_estimate(g, seed=0)
    assert len(bracket.certificate.factors) == 1
    assert bracket.upper - bracket.lower <= 1e-5 * bracket.upper
    bracket.certificate.check_invariants()


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(st.sampled_from([ll.scalar_real(), ll.scalar_complex()]),
       st.floats(0.0, 100.0))
def test_a_positive_diagonal_is_one_factor_at_every_scale(alg, exponent):
    """diag(s, 1/s), s = 10^exponent up to 1e100: the single log is the
    certificate, and the bracket closes to the order slack 1e-9 (1 +
    upper).  Near s = 1 the rounding of 1/s, about 1e-16, is all the gap,
    so a slack of 1e-9 upper alone would fail there."""
    s = 10.0 ** exponent
    g = ll.GroupElement(ll.MatrixOverAlgebra(alg, np.diag([s, 1.0 / s])),
                        "GL")
    bracket = ll.el_estimate(g, seed=0)
    assert len(bracket.certificate.factors) == 1
    assert explength.in_order(bracket.upper, bracket.lower)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(st.sampled_from([2, 3]), st.integers(0, 12), st.integers(0, 2**32 - 1))
def test_scaled_elements_get_certificates_their_check_accepts(n, k, seed):
    """GL2/GL3 elements scaled by 10^k: the search and ``check_invariants``
    apply one residual rule, so every returned certificate passes."""
    g = acceptance.random_gl(n, np.random.default_rng(seed))
    g = ll.GroupElement(g.matrix.scaled(10.0 ** k), "GL")
    quick = ll.EstimateBudget(optimize=False)
    ll.el_estimate(g, budget=quick, seed=seed).certificate.check_invariants()


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_bracket_properties(n, seed):
    """On random GL2/GL3 elements: the bracket is ordered, its certificate
    meets the search's residual gate and sums to the upper bound, and the
    reduced length stays below it."""
    g = acceptance.random_gl(n, np.random.default_rng(seed))
    quick = ll.EstimateBudget(optimize=False)
    bracket = ll.el_estimate(g, budget=quick, seed=seed)
    cert = bracket.certificate
    assert bracket.lower <= bracket.upper
    assert cert.residual <= quick.residual_tol * (1 + g.matrix.op_norm())
    total = sum(x.op_norm() for x in cert.factors)
    assert bracket.upper == pytest.approx(total, rel=0, abs=1e-12)
    assert ll.rel_estimate(g, budget=quick, seed=seed) <= bracket.upper + 1e-9


def test_rel_estimate_fixtures():
    alg = ll.scalar_complex()
    rng = np.random.default_rng(4)
    quick = ll.EstimateBudget(optimize=False)

    x = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.3)
    g = ll.mat_exp(x)
    assert ll.rel_estimate(g, budget=quick, seed=0) <= x.op_norm() + 1e-9

    y = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.3)
    word = ll.mat_exp(x) @ ll.mat_exp(y) @ ll.mat_exp(-x) @ ll.mat_exp(-y)
    rel = ll.rel_estimate(word, budget=quick, seed=0,
                          initial_factors=[x, y, -x, -y])
    assert rel <= 1e-6

    g2 = ll.mat_exp(x) @ ll.mat_exp(y)
    rel2 = ll.rel_estimate(g2, budget=quick, seed=0, initial_factors=[x, y])
    assert rel2 <= (x + y).op_norm() + 1e-9


def test_rel_below_el_on_shared_pools():
    alg = ll.scalar_complex()
    rng = np.random.default_rng(5)
    for idx in range(10):
        x = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.6)
        g = ll.mat_exp(x)
        upper = ll.el_estimate(g, seed=idx).upper
        rel = ll.rel_estimate(g, seed=idx)
        assert rel <= upper + 1e-9


def test_refine_exponentiates_each_factor_once(monkeypatch):
    """The sweep keeps exp of every factor in its list: each factor object,
    the starting ones and those that an accepted move brings in, is
    exponentiated at most once."""
    g = acceptance.random_gl(2, np.random.default_rng(4))
    x = ll.mat_log(g)
    seen = []

    def recorded(y):
        seen.append(y)
        return ll.mat_exp(y)

    monkeypatch.setattr(explength, "mat_exp", recorded)
    budget = ll.EstimateBudget(restarts=1, iterations=5, trials=3)
    refined, value = explength._refine_factors(
        [x.scaled(0.5), x.scaled(0.5)], g, explength._sum_norms, budget,
        np.random.default_rng(0))
    assert len({id(y) for y in seen}) == len(seen)
    assert value < x.op_norm()
    assert explength.FactorizationCertificate.from_factors(
        refined, g).residual < 1e-10


def test_optimized_rel_builds_one_pool(monkeypatch):
    calls = []
    initial = explength._initial_certificates

    def recorded(*args):
        calls.append(args)
        return initial(*args)

    monkeypatch.setattr(explength, "_initial_certificates", recorded)
    g = acceptance.random_gl(2, np.random.default_rng(3))
    budget = ll.EstimateBudget(restarts=1, iterations=1, trials=1)
    ll.rel_estimate(g, budget=budget, seed=0)
    assert len(calls) == 1


# -- one pool and one el search per element ---------------------------------------

QUICK = ll.EstimateBudget(optimize=False)
SMALL = ll.EstimateBudget(restarts=1, iterations=2, trials=2)
BUDGETS = pytest.mark.parametrize("budget", [QUICK, SMALL],
                                  ids=["quick", "optimized"])
ESTIMATES = {"el": ll.el_estimate, "rel": ll.rel_estimate}


def _shared_work_elements():
    path = ll.function_algebra(25, [(v, v + 1) for v in range(24)])
    field = ll.MatrixOverAlgebra.random(path, 2, np.random.default_rng(8),
                                        scale=0.4)
    real = ll.MatrixOverAlgebra(ll.scalar_real(), [[1.3, 0.4], [-0.2, 0.8]])
    return {"gl2": acceptance.random_gl(2, np.random.default_rng(3)),
            "gl3": acceptance.random_gl(3, np.random.default_rng(1)),
            "u3": acceptance.random_unitary(3, np.random.default_rng(7)),
            "real-gl2": ll.GroupElement(real, "GL"),
            "field": ll.mat_exp(field)}


ELEMENTS = _shared_work_elements()


def _values(result):
    """A rel value, or a bracket's values and its certificate's bytes."""
    if isinstance(result, float):
        return result
    cert = result.certificate
    return (result.lower, result.upper, cert.residual, cert.sum_of_norms,
            cert.norm_of_sum, b"".join(x.data.tobytes() for x in cert.factors))


def _cold(kind, g, budget):
    explength._last_element = None
    return _values(ESTIMATES[kind](g, budget=budget, seed=1))


@pytest.fixture
def work_calls(monkeypatch):
    """Calls into ``_initial_certificates`` and ``_search`` during a test."""
    calls = {"initial": 0, "search": 0}
    for key, name in (("initial", "_initial_certificates"),
                      ("search", "_search")):
        def counted(*args, _fn=getattr(explength, name), _key=key):
            calls[_key] += 1
            return _fn(*args)

        monkeypatch.setattr(explength, name, counted)
    return calls


@BUDGETS
@pytest.mark.parametrize("name", list(ELEMENTS))
def test_shared_work_returns_what_a_cold_call_returns(name, budget):
    g = ELEMENTS[name]
    cold = {kind: _cold(kind, g, budget) for kind in ESTIMATES}
    for order in (("el", "rel", "el"), ("rel", "el")):
        explength._last_element = None
        got = [_values(ESTIMATES[kind](g, budget=budget, seed=1))
               for kind in order]
        assert got == [cold[kind] for kind in order]


@BUDGETS
def test_a_second_element_replaces_the_first(budget):
    calls = [("gl2", "el"), ("field", "el"), ("gl2", "el"), ("field", "rel"),
             ("gl2", "rel"), ("gl2", "el")]
    cold = {call: _cold(call[1], ELEMENTS[call[0]], budget) for call in calls}
    explength._last_element = None
    for name, kind in calls:
        got = _values(ESTIMATES[kind](ELEMENTS[name], budget=budget, seed=1))
        assert got == cold[name, kind]


@pytest.mark.parametrize("name", list(ELEMENTS))
def test_a_hit_builds_no_pool_and_runs_no_el_search(name, work_calls):
    g = ELEMENTS[name]
    steps = [
        # cold: one pool, then the rel search and the el search
        (ll.rel_estimate, SMALL, 1, {"initial": 1, "search": 2}),
        (ll.el_estimate, SMALL, 1, {"initial": 1, "search": 2}),
        # only the rel objective is searched again
        (ll.rel_estimate, SMALL, 1, {"initial": 1, "search": 3}),
        # another budget or seed is another el search on the same pool
        (ll.el_estimate, QUICK, 1, {"initial": 1, "search": 4}),
        (ll.el_estimate, SMALL, 2, {"initial": 1, "search": 5}),
        (ll.rel_estimate, QUICK, 1, {"initial": 1, "search": 6}),
    ]
    for estimate, budget, seed, expected in steps:
        estimate(g, budget=budget, seed=seed)
        assert work_calls == expected
    # caller-supplied factors keep their own pool and their own el search
    ll.rel_estimate(g, budget=SMALL, seed=1, initial_factors=[ll.mat_log(g)])
    assert work_calls == {"initial": 2, "search": 8}


@pytest.mark.parametrize("name", list(ELEMENTS))
def test_el_then_rel_certify_each_pool_entry_once(name, monkeypatch):
    """Quick el then quick rel of one element certify only pool entries,
    and share each entry's certificate."""
    certified = []
    from_factors = explength.FactorizationCertificate.from_factors

    def counted(cls, factors, target):
        certified.append(b"".join(x.data.tobytes() for x in factors))
        return from_factors(factors, target)

    monkeypatch.setattr(explength.FactorizationCertificate, "from_factors",
                        classmethod(counted))
    explength._last_element = None
    ll.el_estimate(ELEMENTS[name], budget=QUICK, seed=1)
    ll.rel_estimate(ELEMENTS[name], budget=QUICK, seed=1)
    assert certified
    assert len(certified) == len(set(certified))


def test_equal_bytes_under_another_algebra_or_tag_are_a_miss():
    """Two restarts refine the two-factor start, whose re-split directions
    are skew-adjoint under a U tag."""
    budget = ll.EstimateBudget(restarts=2, iterations=2, trials=2)
    gl2 = ELEMENTS["gl2"]
    entries = np.array([[1.5, 0.2], [0.1j, 1.2]])
    pairs = [(gl2, ll.GroupElement(gl2.matrix, "U", validate=False)),
             (ll.GroupElement(ll.MatrixOverAlgebra(
                 ll.matrix_algebra(2), entries[None, None]), "GL"),
              ll.GroupElement(ll.MatrixOverAlgebra(
                  ll.function_algebra(4), entries.reshape(1, 1, 4)), "GL"))]
    for first, second in pairs:
        cold = _cold("el", second, budget)
        assert _cold("el", first, budget) != cold
        assert _values(ll.el_estimate(second, budget=budget, seed=1)) == cold


def test_writing_through_the_callers_array_is_a_miss(work_calls):
    alg = ll.scalar_complex()
    data = np.array([[1.2, 0.3j], [0.1, 0.9]])
    g = ll.GroupElement(ll.MatrixOverAlgebra(alg, data), "GL")
    before = _values(ll.el_estimate(g, budget=SMALL, seed=1))
    data[0, 1] = 0.5
    got = _values(ll.el_estimate(g, budget=SMALL, seed=1))
    assert work_calls["initial"] == 2
    assert got != before
    fresh = ll.GroupElement(ll.MatrixOverAlgebra(alg, data.copy()), "GL")
    assert got == _cold("el", fresh, SMALL)


def test_a_hit_hands_out_new_objects_certifying_the_callers_element():
    """What a caller does to its bracket, its certificate or its array after
    a call does not reach the next caller."""
    data = np.array([[1.2, 0.3j], [0.1, 0.9]])
    first = ll.GroupElement(ll.MatrixOverAlgebra(ll.scalar_complex(), data))
    second = ll.GroupElement(ll.MatrixOverAlgebra(ll.scalar_complex(),
                                                  data.copy()))
    cold = _cold("el", second, SMALL)
    explength._last_element = None
    bracket = ll.el_estimate(first, budget=SMALL, seed=1)
    bracket.upper += 1.0
    bracket.certificate.factors.clear()
    data[0, 1] = 0.5
    hit = ll.el_estimate(second, budget=SMALL, seed=1)
    assert _values(hit) == cold
    assert hit.certificate.target is second


def test_outside_the_identity_component_raises_on_every_call(work_calls):
    alg = ll.scalar_real()
    g = ll.GroupElement(ll.MatrixOverAlgebra(alg, np.diag([-1.0, 2.0])), "GL")
    for estimate in (ll.el_estimate, ll.rel_estimate, ll.el_estimate):
        with pytest.raises(ll.NoFactorizationError, match="det < 0"):
            estimate(g, budget=SMALL, seed=1)
    assert work_calls == {"initial": 3, "search": 0}


def test_two_threads_on_two_elements_get_the_serial_results():
    """Two workers alternate el and rel, each on its own element, 20 calls
    in all; the kept element changes hands between them."""
    elements = [ELEMENTS["gl2"], ELEMENTS["real-gl2"]]

    def alternate(g):
        return [_values(ESTIMATES[kind](g, budget=SMALL, seed=1))
                for kind in ("el", "rel") * 5]

    serial = [alternate(g) for g in elements]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as workers:
            futures = [workers.submit(alternate, g) for g in elements]
            threaded = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


# -- certificates -----------------------------------------------------------------

def test_certificate_concat_subadditive():
    """The factors of g followed by those of h certify gh, so
    el(gh) <= el(g) + el(h)."""
    alg = ll.scalar_complex()
    rng = np.random.default_rng(7)
    x = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.5)
    y = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.5)
    g, h = ll.mat_exp(x), ll.mat_exp(y)
    cg = ll.FactorizationCertificate.from_factors([x], g)
    ch = ll.FactorizationCertificate.from_factors([y], h)
    both = ll.FactorizationCertificate.from_factors(cg.factors + ch.factors,
                                                    g @ h)
    both.check_invariants()
    assert both.sum_of_norms <= cg.sum_of_norms + ch.sum_of_norms + 1e-12


def test_certificate_lower_bound_soundness():
    alg = ll.scalar_complex()
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = ll.MatrixOverAlgebra.random(alg, 3, rng, scale=0.7)
        g = ll.mat_exp(x)
        cert = ll.FactorizationCertificate.from_factors([x], g)
        target_norm = g.matrix.op_norm()
        assert cert.sum_of_norms >= math.log(target_norm) - 1e-6


def test_certificate_json_round_trip():
    alg = ll.scalar_complex()
    rng = np.random.default_rng(9)
    x = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.5)
    g = ll.mat_exp(x)
    cert = ll.FactorizationCertificate.from_factors([x], g)
    doc = cert.to_json()
    assert set(doc) == {"factors", "residual", "sum_of_norms", "norm_of_sum"}
    back = ll.FactorizationCertificate.from_json(doc, g)
    assert back.sum_of_norms == pytest.approx(cert.sum_of_norms, abs=1e-12)


@pytest.mark.parametrize("doc, message", [
    ({}, "a certificate lacks the key 'factors'"),
    ({"factors": 5}, "a certificate's factors must be a JSON list, not 5"),
])
def test_certificate_json_of_the_wrong_shape_is_refused(doc, message):
    g = ll.GroupElement.identity(ll.scalar_complex(), 2)
    with pytest.raises(ValueError, match=message):
        ll.FactorizationCertificate.from_json(doc, g)


# -- Trotter scaling ----------------------------------------------------------------

def test_trotter_commuting_exact():
    alg = ll.scalar_complex()
    x = ll.MatrixOverAlgebra(alg, np.diag([0.3 + 0j, -0.2 + 0j]))
    y = ll.MatrixOverAlgebra(alg, np.diag([-0.1 + 0j, 0.5 + 0j]))
    prod_err, comm_err = ll.trotter_check(x, y, 1)
    assert prod_err <= 1e-9 and comm_err <= 1e-9


def test_trotter_equal_arguments_commutator_vanishes():
    alg = ll.scalar_complex()
    rng = np.random.default_rng(10)
    x = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.5)
    _, comm_err = ll.trotter_check(x, x, 4)
    assert comm_err <= 1e-9


def test_trotter_first_order_ratio():
    alg = ll.scalar_complex()
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.4)
        y = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.4)
        if ((x @ y) - (y @ x)).op_norm() < 0.05:
            continue
        e64, c64 = ll.trotter_check(x, y, 64)
        e128, c128 = ll.trotter_check(x, y, 128)
        assert 1.5 <= e64 / e128 <= 3.0
        assert 1.5 <= c64 / c128 <= 3.0


# -- minimality: el(exp X) against |X| near the identity -----------------------

def quick_el(x):
    """The upper end of el(exp X) from the search without optimization."""
    return ll.el_estimate(ll.mat_exp(x),
                          budget=ll.EstimateBudget(optimize=False)).upper


def test_minimality_unitary_ball():
    """On a small ball of skew-adjoint X in M_2, el(exp X) = |X|."""
    rng = np.random.default_rng(12)
    alg = ll.matrix_algebra(2)
    for _ in range(20):
        a = schatten.random_selfadjoint(2, rng, rng.uniform(0.01, 0.1))
        x = ll.MatrixOverAlgebra(alg, (1j * a)[None, None])
        upper, norm = quick_el(x), x.op_norm()
        assert explength.in_order(upper, norm)
        assert norm <= (1.0 + 1e-6) * upper


def test_minimality_scalar_real_is_one():
    alg = ll.scalar_real()
    for t in (0.05, -0.3, 0.7):
        x = ll.MatrixOverAlgebra(alg, np.array([[t]]))
        assert quick_el(x) == pytest.approx(abs(t), abs=1e-9)


def test_minimality_gl2_regression():
    """On small GL2 samples the ratio |X| / el(exp X) is finite and reaches
    1: the principal log is a one-factor certificate."""
    alg = ll.scalar_complex()
    rng = np.random.default_rng(13)
    ratios = []
    for _ in range(15):
        x = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.25)
        if x.op_norm() > 0.5:
            x = x.scaled(0.5 / x.op_norm())
        ratios.append(x.op_norm() / quick_el(x))
    assert math.isfinite(max(ratios)) and max(ratios) >= 1.0 - 1e-9


# -- a spectrum on the cut -----------------------------------------------------

def test_estimate_rotated_branch_on_cut_spectrum():
    # negative real spectrum: the principal branch fails, but rotating the
    # cut into the spectral gap yields a one-factor certificate
    alg = ll.scalar_complex()
    g = ll.GroupElement(
        ll.MatrixOverAlgebra(alg, np.diag([-2.0 + 0j, -0.5 + 0j])), "GL")
    bracket = ll.el_estimate(g, budget=ll.EstimateBudget(optimize=False),
                             seed=0)
    assert len(bracket.certificate.factors) == 1
    assert bracket.upper == pytest.approx(
        math.sqrt(math.log(2) ** 2 + math.pi ** 2), abs=1e-9)
    assert bracket.certificate.residual <= 1e-12
