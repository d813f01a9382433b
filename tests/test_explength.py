"""Length brackets: closed forms, the estimator, Trotter defects, and the
pseudo-length certificate algebra."""

import math

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


def test_el_lower_bound_fixtures():
    alg = ll.scalar_complex()
    ident = ll.GroupElement(ll.MatrixOverAlgebra.identity(alg, 2), "GL")
    assert ll.el_lower_bound(ident) == 0.0

    for m in (1.0, 4.0):
        e = ll.MatrixOverAlgebra(alg, np.array([[1, m], [0, 1]], dtype=complex))
        g = ll.GroupElement(e, "GL")
        assert ll.el_lower_bound(g) == pytest.approx(math.log(m + 1),
                                                     abs=1e-12)

    g = ll.GroupElement(
        ll.MatrixOverAlgebra(alg, np.diag([math.e ** 3 + 0j, math.e ** -3])),
        "GL")
    assert ll.el_lower_bound(g) == pytest.approx(3.0, abs=1e-12)


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


def test_estimate_outside_identity_component_raises():
    alg = ll.scalar_real()
    g = ll.GroupElement(ll.MatrixOverAlgebra(alg, np.diag([-1.0, 1.0])), "GL")
    with pytest.raises(ll.NoFactorizationError):
        ll.el_estimate(g, seed=0)


@pytest.mark.parametrize("alg, diagonal, outside", [
    # the search overflows on its way through the path steps
    pytest.param(ll.scalar_complex(), [1e200, 1e-200], False, id="C-huge"),
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


# -- certificates -----------------------------------------------------------------

def test_certificate_inverse_preserves_sum():
    alg = ll.scalar_complex()
    rng = np.random.default_rng(6)
    x = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.5)
    y = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.5)
    g = ll.mat_exp(x) @ ll.mat_exp(y)
    cert = ll.FactorizationCertificate.from_factors([x, y], g)
    cert.check_invariants()
    inv = cert.inverse()
    inv.check_invariants()
    assert inv.sum_of_norms == pytest.approx(cert.sum_of_norms, abs=1e-12)
    assert inv.residual <= 1e-9


def test_certificate_concat_subadditive():
    alg = ll.scalar_complex()
    rng = np.random.default_rng(7)
    x = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.5)
    y = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.5)
    g, h = ll.mat_exp(x), ll.mat_exp(y)
    cg = ll.FactorizationCertificate.from_factors([x], g)
    ch = ll.FactorizationCertificate.from_factors([y], h)
    both = cg.concat(ch)
    both.check_invariants()
    assert both.sum_of_norms <= cg.sum_of_norms + ch.sum_of_norms + 1e-12
    assert (both.target.matrix - (g @ h).matrix).op_norm() <= 1e-12


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


# -- minimality -----------------------------------------------------------------------

def test_minimality_unitary_ball():
    rng = np.random.default_rng(12)
    samples = []
    alg = ll.matrix_algebra(2)
    for _ in range(20):
        a = schatten.random_selfadjoint(2, rng, rng.uniform(0.01, 0.1))
        samples.append(ll.MatrixOverAlgebra(alg, (1j * a)[None, None]))
    report = ll.minimality_check(samples)
    assert report.constant <= 1.0 + 1e-6
    assert report.lower_holds


def test_minimality_scalar_real_is_one():
    alg = ll.scalar_real()
    samples = [ll.MatrixOverAlgebra(alg, np.array([[t]]))
               for t in (0.05, -0.3, 0.7)]
    report = ll.minimality_check(samples)
    assert report.constant == pytest.approx(1.0, abs=1e-9)


def test_minimality_gl2_regression():
    alg = ll.scalar_complex()
    rng = np.random.default_rng(13)
    samples = []
    for _ in range(15):
        x = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.25)
        if x.op_norm() > 0.5:
            x = x.scaled(0.5 / x.op_norm())
        samples.append(x)
    report = ll.minimality_check(samples)
    assert math.isfinite(report.constant)
    assert report.constant >= 1.0 - 1e-9
    assert 0 <= report.witness_index < len(samples)


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
