"""Banach algebra kinds, the two matrix norms, and the exp/log calculus."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import lielength as ll
from lielength import acceptance, algebra

RNG = np.random.default_rng(42)

ALGEBRAS = (
    ll.scalar_complex(),
    ll.scalar_real(),
    ll.matrix_algebra(2),
    ll.function_algebra(5, [(0, 1), (1, 2), (3, 4)]),
)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.kind)
def test_unit_has_norm_one(alg):
    assert alg.norm(alg.unit_value()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.kind)
def test_algebra_norm_submultiplicative(alg):
    rng = np.random.default_rng(1)
    for _ in range(250):
        a = alg.random_value(rng)
        b = alg.random_value(rng)
        lhs = alg.norm(alg.mul(a, b))
        rhs = alg.norm(a) * alg.norm(b)
        assert lhs <= rhs * (1 + 1e-9)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.kind)
def test_operator_norm_submultiplicative_and_equivalent(alg):
    rng = np.random.default_rng(2)
    n = 3
    for _ in range(250):
        x = ll.MatrixOverAlgebra.random(alg, n, rng)
        y = ll.MatrixOverAlgebra.random(alg, n, rng)
        assert (x @ y).op_norm() <= x.op_norm() * y.op_norm() * (1 + 1e-9)
        # entry-max and operator norms bracket each other with c=1, C=n
        assert x.entry_max_norm() <= x.op_norm() * (1 + 1e-12)
        assert x.op_norm() <= n * x.entry_max_norm() * (1 + 1e-12)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.sampled_from(ALGEBRAS), st.integers(1, 4), st.floats(1e-3, 1e3),
       st.integers(0, 2**32 - 1))
def test_op_norm_submultiplicative_property(alg, n, scale, seed):
    rng = np.random.default_rng(seed)
    x = ll.MatrixOverAlgebra.random(alg, n, rng, scale=scale)
    y = ll.MatrixOverAlgebra.random(alg, n, rng)
    assert (x @ y).op_norm() <= x.op_norm() * y.op_norm() * (1 + 1e-12)


def test_op_norm_identity():
    x = ll.MatrixOverAlgebra.identity(ll.scalar_complex(), 2)
    assert x.op_norm() == 1.0


def _l1_sphere_sup(mat, steps_t=41, steps_phase=24):
    """Brute-force sup of |X xi|_1 over a grid on the unit l1 sphere of C^2."""
    best = 0.0
    for t in np.linspace(0.0, 1.0, steps_t):
        for p1 in np.linspace(0, 2 * math.pi, steps_phase, endpoint=False):
            for p2 in np.linspace(0, 2 * math.pi, steps_phase, endpoint=False):
                xi = np.array([t * np.exp(1j * p1), (1 - t) * np.exp(1j * p2)])
                best = max(best, float(np.sum(np.abs(mat @ xi))))
    return best


@pytest.mark.parametrize("m", [1.0, 2.5, 7.0])
def test_op_norm_unipotent_column_sum(m):
    # oracle first: the sup over the sampled unit sphere approaches m + 1
    mat = np.array([[1.0, m], [0.0, 1.0]], dtype=complex)
    oracle = _l1_sphere_sup(mat)
    x = ll.MatrixOverAlgebra(ll.scalar_complex(), mat)
    assert x.op_norm() == pytest.approx(m + 1.0, abs=1e-12)
    assert oracle <= x.op_norm() + 1e-9
    assert oracle >= x.op_norm() - 0.1  # grid resolution slack


def test_op_norm_single_entry():
    alg = ll.matrix_algebra(2)
    payload = 3.0 * np.eye(2)
    x = ll.MatrixOverAlgebra.single_entry(alg, 2, 0, 1, payload)
    assert x.op_norm() == pytest.approx(3.0, abs=1e-12)
    d = ll.MatrixOverAlgebra.diagonal(alg, [payload, -2.0 * np.eye(2)])
    assert d.op_norm() == pytest.approx(3.0, abs=1e-12)
    assert np.array_equal(d.data[1, 1], -2.0 * np.eye(2)) and not d.data[0, 1].any()


def test_mat_exp_zero_and_diagonal():
    alg = ll.scalar_complex()
    zero = ll.MatrixOverAlgebra.zeros(alg, 2)
    g = ll.mat_exp(zero)
    ident = ll.MatrixOverAlgebra.identity(alg, 2)
    assert (g.matrix - ident).op_norm() <= 1e-15

    x = ll.MatrixOverAlgebra(alg, np.diag([1j * math.pi, -1j * math.pi]))
    g = ll.mat_exp(x)
    expected = ll.MatrixOverAlgebra(alg, np.diag([-1.0 + 0j, -1.0 + 0j]))
    assert (g.matrix - expected).op_norm() <= 1e-12


def test_mat_exp_nilpotent_matches_direct_product():
    alg = ll.scalar_complex()
    a = 2.0 - 1.0j
    e12 = ll.MatrixOverAlgebra.single_entry(alg, 2, 0, 1, a)
    g = ll.mat_exp(e12)
    expected = ll.MatrixOverAlgebra(alg, np.array([[1, a], [0, 1]]))
    assert (g.matrix - expected).op_norm() <= 1e-12
    # direct multiplication check: E(a) E(b) = E(a + b)
    h = ll.mat_exp(e12.scaled(0.5))
    assert ((h @ h).matrix - g.matrix).op_norm() <= 1e-12


def test_mat_log_identity_and_positive_diagonal():
    alg = ll.scalar_complex()
    ident = ll.GroupElement(ll.MatrixOverAlgebra.identity(alg, 2), "GL")
    assert ll.mat_log(ident).op_norm() <= 1e-14

    g = ll.GroupElement(
        ll.MatrixOverAlgebra(alg, np.diag([math.e + 0j, 1 / math.e])), "GL")
    log = ll.mat_log(g)
    expected = ll.MatrixOverAlgebra(alg, np.diag([1.0 + 0j, -1.0 + 0j]))
    assert (log - expected).op_norm() <= 1e-12


@pytest.mark.parametrize("diagonal", [
    [1e5, 1e-5], [1e100, 1e-100], [1e154, 1e-154], [1e308, 1.0]],
    ids=["1e5", "1e100", "1e154", "1e308-1"])
@pytest.mark.parametrize("alg", [ll.scalar_real(), ll.scalar_complex()],
                         ids=["R", "C"])
def test_mat_log_takes_any_spread_inside_the_float_range(alg, diagonal):
    """0 is in the spectrum only where |lambda| / max(1, |lambda|_max)
    leaves the float range: every spread up to 1e308 has its log, and the
    round trip's exp is bounded by e^{|X|} up to |X| = 709.2."""
    g = ll.GroupElement(ll.MatrixOverAlgebra(alg, np.diag(diagonal)), "GL")
    log = np.diagonal(ll.mat_log(g).data)
    assert np.allclose(log, np.log(diagonal), rtol=1e-14, atol=0)


def test_mat_log_refuses_a_spread_past_the_float_range():
    g = ll.GroupElement(ll.MatrixOverAlgebra(
        ll.scalar_real(), np.diag([1e200, 1e-200])), "GL")
    with pytest.raises(ll.SpectrumOnCutError, match="singular input"):
        ll.mat_log(g)


NON_FINITE_ELEMENTS = {
    "nan-complex": (ll.scalar_complex(), [[math.nan, 0.0], [0.0, 1.0]]),
    "inf-real": (ll.scalar_real(), [[math.inf, 0.0], [0.0, 1.0]])}


@pytest.mark.parametrize("alg, entries", NON_FINITE_ELEMENTS.values(),
                         ids=NON_FINITE_ELEMENTS)
def test_mat_log_refuses_a_non_finite_element_by_name(alg, entries):
    g = ll.GroupElement(ll.MatrixOverAlgebra(alg, np.array(entries)), "GL",
                        validate=False)
    with pytest.raises(ll.NumericFailureError, match="^non-finite input$"):
        ll.mat_log(g)


@pytest.mark.parametrize("alg, entries", NON_FINITE_ELEMENTS.values(),
                         ids=NON_FINITE_ELEMENTS)
def test_mat_logs_refuses_a_non_finite_element_as_mat_log_does(alg, entries):
    """The refusal is the one of ``mat_log``, and the finite element beside
    it keeps its log, round trip and verdict."""
    bad = ll.GroupElement(ll.MatrixOverAlgebra(alg, np.array(entries)), "GL",
                          validate=False)
    good = ll.MatrixOverAlgebra(alg, np.diag([2.0, 3.0]))
    logs, verdicts, targets = algebra.stacked_logs(
        alg, 2, np.stack([bad.matrix.to_flat(), good.to_flat()]), False)
    _, trips = algebra.round_trips(alg, 2, logs, targets)
    with pytest.raises(ll.NumericFailureError) as raised:
        ll.mat_log(bad)
    assert type(verdicts[0]) is type(raised.value)
    assert str(verdicts[0]) == str(raised.value)
    assert verdicts[1] is None and trips[1] is None
    expected = ll.mat_log(ll.GroupElement(good, "GL")).to_flat()
    assert np.array_equal(logs[1], expected)


@pytest.mark.parametrize("tag", ["GL", "U"])
def test_mat_log_refuses_a_real_element_with_no_real_log(tag):
    g = ll.GroupElement(ll.MatrixOverAlgebra(ll.scalar_real(), -np.eye(2)),
                        tag)
    with pytest.raises(ll.SpectrumOnCutError, match="^no real logarithm: "):
        ll.mat_log(g)


def test_mat_logs_refuses_only_the_real_element_with_no_real_log():
    """On a real stack, -I has no real log and a quarter turn has one: the
    verdict on -I is the error of ``mat_log``, and the rotation keeps the
    bytes of its log alone."""
    alg = ll.scalar_real()
    quarter = ll.MatrixOverAlgebra(alg, np.array([[0.0, -1.0], [1.0, 0.0]]))
    minus = ll.MatrixOverAlgebra(alg, -np.eye(2))
    logs, verdicts, targets = algebra.stacked_logs(
        alg, 2, np.stack([minus.to_flat(), quarter.to_flat()]), False)
    _, trips = algebra.round_trips(alg, 2, logs, targets)
    with pytest.raises(ll.SpectrumOnCutError) as raised:
        ll.mat_log(ll.GroupElement(minus, "GL"))
    assert type(verdicts[0]) is type(raised.value)
    assert str(verdicts[0]) == str(raised.value)
    assert verdicts[1] is None and trips[1] is None
    alone = ll.mat_log(ll.GroupElement(quarter, "GL")).to_flat()
    assert logs[1].tobytes() == alone.tobytes()


def test_mat_log_branch_at_minus_one():
    alg = ll.scalar_complex()
    u = ll.GroupElement(ll.MatrixOverAlgebra(alg, np.array([[-1.0 + 0j]])), "U")
    log = ll.mat_log(u)
    assert log.data[0, 0] == pytest.approx(1j * math.pi, abs=1e-12)


def test_mat_log_rejects_spectrum_on_cut():
    alg = ll.scalar_complex()
    g = ll.GroupElement(
        ll.MatrixOverAlgebra(alg, np.diag([-2.0 + 0j, 1.0 + 0j])), "GL")
    with pytest.raises(ll.SpectrumOnCutError):
        ll.mat_log(g)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.kind)
def test_exp_log_round_trip(alg):
    rng = np.random.default_rng(3)
    for _ in range(125):
        x = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.4)
        if x.op_norm() > 2.0:
            x = x.scaled(2.0 / x.op_norm())
        g = ll.mat_exp(x)
        assert g.matrix.op_norm() <= math.exp(x.op_norm()) * (1 + 1e-9)
        back = ll.mat_log(g)
        assert (back - x).op_norm() <= 1e-7


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(st.sampled_from(ALGEBRAS), st.integers(1, 3), st.floats(0.05, 1.0),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_mat_log_matches_per_slice_logm(alg, n, scale, unitary, seed):
    """The batched log agrees with scipy's logm slice by slice, on the eig
    path and on the unitary branch, wherever the spectrum is off the cut
    (|X| < pi keeps every eigenvalue of exp(X) off it)."""
    rng = np.random.default_rng(seed)
    x = ll.MatrixOverAlgebra.random(alg, n, rng, scale=scale)
    if unitary:
        x = (x - x.adjoint()).scaled(0.5)
    if x.op_norm() > 3.0:
        x = x.scaled(3.0 / x.op_norm())
    g = ll.GroupElement(ll.mat_exp(x).matrix, "GL")
    flat = g.matrix.to_flat()
    log = ll.mat_log(g).to_flat()
    stack = flat.reshape((-1,) + flat.shape[-2:])
    expected = np.stack([scipy.linalg.logm(m) for m in stack])
    expected = expected.reshape(flat.shape)
    assert (np.max(np.abs(log - expected))
            <= 1e-12 * (1.0 + np.max(np.abs(expected))))


def test_defective_slice_takes_the_logm_fallback(logm_inputs):
    """A Jordan block has no eigenbasis: only its vertex goes to logm, the
    others take the eig path."""
    alg = ll.function_algebra(3, [(0, 1), (1, 2)])
    rng = np.random.default_rng(11)
    good = ll.mat_exp(ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.3))
    data = np.array(good.matrix.data)
    data[:, :, 1] = [[1.0, 1.0], [0.0, 1.0]]
    g = ll.GroupElement(ll.MatrixOverAlgebra(alg, data), "GL")
    log = ll.mat_log(g)
    assert len(logm_inputs) == 1
    assert np.array_equal(logm_inputs[0], [[1.0, 1.0], [0.0, 1.0]])
    assert np.max(np.abs(log.data[:, :, 1] - [[0.0, 1.0], [0.0, 0.0]])) <= 1e-12
    for v in (0, 2):
        expected = scipy.linalg.logm(data[:, :, v])
        assert np.max(np.abs(log.data[:, :, v] - expected)) <= 1e-12


def _eig_logs_by_svd(stack, w, v):
    """``algebra._eig_logs`` with the condition number of every slice
    taken by SVD: the rule the Frobenius bound must reproduce."""
    logs = np.empty(stack.shape, dtype=np.complex128)
    by_eig = np.linalg.cond(v) < algebra.EIG_LOG_MAX_COND
    v_eig = v[by_eig]
    logs[by_eig] = ((v_eig * np.log(w[by_eig])[:, None, :])
                    @ np.linalg.inv(v_eig))
    for i in np.flatnonzero(~by_eig):
        logs[i] = scipy.linalg.logm(stack[i])
    return logs, by_eig


def _near_the_bound():
    """2x2 eigenvector matrices whose cond lies within 1e-9 of
    EIG_LOG_MAX_COND, on either side of it."""
    bound = algebra.EIG_LOG_MAX_COND
    small = 1.0 / bound
    out = []
    for _ in range(12):
        small = np.nextafter(small, 0.0)
    for _ in range(24):
        for v in (np.diag([1.0, small]), np.array([[0.0, small], [1.0, 0.0]])):
            if abs(np.linalg.cond(v) - bound) <= 1e-9:
                out.append(v)
        small = np.nextafter(small, 1.0)
    return np.array(out)


@pytest.mark.parametrize("case", ["well conditioned", "near the bound",
                                  "one singular V"])
def test_the_frobenius_bound_makes_the_decision_of_cond(case, monkeypatch):
    """Each slice goes by eig exactly where ``np.linalg.cond(V)`` is below
    EIG_LOG_MAX_COND, and the logs are the bytes of judging every slice by
    SVD.  A well-conditioned stack takes no SVD at all."""
    rng = np.random.default_rng(5)
    well = np.linalg.eig(rng.standard_normal((6, 3, 3)) + 4 * np.eye(3))[1]
    v = {"well conditioned": well,
         "near the bound": _near_the_bound(),
         "one singular V": np.stack([np.eye(2), [[1.0, 1.0], [0.0, 0.0]],
                                     [[2.0, 1.0], [1.0, 1.0]]])}[case]
    w = np.exp(1j * rng.uniform(-2, 2, v.shape[:2])) * rng.uniform(
        0.5, 2.0, v.shape[:2])
    stack = np.array([[[2.0, 1.0], [0.0, 2.0]] if np.linalg.matrix_rank(m)
                      < len(m) else (m * ww) @ np.linalg.inv(m)
                      for m, ww in zip(v, w)])
    expected, by_eig = _eig_logs_by_svd(stack, w, v)
    if case == "near the bound":
        assert by_eig.any() and not by_eig.all()
    if case == "one singular V":
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(v)
    if case == "well conditioned":
        assert by_eig.all()
        monkeypatch.setattr(np.linalg, "cond", None)  # no SVD is taken
    got_by_eig, _ = algebra._well_conditioned(v)
    assert np.array_equal(got_by_eig, by_eig)
    assert algebra._eig_logs(stack, w, v).tobytes() == expected.tobytes()


@pytest.mark.parametrize("first, message", [
    ("singular", "singular input"),
    ("on_cut", "negative real axis"),
])
def test_first_refused_slice_names_the_reason(first, message):
    """One singular vertex and one vertex on the cut: the first of them in
    the stack gives the error, as a slice-by-slice log would."""
    slices = {"singular": np.diag([0.0, 1.0]), "on_cut": np.diag([-2.0, 1.0])}
    second = "on_cut" if first == "singular" else "singular"
    data = np.stack([slices[first], slices[second]], axis=-1)
    mat = ll.MatrixOverAlgebra(ll.function_algebra(2, [(0, 1)]), data)
    with pytest.raises(ll.SpectrumOnCutError, match=message):
        ll.mat_log(ll.GroupElement(mat, "GL", validate=False))


def test_mat_log_ignores_the_global_generator():
    g = acceptance.random_gl(3, np.random.default_rng(5))
    np.random.seed(0)
    first = ll.mat_log(g).data.tobytes()
    np.random.seed(12345)
    np.random.random(17)
    assert ll.mat_log(g).data.tobytes() == first


def test_invariant_check_refuses_an_overflowing_residual():
    mat = ll.MatrixOverAlgebra(ll.matrix_algebra(2),
                               [[[[1e300, 1e300], [0, 1e-300]]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not invertible within tolerance"):
            ll.GroupElement(mat, "GL")


def test_group_element_invariants():
    alg = ll.scalar_complex()
    mat = ll.MatrixOverAlgebra(alg, np.array([[2.0 + 0j, 0], [0, 0.5 + 0j]]))
    g = ll.GroupElement(mat, "SL")  # det = 1
    assert g.group_tag == "SL"
    with pytest.raises(ValueError):
        bad = ll.MatrixOverAlgebra(alg, np.diag([2.0 + 0j, 2.0 + 0j]))
        ll.GroupElement(bad, "SL")
    with pytest.raises(ValueError):
        ll.GroupElement(mat, "U")  # not unitary
    with pytest.raises(ValueError):
        singular = ll.MatrixOverAlgebra(alg, np.zeros((2, 2)))
        ll.GroupElement(singular, "GL")


@pytest.mark.parametrize("tag", ["GL", "SL", "U"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_group_element_rejects_non_finite_entries(tag, bad):
    mat = ll.MatrixOverAlgebra(ll.scalar_complex(),
                               np.array([[1.0 + 0j, 0], [0, bad]]))
    with pytest.raises(ValueError, match="finite"):
        ll.GroupElement(mat, tag)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.kind)
def test_matrix_data_is_read_only(alg):
    data = np.zeros((2, 2) + alg.value_shape(), dtype=alg.dtype)
    m = ll.MatrixOverAlgebra(alg, data)
    with pytest.raises(ValueError, match="read-only"):
        m.data[0, 0] = alg.unit_value()
    data[0, 0] = alg.unit_value()  # the caller's array is not frozen


def test_matrix_attributes_cannot_be_rebound():
    m = ll.MatrixOverAlgebra.identity(ll.scalar_complex(), 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.data = np.zeros((2, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.n = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        del m.algebra
    assert m.n == 2 and np.array_equal(m.data, np.eye(2))


def test_matrix_refuses_a_new_attribute_as_frozen():
    m = ll.MatrixOverAlgebra.identity(ll.scalar_complex(), 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.x = 1
    assert not hasattr(m, "x")


def test_group_element_is_frozen():
    g = ll.GroupElement.identity(ll.scalar_complex(), 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.group_tag = "U"


def test_value_arrays_are_read_only():
    a = ll.AlgebraElement(ll.scalar_complex(), 1.0)
    f = ll.CircleFunction(ll.DiscretizedSpace(2, [(0, 1)]), [0.1, 0.2])
    u = ll.PUnitary.identity(ll.SchattenContext(2, 2))
    for array in (a.value, f.phase, u.matrix):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_value_equality_is_identity_or_value_and_never_raises():
    """``==`` on a value holding an array is identity; contexts, algebras
    and spaces compare and hash by value."""
    ctx = ll.SchattenContext(2, 2)
    space = ll.DiscretizedSpace(2, [(0, 1)])
    f = ll.CircleFunction(space, [0.1, 0.2])
    values = (ll.AlgebraElement(ll.scalar_complex(), 1.0), f,
              ll.unwrap(f), ll.PUnitary.identity(ctx))
    for value in values:
        twin = dataclasses.replace(value)
        assert value == value and value != twin
        assert len({value, twin}) == 2
    weights = np.array([1.0, 2.0])
    assert ll.SchattenContext(2, 2, weights) == ll.SchattenContext(
        2, 2.0, weights.copy())
    assert ll.SchattenContext(2, 2) != ll.SchattenContext(2, 2, weights)
    assert len({ctx, ll.SchattenContext(2, 2),
                ll.SchattenContext(2, 2, weights), ll.scalar_complex(),
                ll.scalar_complex(), space,
                ll.DiscretizedSpace(2, [(0, 1)])}) == 4


@pytest.mark.parametrize("bad", [
    {}, "x", ["0.1", "0.2"], [True, False], [None, 0.0], [0.0, {}],
    [[0.0], [1.0, 2.0]], [10**400, 0.0]],
    ids=["object", "string", "numeric-strings", "bools", "null",
         "object-entry", "ragged", "huge-int"])
def test_one_reader_refuses_arrays_that_are_not_numbers(bad):
    """JSON values, circle phases and coarse distances are read by one
    reader, which names the field it refuses."""
    readers = {
        "values": lambda v: algebra._value_from_json(v, ll.scalar_real()),
        "phases": lambda v: ll.CircleFunction(
            ll.DiscretizedSpace(2, [(0, 1)]), v),
        "distances": lambda v: ll.SampledSpace([0, 1], v, 0)}
    for what, read in readers.items():
        with pytest.raises(ValueError,
                           match=f"^{what} must be an array of numbers"):
            read(bad)
        with pytest.raises(ValueError, match=f"^{what} must be finite$"):
            read([0.0, math.nan])


def test_function_algebra_components():
    alg = ll.function_algebra(5, [(0, 1), (3, 4)])
    assert alg.components == [0, 0, 1, 2, 2]


@pytest.mark.parametrize("vertices, edges", [
    (3, [(0, 1.0)]),
    (3, [(0.7, 2)]),
    (3, [(np.float64(0.0), 2)]),
    (2.5, [(0, 1)]),
])
def test_function_algebra_rejects_non_integer_graphs(vertices, edges):
    with pytest.raises(ValueError, match="non-integer|at least one vertex"):
        ll.function_algebra(vertices, edges)
    doc = {"kind": algebra.FUNCTIONS, "vertices": vertices, "edges": edges}
    with pytest.raises(ValueError, match="non-integer|at least one vertex"):
        algebra.algebra_from_json(doc)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.kind)
def test_json_round_trip(alg):
    rng = np.random.default_rng(4)
    x = ll.MatrixOverAlgebra.random(alg, 2, rng)
    doc = algebra.matrix_to_json(x)
    back = algebra.matrix_from_json(doc)
    assert (back - x).op_norm() <= 1e-15
    g = ll.mat_exp(x.scaled(0.1))
    doc = algebra.group_to_json(g)
    back_g = algebra.group_from_json(doc)
    assert (back_g.matrix - g.matrix).op_norm() <= 1e-15
    assert back_g.group_tag == g.group_tag


def _bad_entries(alg, edit):
    doc = algebra.matrix_to_json(ll.MatrixOverAlgebra.identity(alg, 2))
    edit(doc)
    return doc


# Entries that must not be broadcast, truncated or accepted as they are.
MALFORMED = {
    "scalar-entry-over-matrix": (
        ll.matrix_algebra(2),
        lambda doc: doc["entries"][0].__setitem__(1, [1.0, 0.0])),
    "one-value-function": (
        ll.function_algebra(3),
        lambda doc: doc["entries"][0].__setitem__(0, [[1.0, 0.0]])),
    "extra-row": (
        ll.scalar_complex(),
        lambda doc: doc["entries"].append(doc["entries"][0])),
    "missing-row": (
        ll.scalar_complex(),
        lambda doc: doc["entries"].pop()),
    "n-mismatch": (
        ll.scalar_complex(),
        lambda doc: doc.__setitem__("n", 3)),
    "non-finite": (
        ll.scalar_complex(),
        lambda doc: doc["entries"][0].__setitem__(0, [math.nan, 0.0])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_matrix_from_json_rejects_malformed_entries(case):
    alg, edit = MALFORMED[case]
    with pytest.raises(ValueError):
        algebra.matrix_from_json(_bad_entries(alg, edit))


# Entrywise definitions on .data: the algebra product is a matrix product
# for matrix(k) and a pointwise product (trailing axes) otherwise.
PRODUCT = {algebra.MATRIX: "ikab,kjbc->ijac"}
ADJOINT = {algebra.MATRIX: "jiba->ijab"}


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.kind)
def test_flat_path_matches_entrywise_definitions(alg):
    rng = np.random.default_rng(5)
    n = 3
    x = ll.MatrixOverAlgebra.random(alg, n, rng)
    y = ll.MatrixOverAlgebra.random(alg, n, rng)
    product = np.einsum(PRODUCT.get(alg.kind, "ik...,kj...->ij..."),
                        x.data, y.data)
    assert np.max(np.abs((x @ y).data - product)) <= 1e-13
    adjoint = np.einsum(ADJOINT.get(alg.kind, "ji...->ij..."), x.data.conj())
    assert np.max(np.abs(x.adjoint().data - adjoint)) <= 1e-13
    if alg.is_commutative:
        eps = np.zeros((3, 3, 3))  # Levi-Civita symbol
        for a, b, c in itertools.permutations(range(3)):
            eps[a, b, c] = (b - a) * (c - a) * (c - b) / 2
        det = np.einsum("abc,a...,b...,c...->...", eps, *x.data)
        assert np.max(np.abs(x.det().value - det)) <= 1e-13
    else:
        with pytest.raises(ValueError):
            x.det()
    stack = np.stack([alg.random_value(rng) for _ in range(6)])
    stack = stack.reshape((2, 3) + alg.value_shape())
    per_value = [[alg.norm(v) for v in row] for row in stack]
    assert np.array_equal(alg.norm(stack), per_value)
    assert x.entry_norms().shape == (n, n)


@pytest.mark.parametrize("shape", [(2, 2), (12, 12), (25, 2, 2),
                                   (4, 12, 12)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_spectral_equals_each_product_it_replaced(shape):
    """``spectral`` is byte-equal to the products written out before it:
    e^{ia} of one self-adjoint matrix, the log of a stack of unitaries, and
    the positive polar factor P = V* diag(s) V of an SVD."""
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    lam, vecs = np.linalg.eigh(m + m.conj().swapaxes(-1, -2))
    flat = (-1,) + shape[-2:]
    slices = zip(lam.reshape(flat[:2]), vecs.reshape(flat))
    unitaries = algebra.spectral(np.exp(1j * lam), vecs).reshape(flat)
    assert np.array_equal(unitaries, [(v * np.exp(1j * w)) @ v.conj().T
                                      for w, v in slices])
    d, theta, z, _ = algebra.unitary_spectrum(unitaries)
    logd = np.log(np.abs(d)) + 1j * theta
    assert np.array_equal(algebra.spectral(logd, z),
                          (z * logd[:, None, :]) @ z.conj().swapaxes(-1, -2))
    _, s, vh = np.linalg.svd(m)
    assert np.array_equal(
        algebra.spectral(s, vh.conj().swapaxes(-1, -2)),
        (np.swapaxes(vh.conj(), -1, -2) * s[..., None, :]) @ vh)


@pytest.mark.parametrize("k", [1, 2, 6])
def test_one_slice_spectrum_equals_the_stacked_one(k):
    """A one-slice stack takes the 2-D Schur call; its result is the same
    as that slice's inside a longer stack."""
    rng = np.random.default_rng(k)
    stack = np.stack([
        acceptance.random_unitary(k, rng).matrix.data[0, 0]
        for _ in range(3)])
    for i in range(3):
        one = algebra.unitary_spectrum(stack[i:i + 1])
        for got, stacked in zip(one, algebra.unitary_spectrum(stack)):
            assert got.shape[0] == 1
            assert np.array_equal(got[0], stacked[i])
