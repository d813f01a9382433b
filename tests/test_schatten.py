"""p-Schatten unitary groups: norms, the exp sandwich, chains, the affine
action and its witnesses."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lielength as ll
from lielength import algebra, schatten


def test_p_norm_fixtures():
    ctx = ll.SchattenContext(4, 2)
    assert ll.p_norm(np.zeros((4, 4)), ctx) == 0.0
    assert ll.p_norm(np.eye(4), ctx) == pytest.approx(2.0, abs=1e-12)
    ctx1 = ll.SchattenContext(2, 1)
    assert ll.p_norm(np.diag([3.0, 4.0]), ctx1) == pytest.approx(7.0, abs=1e-12)


def test_p_norm_weighted_diagonal():
    ctx = ll.SchattenContext(2, 2, weights=np.array([2.0, 0.5]))
    value = ll.p_norm(np.diag([1.0, 2.0]), ctx)
    assert value == pytest.approx(math.sqrt(2 * 1 + 0.5 * 4), abs=1e-12)


@pytest.mark.parametrize("p, scale, norm", [
    (1e308, 2.0, 2.0), (1e308, 0.5, 0.5), (2.0, 1e-200, math.sqrt(2) * 1e-200),
    (2.0, 1e200, math.sqrt(2) * 1e200)],
    ids=["over", "under", "tiny-matrix", "huge-matrix"])
def test_p_norm_refuses_a_power_sum_out_of_float_range(p, scale, norm):
    """A sum of s^p that is inf, or 0 for a nonzero matrix, is never
    returned: the norm is taken relative to the top singular value, on the
    matrix scaled to its largest entry, so at p = 1e308 it is the top
    singular value, and a 2-norm whose trace overflows is still returned.
    In a stack, the other norms keep the bytes they have alone."""
    ctx = ll.SchattenContext(2, p)
    stack = np.stack([np.zeros((2, 2)), np.eye(2), scale * np.eye(2)])
    assert ll.p_norm(stack[2], ctx) == pytest.approx(norm, rel=1e-15)
    norms = ll.p_norm(stack, ctx)
    assert norms[:2].tolist() == [0.0, ll.p_norm(np.eye(2), ctx)]
    assert norms[2] == ll.p_norm(stack[2], ctx)


def test_p_norm_takes_a_norm_whose_power_sum_underflows():
    """At p = 400, 0.002^400 underflows, but the norm of diag(0.002, 0.001)
    is 0.002 (1 + 2^-400)^(1/400), which rounds to 0.002."""
    ctx = ll.SchattenContext(2, 400.0)
    assert ll.p_norm(np.diag([0.002, 0.001]), ctx) == pytest.approx(
        0.002, rel=1e-15)


def test_p_norm_of_zero_matrices_stays_zero_at_any_p():
    for p in (1.0, 2.0, 1e308):
        ctx = ll.SchattenContext(2, p)
        assert ll.p_norm(np.zeros((2, 2)), ctx) == 0.0
        assert ll.p_norm(np.zeros((3, 2, 2)), ctx).tolist() == [0.0] * 3


def test_p_norm_of_an_empty_stack_is_empty_at_any_p():
    for p in (1.0, 2.0, 3.5):
        norms = ll.p_norm(np.zeros((0, 3, 3)), ll.SchattenContext(3, p))
        assert norms.shape == (0,)


def test_p_norm_keeps_large_finite_powers():
    """At p = 400, 2^400 is about 2.6e120: still in range, so the norm is
    taken as before, 2^(1 + 1/400) for 2 I in dimension 2."""
    ctx = ll.SchattenContext(2, 400.0)
    assert ll.p_norm(2.0 * np.eye(2), ctx) == pytest.approx(
        2.0 ** (1 + 1 / 400), rel=1e-14)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_p_norm_takes_an_entry_whose_modulus_overflows(p):
    """|1e308 (1 + i)| is past the float range, but under the weight 1e-10
    the norm of [[1e308 (1 + i)]] is 1e-10^(1/p) sqrt(2) 1e308: the scale is
    the largest real or imaginary part, so no finite matrix is refused."""
    ctx = ll.SchattenContext(1, p, weights=np.array([1e-10]))
    a = np.array([[1e308 + 1e308j]])
    expected = 1e-10 ** (1 / p) * math.sqrt(2) * 1e308
    assert ll.p_norm(a, ctx) == pytest.approx(expected, rel=1e-14)
    assert ll.p_norm(np.stack([a, 0 * a]), ctx).tolist() == [
        ll.p_norm(a, ctx), 0.0]


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.sampled_from([1, 2, 3.5]), st.integers(1, 8), st.booleans(),
       st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple),
       st.integers(0, 2**32 - 1))
def test_stacked_p_norm_equals_each_matrix_alone(p, dim, weighted, shape,
                                                 seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 3.0, dim) if weighted else None
    ctx = ll.SchattenContext(dim, p, weights=weights)
    stack = (rng.standard_normal(shape + (dim, dim))
             + 1j * rng.standard_normal(shape + (dim, dim)))
    norms = ll.p_norm(stack, ctx)
    assert norms.shape == shape
    for index in np.ndindex(*shape):
        alone = ll.p_norm(stack[index], ctx)
        assert type(alone) is float and norms[index] == alone


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.integers(1, 8), st.booleans(),
       st.lists(st.integers(1, 4), max_size=2).map(tuple),
       st.integers(0, 2**32 - 1))
def test_p2_norm_equals_the_spectral_formula(dim, weighted, shape, seed):
    """At p = 2 the norm is taken from the trace, tau(a* a)^(1/2); it equals
    sum_j (sum_i w_i |V_ij|^2) s_j^2 over the singular value decomposition
    a = U S V*, to rounding."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 3.0, dim) if weighted else None
    ctx = ll.SchattenContext(dim, 2, weights=weights)
    stack = (rng.standard_normal(shape + (dim, dim))
             + 1j * rng.standard_normal(shape + (dim, dim)))
    _, s, vh = np.linalg.svd(stack)
    vertex_weights = np.abs(vh) ** 2 @ ctx.weights
    spectral = np.sqrt(np.sum(vertex_weights * s ** 2, axis=-1))
    norms = ll.p_norm(stack, ctx)
    assert np.shape(norms) == shape
    assert np.allclose(norms, spectral, rtol=1e-13, atol=0.0)


def test_p2_norms_and_chains_take_no_eigendecomposition(monkeypatch):
    """At p = 2 no norm calls eigh, and the chains are built from the
    spectrum of the principal log, with no eigh of the log."""
    ctx = ll.SchattenContext(4, 2)
    u = schatten.random_punitary(ctx, np.random.default_rng(3))

    def refused(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refused)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    assert ll.p_norm(np.eye(4), ctx) == 2.0
    report = ll.geodesic_chain(u)
    assert report.satisfies_large_scale_geodesic
    chain = ll.coarse_proper_chain(u, u.dist_to_identity() + 1.0, 0.5)
    assert chain[-1].dist_to(u) <= 1e-12


def test_sandwich_check_takes_one_eigh(monkeypatch):
    """One eigh of a gives both the spectrum test and e^{ia}, whose bytes
    are those of ``PUnitary.from_selfadjoint``."""
    ctx = ll.SchattenContext(4, 2)
    a = schatten.random_selfadjoint(4, np.random.default_rng(4), 2.0)
    expected = schatten.PUnitary.from_selfadjoint(a, ctx).dist_to_identity()
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda m: calls.append("eigh") or eigh(m))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: calls.append("eigvalsh"))
    _, mid, _ = ll.sandwich_check(a, ctx)
    assert calls == ["eigh"] and mid == expected


def test_haagerup_gram_takes_one_stacked_norm(monkeypatch):
    ctx = ll.SchattenContext(3, 2)
    rng = np.random.default_rng(20)
    elements = [schatten.random_punitary(ctx, rng) for _ in range(7)]
    shapes = []
    p_norm = schatten.p_norm
    monkeypatch.setattr(schatten, "p_norm",
                        lambda a, c: shapes.append(a.shape) or p_norm(a, c))
    schatten.haagerup_witness(elements, 1)
    assert shapes == [(21, 3, 3)]


NON_FINITE = {"nan": np.full((2, 2), math.nan),
              "inf": np.array([[math.inf, 0.0], [0.0, 1.0]])}


@pytest.mark.parametrize("entries", NON_FINITE.values(), ids=NON_FINITE)
def test_non_finite_unitaries_and_selfadjoints_are_refused(entries):
    """A NaN or an infinity is refused by name, not taken for a unitary or
    a self-adjoint, and not blamed on the float range."""
    ctx = ll.SchattenContext(2, 2)
    with pytest.raises(ValueError, match="matrix has a non-finite entry"):
        ll.PUnitary(ctx, entries)
    with pytest.raises(ValueError, match="input has a non-finite entry"):
        ll.sandwich_check(entries, ctx)
    with pytest.raises(ValueError, match="input has a non-finite entry"):
        ll.exp_p_continuity(entries, [], ctx)
    for p in (2.0, 3.0):
        for a in (entries, np.stack([np.eye(2), entries])):
            with pytest.raises(ValueError, match=re.escape(
                    f"p = {p:g}: the matrix has a non-finite entry")):
                ll.p_norm(a, ll.SchattenContext(2, p))


def test_every_e_i_a_refuses_an_operator_that_is_not_self_adjoint():
    """eigh reads only the lower triangle, so [[0, 1], [0, 0]] would be
    measured as 0; each caller of e^{ia} refuses it instead."""
    ctx = ll.SchattenContext(2, 2)
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    callers = [lambda: ll.sandwich_check(a, ctx),
               lambda: ll.exp_p_continuity(a, [0.01 * np.eye(2)], ctx),
               lambda: schatten.PUnitary.from_selfadjoint(a, ctx)]
    for call in callers:
        with pytest.raises(ValueError, match="input must be self-adjoint"):
            call()


@pytest.mark.parametrize("shape, message", [
    ((2, 3), re.escape("input shape (2, 3) does not match context "
                       "dimension 2")),
    ((2,), re.escape("input shape (2,) does not match context dimension 2")),
    ((3, 3), "does not match context dimension")], ids=["2x3", "1-d", "3x3"])
def test_every_e_i_a_refuses_an_operator_of_the_wrong_shape(shape, message):
    """An operator that is not dim x dim is refused with a ValueError naming
    its shape, not with numpy's broadcast or 1-D error, by each caller of
    e^{ia}: as the operator and as an element of the sequence."""
    ctx = ll.SchattenContext(2, 2)
    a = np.ones(shape)
    callers = [lambda: ll.sandwich_check(a, ctx),
               lambda: ll.exp_p_continuity(a, [np.eye(2)], ctx),
               lambda: ll.exp_p_continuity(np.eye(2), [a], ctx),
               lambda: schatten.PUnitary.from_selfadjoint(a, ctx)]
    for call in callers:
        with pytest.raises(ValueError, match=message):
            call()


def test_a_residual_past_the_float_range_is_not_unitary():
    with pytest.raises(ValueError, match="not unitary within 1e-9"):
        ll.PUnitary(ll.SchattenContext(2, 2), 1e200 * np.eye(2))


def test_sandwich_fixtures():
    ctx = ll.SchattenContext(1, 2)
    assert ll.sandwich_check(np.zeros((1, 1)), ctx) == (0.0, 0.0, 0.0)
    lhs, mid, rhs = ll.sandwich_check(np.array([[math.pi]]), ctx)
    assert (lhs, mid, rhs) == pytest.approx((math.pi / 2, 2.0, math.pi),
                                            abs=1e-12)
    ctx2 = ll.SchattenContext(2, 2)
    lhs, mid, rhs = ll.sandwich_check(np.diag([math.pi / 2, -math.pi / 2]),
                                      ctx2)
    # |a|_2 = pi/sqrt(2); each eigenvalue contributes |e^{+-i pi/2} - 1|^2 = 2
    assert lhs == pytest.approx(math.pi / (2 * math.sqrt(2)), abs=1e-12)
    assert mid == pytest.approx(2.0, abs=1e-12)
    assert rhs == pytest.approx(math.pi / math.sqrt(2), abs=1e-12)
    assert lhs <= mid <= rhs


def test_sandwich_rejects_large_spectrum():
    ctx = ll.SchattenContext(2, 2)
    with pytest.raises(ValueError):
        ll.sandwich_check(np.diag([4.0, 0.0]), ctx)


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
@pytest.mark.parametrize("p", [1, 2, 4])
def test_sandwich_random_sweep(dim, p):
    rng = np.random.default_rng(dim * 100 + p)
    ctx = ll.SchattenContext(dim, p)
    for _ in range(40):
        a = schatten.random_selfadjoint(dim, rng,
                                        rng.uniform(1e-3, math.pi))
        lhs, mid, rhs = ll.sandwich_check(a, ctx)
        assert lhs <= mid + 1e-9 and mid <= rhs + 1e-9


def test_sandwich_with_positive_weights():
    rng = np.random.default_rng(5)
    ctx = ll.SchattenContext(4, 2, weights=np.array([1.0, 1.0, 3.0, 3.0]))
    for _ in range(50):
        a = schatten.random_selfadjoint(4, rng, rng.uniform(0.1, math.pi))
        lhs, mid, rhs = ll.sandwich_check(a, ctx)
        assert lhs <= mid + 1e-9 and mid <= rhs + 1e-9


# -- chains --------------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_principal_branch_shared_with_mat_log(k):
    """schatten and mat_log take the same branch, and an eigenvalue at -1
    goes to +pi, not -pi."""
    rng = np.random.default_rng(k)
    ctx = ll.SchattenContext(k, 2)
    alg = ll.matrix_algebra(k)
    for trial in range(20):
        m = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        q, _ = np.linalg.qr(m)
        eig = np.exp(1j * rng.uniform(-math.pi, math.pi, size=k))
        if trial % 2 == 0:
            eig[0] = -1.0
        u = (q * eig) @ q.conj().T
        a = ll.PUnitary(ctx, u).principal_log_selfadjoint()
        g = ll.GroupElement(ll.MatrixOverAlgebra(alg, u[None, None]), "U")
        log = ll.mat_log(g).data[0, 0]
        assert np.max(np.abs(log - 1j * a)) <= 1e-12
        if trial % 2 == 0:
            assert np.max(np.linalg.eigvalsh(a)) == pytest.approx(
                math.pi, abs=1e-12)
            assert np.min(np.linalg.eigvalsh(a)) > -math.pi + 1e-6


def test_coarse_proper_chain_identity():
    ctx = ll.SchattenContext(2, 2)
    u = schatten.PUnitary.identity(ctx)
    assert len(ll.coarse_proper_chain(u, 1.0, 0.5)) == 1


def test_coarse_proper_chain_refuses_a_step_past_the_cap(monkeypatch):
    """A step of 1e-9 would ask for about 6.6e9 unitaries: the count is
    refused, naming the limit, before any element is built."""
    ctx = ll.SchattenContext(4, 2)
    u = schatten.random_punitary(ctx, np.random.default_rng(0))
    built = []
    monkeypatch.setattr(schatten, "_chain", lambda *args: built.append(args))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_CHAIN_STEPS = 10000"):
            ll.coarse_proper_chain(u, 5.0, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built == []
    assert peak < 100_000
    monkeypatch.undo()
    # k = floor(2 delta_cap / step) + 1 on either side of the cap
    cap = schatten.MAX_CHAIN_STEPS
    with pytest.raises(ValueError, match="MAX_CHAIN_STEPS"):
        ll.coarse_proper_chain(u, 5.0, 10.0 / cap)
    assert len(ll.coarse_proper_chain(u, 5.0, 10.0 / (cap - 0.5))) - 1 == cap


def test_chain_refusal_names_delta_cap_and_step():
    """Step 1.0 alone needs 4 steps at u's distance 3.13: the count past
    the cap comes from delta_cap, so the refusal names both."""
    u = schatten.random_punitary(ll.SchattenContext(3, 2),
                                 np.random.default_rng(5))
    assert 3.1 < u.dist_to_identity() < 3.2
    with pytest.raises(ValueError) as refused:
        ll.coarse_proper_chain(u, 1e5, 1.0)
    assert re.search(r"delta_cap 100000\.0 and step 1\.0 need a chain of "
                     r"more than MAX_CHAIN_STEPS = 10000 steps",
                     str(refused.value))


@pytest.mark.parametrize("k", [1, 2, 9])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("weighted", [False, True],
                         ids=["uniform", "weighted"])
def test_chain_equals_its_points_and_steps_one_by_one(k, p, weighted):
    """The stacked chain holds the bytes of e^{i a j / k} built point by
    point, and its steps are the pairwise distances."""
    rng = np.random.default_rng(10 * k + p)
    weights = rng.uniform(0.1, 3.0, 4) if weighted else None
    ctx = ll.SchattenContext(4, p, weights=weights)
    theta, z = schatten.random_punitary(ctx, rng)._principal_spectrum()
    chain, steps = schatten._chain(theta, z, ctx, k)
    assert len(chain) == k + 1
    assert chain[0].matrix.tobytes() == np.eye(4, dtype=complex).tobytes()
    for j, point in enumerate(chain[1:], 1):
        one = algebra.spectral(np.exp(1j * theta * (j / k)), z)
        assert point.matrix.tobytes() == one.tobytes()
    assert steps == [a.dist_to(b) for a, b in zip(chain, chain[1:])]


def test_a_chain_is_one_spectral_call(monkeypatch):
    ctx = ll.SchattenContext(4, 2)
    u = schatten.random_punitary(ctx, np.random.default_rng(3))
    calls = []
    spectral = schatten.spectral
    monkeypatch.setattr(schatten, "spectral",
                        lambda *args: calls.append(args) or spectral(*args))
    chain = ll.coarse_proper_chain(u, u.dist_to_identity() + 1.0, 0.5)
    assert len(chain) > 2 and len(calls) == 1
    assert calls[0][0].shape == (len(chain) - 1, 4)


def _conjugated_diag(entries, ctx, rng):
    """Self-adjoint with the given spectrum, in generic position."""
    m = rng.standard_normal((ctx.dim, ctx.dim)) \
        + 1j * rng.standard_normal((ctx.dim, ctx.dim))
    q, _ = np.linalg.qr(m)
    return (q * np.asarray(entries, dtype=float)) @ q.conj().T


def test_coarse_proper_chain_fixture_k9():
    ctx = ll.SchattenContext(2, 2)
    rng = np.random.default_rng(5)
    a = _conjugated_diag([3 / math.sqrt(2), -3 / math.sqrt(2)], ctx, rng)
    assert ll.p_norm(a, ctx) == pytest.approx(3.0, abs=1e-9)
    u = schatten.PUnitary.from_selfadjoint(a, ctx)
    chain = ll.coarse_proper_chain(u, 4.0, 1.0)
    assert len(chain) - 1 == 9
    steps = [chain[i].dist_to(chain[i + 1]) for i in range(len(chain) - 1)]
    assert max(steps) < 1.0
    assert chain[0].dist_to_identity() == 0.0
    assert chain[-1].dist_to(u) <= 1e-12


def test_coarse_proper_chain_single_step_when_step_dominates():
    ctx = ll.SchattenContext(2, 2)
    rng = np.random.default_rng(6)
    a = schatten.random_selfadjoint(2, rng, operator_norm=0.3)
    u = schatten.PUnitary.from_selfadjoint(a, ctx)
    d0 = u.dist_to_identity()
    chain = ll.coarse_proper_chain(u, d0 * 1.5, 2.0 * d0 * 1.5)
    assert len(chain) == 2


def test_coarse_proper_chain_requires_radius():
    ctx = ll.SchattenContext(2, 2)
    rng = np.random.default_rng(7)
    u = schatten.random_punitary(ctx, rng)
    with pytest.raises(ValueError):
        ll.coarse_proper_chain(u, u.dist_to_identity() / 2, 1.0)


@pytest.mark.parametrize("dim, p, match", [
    (0, 2.0, "dim must be >= 1"),
    (2, 0.5, "p must be finite and >= 1"),
    (2, math.nan, "p must be finite and >= 1"),
    (2, math.inf, "p must be finite and >= 1"),
])
def test_context_refuses_bad_dim_and_p(dim, p, match):
    with pytest.raises(ValueError, match=match):
        ll.SchattenContext(dim, p)


@pytest.mark.parametrize("weights", [[1.0, math.nan], [1.0, math.inf],
                                     [1.0, 0.0]])
def test_context_refuses_bad_weights(weights):
    with pytest.raises(ValueError, match="finite, positive"):
        ll.SchattenContext(2, 2, weights=np.array(weights))


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan])
def test_coarse_proper_chain_refuses_a_step_not_above_zero(step):
    u = schatten.random_punitary(ll.SchattenContext(2, 2),
                                 np.random.default_rng(7))
    with pytest.raises(ValueError, match="step must be > 0"):
        ll.coarse_proper_chain(u, u.dist_to_identity() + 1.0, step)


def test_geodesic_chain_identity_is_empty():
    ctx = ll.SchattenContext(3, 2)
    report = ll.geodesic_chain(schatten.PUnitary.identity(ctx))
    assert report.step_lengths == [] and report.sum_of_steps == 0.0


def test_geodesic_chain_norm_five_uses_three_steps():
    ctx = ll.SchattenContext(4, 2)
    rng = np.random.default_rng(8)
    a = _conjugated_diag([2.5, -2.5, 2.5, -2.5], ctx, rng)
    assert ll.p_norm(a, ctx) == pytest.approx(5.0, abs=1e-9)
    assert np.max(np.abs(np.linalg.eigvalsh(a))) <= math.pi
    u = schatten.PUnitary.from_selfadjoint(a, ctx)
    report = ll.geodesic_chain(u)
    assert len(report.step_lengths) == 3
    assert report.sum_of_steps <= 2.0 * report.distance + 1e-9
    assert report.satisfies_large_scale_geodesic


def test_geodesic_report_bounds_the_chain_by_the_distance():
    """Three unit steps between points at distance 1 exceed twice the
    distance, though the distance is below twice their sum."""
    report = schatten.GeodesicChainReport([], [1.0, 1.0, 1.0], 3.0, 1.0)
    assert not report.satisfies_large_scale_geodesic


def test_geodesic_chain_small_norm_single_step():
    ctx = ll.SchattenContext(2, 2)
    rng = np.random.default_rng(9)
    a = schatten.random_selfadjoint(2, rng, operator_norm=0.4)
    u = schatten.PUnitary.from_selfadjoint(a, ctx)
    report = ll.geodesic_chain(u)
    assert len(report.step_lengths) == 1
    assert report.sum_of_steps == pytest.approx(report.distance, abs=1e-12)
    assert report.sum_of_steps <= 2.0


# -- affine action -------------------------------------------------------------

def test_affine_action_fixtures():
    ctx = ll.SchattenContext(3, 2)
    rng = np.random.default_rng(10)
    u = schatten.random_punitary(ctx, rng)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    one = schatten.PUnitary.identity(ctx)
    assert np.allclose(ll.affine_action(one, x), x)
    assert np.allclose(ll.affine_action(u, np.zeros((3, 3))),
                       schatten.cocycle(u))


def test_affine_action_isometric():
    ctx = ll.SchattenContext(3, 2)
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = schatten.random_punitary(ctx, rng)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = ll.p_norm(ll.affine_action(u, x) - ll.affine_action(u, y), ctx)
        assert lhs == pytest.approx(ll.p_norm(x - y, ctx), rel=1e-10)


def test_cocycle_identity():
    ctx = ll.SchattenContext(4, 2)
    rng = np.random.default_rng(12)
    for _ in range(300):
        u = schatten.random_punitary(ctx, rng)
        v = schatten.random_punitary(ctx, rng)
        lhs = schatten.cocycle(u @ v)
        rhs = u.matrix @ schatten.cocycle(v) + schatten.cocycle(u)
        assert ll.p_norm(lhs - rhs, ctx) <= 1e-10


def test_metric_bi_invariance():
    ctx = ll.SchattenContext(4, 2)
    rng = np.random.default_rng(13)
    for _ in range(200):
        u, v, w = (schatten.random_punitary(ctx, rng) for _ in range(3))
        d = u.dist_to(v)
        assert (w @ u).dist_to(w @ v) == pytest.approx(d, abs=1e-10)
        assert (u @ w).dist_to(v @ w) == pytest.approx(d, abs=1e-10)


def test_cocycle_is_isometric_embedding():
    ctx = ll.SchattenContext(4, 1)
    rng = np.random.default_rng(14)
    for _ in range(100):
        u = schatten.random_punitary(ctx, rng)
        v = schatten.random_punitary(ctx, rng)
        lhs = ll.p_norm(schatten.cocycle(u) - schatten.cocycle(v), ctx)
        assert lhs == pytest.approx(u.dist_to(v), abs=1e-12)


# -- witnesses -----------------------------------------------------------------

def test_haagerup_witness_single_element():
    ctx = ll.SchattenContext(2, 2)
    gram, min_eig = ll.haagerup_witness([schatten.PUnitary.identity(ctx)], 1)
    assert gram.shape == (1, 1) and gram[0, 0] == 1.0
    assert min_eig == pytest.approx(1.0, abs=1e-12)


def test_haagerup_witness_large_index_flattens_to_ones():
    ctx = ll.SchattenContext(3, 2)
    rng = np.random.default_rng(15)
    elements = [schatten.random_punitary(ctx, rng) for _ in range(5)]
    gram, min_eig = ll.haagerup_witness(elements, 10**9)
    assert np.min(gram) > 1 - 1e-6
    assert min_eig >= -1e-10


def test_haagerup_witness_random_psd():
    ctx = ll.SchattenContext(6, 2)
    rng = np.random.default_rng(16)
    elements = [schatten.random_punitary(ctx, rng) for _ in range(50)]
    for n in (1, 10):
        _, min_eig = ll.haagerup_witness(elements, n)
        assert min_eig >= -1e-8


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(st.sampled_from([1, 2, 3.5]), st.integers(1, 6), st.integers(1, 12),
       st.booleans(), st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_haagerup_gram_equals_the_pairwise_reference(p, dim, count, weighted,
                                                     n, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 3.0, dim) if weighted else None
    ctx = ll.SchattenContext(dim, p, weights=weights)
    elements = [schatten.random_punitary(ctx, rng) for _ in range(count)]
    gram, _ = ll.haagerup_witness(elements, n)
    dists = [[gi.dist_to(gj) for gj in elements] for gi in elements]
    reference = np.array([[math.exp(-(d * d) / n) for d in row]
                          for row in dists])
    assert np.array_equal(gram, reference)
    assert np.array_equal(gram, gram.T)
    assert np.all(np.diagonal(gram) == 1.0)


@pytest.mark.parametrize("n", [0, 0.5, -math.inf, math.nan])
def test_haagerup_witness_refuses_an_index_below_one(n):
    element = schatten.PUnitary.identity(ll.SchattenContext(2, 2))
    with pytest.raises(ValueError, match="n must be >= 1"):
        ll.haagerup_witness([element, element], n)


def test_haagerup_witness_needs_an_element():
    with pytest.raises(ValueError, match="at least one element"):
        ll.haagerup_witness([], 1)


@pytest.mark.parametrize("other", [
    ll.SchattenContext(2, 1),
    ll.SchattenContext(2, 2, weights=np.array([1.0, 2.0])),
    ll.SchattenContext(3, 2),
], ids=["p", "weights", "dim"])
def test_haagerup_witness_rejects_mixed_contexts(other):
    first = schatten.PUnitary.identity(ll.SchattenContext(2, 2))
    with pytest.raises(ValueError, match="share one SchattenContext"):
        ll.haagerup_witness([first, schatten.PUnitary.identity(other)], 1)


def test_haagerup_witness_accepts_equal_contexts():
    elements = [schatten.PUnitary.identity(ll.SchattenContext(2, 2))
                for _ in range(2)]
    gram, _ = ll.haagerup_witness(elements, 1)
    assert np.array_equal(gram, np.ones((2, 2)))


# -- continuity of the exponential ----------------------------------------------

def test_exp_continuity_stationary_sequence():
    ctx = ll.SchattenContext(3, 2)
    rng = np.random.default_rng(17)
    a = schatten.random_selfadjoint(3, rng, 1.0)
    report = ll.exp_p_continuity(a, [a, a], ctx)
    assert report.ratios == [0.0, 0.0]


def test_exp_continuity_takes_one_eigh_per_operator(monkeypatch):
    """One eigh of each operator gives both its sup norm and its e^{ia}."""
    ctx = ll.SchattenContext(3, 2)
    rng = np.random.default_rng(21)
    a = schatten.random_selfadjoint(3, rng, 1.0)
    seq = [a, a + schatten.random_selfadjoint(3, rng, 0.5)]
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda m: calls.append("eigh") or eigh(m))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: calls.append("eigvalsh"))
    report = ll.exp_p_continuity(a, seq, ctx)
    assert calls == ["eigh"] * 3
    assert report.sup_operator_norm == max(
        np.abs(eigh(m)[0]).max() for m in [a, *seq])


def test_exp_continuity_perturbation_bounded_by_e():
    ctx = ll.SchattenContext(4, 2)
    rng = np.random.default_rng(18)
    a = schatten.random_selfadjoint(4, rng, 1.0)
    h = schatten.random_selfadjoint(4, rng, 1.0)
    seq = [a + h / m for m in (1, 2, 4, 8, 16, 64)]
    report = ll.exp_p_continuity(a, seq, ctx)
    assert all(r <= math.e + 1e-9 for r in report.ratios)


def test_exp_continuity_commuting_family_contractive():
    ctx = ll.SchattenContext(4, 2)
    rng = np.random.default_rng(19)
    lam = rng.uniform(-2, 2, size=4)
    a = np.diag(lam)
    seq = [np.diag(lam + rng.uniform(-0.5, 0.5, size=4)) for _ in range(20)]
    report = ll.exp_p_continuity(a, seq, ctx)
    assert all(r <= 1.0 + 1e-9 for r in report.ratios)
