"""p-Schatten unitary groups: norms, the exp sandwich, chains, the affine
action and its witnesses."""

import math

import numpy as np
import pytest

import lielength as ll
from lielength import schatten


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
        lhs, mid, rhs = ll.sandwich_check(a, ctx, slack=1e-9)
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


# -- continuity of the exponential ----------------------------------------------

def test_exp_continuity_stationary_sequence():
    ctx = ll.SchattenContext(3, 2)
    rng = np.random.default_rng(17)
    a = schatten.random_selfadjoint(3, rng, 1.0)
    report = ll.exp_p_continuity(a, [a, a], ctx)
    assert report.ratios == [0.0, 0.0]


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
