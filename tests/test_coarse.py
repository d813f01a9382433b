"""Sampled-space checkers: chains, quasi-isometry fitting, moduli envelopes."""

import math

import numpy as np
import pytest

import lielength as ll
from lielength import coarse, schatten


def line_space(values, origin=0.0):
    ids = list(values)
    return coarse.SampledSpace.from_points(ids, lambda a, b: abs(a - b),
                                           origin)


def test_sampled_space_invariants():
    space = line_space([0.0, 1.0, 3.0])
    assert space.check_triangle()
    assert space.d(0.0, 3.0) == 3.0
    assert space.to_origin(1.0) == 1.0
    with pytest.raises(ValueError):
        coarse.SampledSpace(["a", "b"], np.array([[0.0, 1.0], [2.0, 0.0]]),
                            "a")


def test_sampled_space_csv_round_trip(tmp_path):
    space = line_space([0.0, 0.5, 2.0])
    path = tmp_path / "space.csv"
    space.write_csv(path)
    back = coarse.SampledSpace.read_csv(path, origin="0.0")
    assert np.allclose(np.sort(back.dist, axis=None),
                       np.sort(space.dist, axis=None))


# -- coarse properness -----------------------------------------------------------

def test_coarsely_proper_single_steps():
    space = line_space([0.0, 0.1, 0.2, 0.3])
    report = coarse.check_coarsely_proper(
        space, radius=1.0, step=0.5,
        chain_fn=lambda p: [0.0, p],
        chain_dist=lambda a, b: abs(a - b))
    assert report.ok and report.max_chain_steps == 1
    assert "sampled at 3 points" in report.label


def test_coarsely_proper_unitary_sample():
    ctx = ll.SchattenContext(4, 2)
    rng = np.random.default_rng(0)
    elements = {f"u{k}": schatten.random_punitary(
        ctx, rng, operator_norm=rng.uniform(0.2, math.pi))
        for k in range(20)}
    elements["origin"] = schatten.PUnitary.identity(ctx)
    ids = sorted(elements)
    space = coarse.SampledSpace.from_points(
        ids, lambda a, b: elements[a].dist_to(elements[b]), "origin")

    def oracle(pid):
        return ll.coarse_proper_chain(elements[pid], 4.0, 1.0)

    report = coarse.check_coarsely_proper(
        space, radius=4.0, step=1.0, chain_fn=oracle,
        chain_dist=lambda a, b: a.dist_to(b))
    assert report.ok
    assert report.max_chain_steps <= 9  # floor(max(pi, 8)) + 1


def test_coarsely_proper_discrete_counterexample():
    # ten-fold scaled integer points: no midpoints exist, steps cannot drop
    # below the gap
    space = line_space([0.0, 10.0, 20.0])
    report = coarse.check_coarsely_proper(
        space, radius=25.0, step=1.0,
        chain_fn=lambda p: [0.0, p],
        chain_dist=lambda a, b: abs(a - b))
    assert not report.ok
    assert {p for p, _ in report.failures} == {10.0, 20.0}


# -- large-scale geodesicity -------------------------------------------------------

def test_geodesic_fine_chains_constant_one():
    space = line_space([0.0, 2.0, 5.0])

    def oracle(a, b):
        return list(np.linspace(a, b, 21))

    report = coarse.check_large_scale_geodesic(
        space, 1.1, oracle, lambda a, b: abs(a - b))
    assert report.ok
    assert report.smallest_constant <= 1.0 + 1e-9


def test_geodesic_unitary_sample_constant_two():
    ctx = ll.SchattenContext(4, 1)
    rng = np.random.default_rng(1)
    elements = {f"u{k}": schatten.random_punitary(
        ctx, rng, operator_norm=rng.uniform(0.2, math.pi))
        for k in range(8)}
    elements["origin"] = schatten.PUnitary.identity(ctx)
    ids = sorted(elements)
    space = coarse.SampledSpace.from_points(
        ids, lambda a, b: elements[a].dist_to(elements[b]), "origin")

    def oracle(a, b):
        # left-translate the origin chain of a^{-1} b
        w = elements[a].inverse() @ elements[b]
        chain = ll.geodesic_chain(w).chain
        return [elements[a] @ u for u in chain]

    report = coarse.check_large_scale_geodesic(
        space, 2.0, oracle, lambda a, b: a.dist_to(b))
    assert report.ok
    assert report.smallest_constant <= 2.0 + 1e-9


def test_geodesic_two_point_counterexample():
    space = line_space([0.0, 10.0])
    report = coarse.check_large_scale_geodesic(
        space, 1.0, lambda a, b: [a, b], lambda a, b: abs(a - b))
    assert not report.ok
    assert report.worst_pair == (0.0, 10.0)
    # monotone in the constant: the same data passes at a larger constant
    relaxed = coarse.check_large_scale_geodesic(
        space, report.smallest_constant, lambda a, b: [a, b],
        lambda a, b: abs(a - b))
    assert relaxed.ok


# -- quasi-isometry fitting -----------------------------------------------------------

def _map_sample(points, fn):
    domain = line_space(points, origin=points[0])
    codomain = coarse.SampledSpace.from_points(
        [fn(p) for p in points], lambda a, b: abs(a - b), fn(points[0]))
    return coarse.CoarseMapSample(domain, codomain,
                                  [(p, fn(p)) for p in points])


def test_fit_identity_map_exact():
    sample = _map_sample([0.0, 1.0, 2.5, 4.0], lambda p: p)
    fit = coarse.fit_quasi_isometry(sample)
    assert fit.as_pair() == (1.0, 0.0)
    assert not fit.refuted


def test_fit_three_scaling():
    sample = _map_sample([0.0, 1.0, 2.0, 3.5], lambda p: 3.0 * p)
    fit = coarse.fit_quasi_isometry(sample)
    assert fit.constant == pytest.approx(3.0, abs=1e-12)
    assert fit.additive == pytest.approx(0.0, abs=1e-12)


def test_fit_isometric_random_sample():
    rng = np.random.default_rng(2)
    points = sorted(rng.uniform(0, 10, size=12))
    # negation preserves float distances bitwise, so the fit is exact
    sample = _map_sample(points, lambda p: -p)
    assert coarse.fit_quasi_isometry(sample).as_pair() == (1.0, 0.0)
    # a translated copy only matches to rounding; the forced additive
    # constant stays at machine scale
    shifted = coarse.fit_quasi_isometry(_map_sample(points,
                                                    lambda p: p + 5.0))
    assert shifted.constant == 1.0 and shifted.additive <= 1e-12


# -- moduli ------------------------------------------------------------------------

def test_moduli_identity_envelopes():
    sample = _map_sample(list(np.linspace(0, 10, 12)), lambda p: p)
    moduli = coarse.fit_coarse_moduli(sample)
    assert moduli.expansive
    for edge, lo, hi in zip(moduli.bin_edges, moduli.lower, moduli.upper):
        assert lo <= edge + 1.0 and hi >= edge - 1.0


def test_moduli_constant_map_not_expansive():
    points = list(np.linspace(0, 5, 8))
    domain = line_space(points)
    codomain = coarse.SampledSpace.from_points(
        ["c"], lambda a, b: 0.0, "c")
    sample = coarse.CoarseMapSample(domain, codomain,
                                    [(p, "c") for p in points])
    moduli = coarse.fit_coarse_moduli(sample)
    assert all(v == 0.0 for v in moduli.upper)
    assert not moduli.expansive


def test_moduli_positive_diagonal_inclusion():
    # diag(e^t, e^{-t}) included into the 2x2 group: lengths match |t - s|
    # on both sides, so the lower envelope follows the identity line
    alg = ll.scalar_complex()
    ts = list(np.linspace(-2.0, 2.0, 9))

    def as_group(t):
        return ll.GroupElement(
            ll.MatrixOverAlgebra(alg, np.diag([math.exp(t) + 0j,
                                               math.exp(-t)])), "GL")

    def ambient_dist(t, s):
        return ll.el_exact_positive_diagonal(as_group(t).inverse()
                                             @ as_group(s))

    domain = line_space(ts)
    codomain = coarse.SampledSpace.from_points(ts, ambient_dist, ts[0])
    sample = coarse.CoarseMapSample(domain, codomain,
                                    [(t, t) for t in ts])
    moduli = coarse.fit_coarse_moduli(sample, bin_width=0.5)
    assert moduli.expansive
    for edge, lo in zip(moduli.bin_edges, moduli.lower):
        assert lo == pytest.approx(max(edge - 0.25, 0.0), abs=0.26)
    fit = coarse.fit_quasi_isometry(sample)
    assert fit.constant == pytest.approx(1.0, abs=1e-9)
    assert fit.additive <= 1e-9


def test_certificates_replay_deterministically():
    space = line_space([0.0, 0.4, 0.8])
    kwargs = dict(radius=1.0, step=0.5,
                  chain_fn=lambda p: [0.0, p / 2, p],
                  chain_dist=lambda a, b: abs(a - b))
    first = coarse.check_coarsely_proper(space, **kwargs)
    second = coarse.check_coarsely_proper(space, **kwargs)
    assert first == second


def test_sampled_space_rejects_triangle_violation():
    dist = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="triangle"):
        coarse.SampledSpace(["a", "b", "c"], dist, "a")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sampled_space_rejects_non_finite_distances(bad):
    dist = np.array([[0.0, bad], [bad, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        coarse.SampledSpace(["a", "b"], dist, "a")
