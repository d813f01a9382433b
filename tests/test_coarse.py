"""Sampled spaces, quasi-isometry fitting, moduli envelopes."""

import itertools
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
    with pytest.raises(ValueError):
        coarse.SampledSpace(["a", "b"], np.array([[0.0, 1.0], [2.0, 0.0]]),
                            "a")


# -- chains of a unitary group --------------------------------------------------

def test_coarsely_proper_unitary_sample():
    """Each sampled unitary within 4 of the identity is reached by a chain
    of steps below 1, of at most floor(max(pi, 8)) + 1 = 9 steps."""
    ctx = ll.SchattenContext(4, 2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = schatten.random_punitary(
            ctx, rng, operator_norm=rng.uniform(0.2, math.pi))
        if u.dist_to_identity() < 4.0:
            chain = ll.coarse_proper_chain(u, 4.0, 1.0)
            steps = [a.dist_to(b) for a, b in itertools.pairwise(chain)]
            assert max(steps) < 1.0 and len(steps) <= 9


def test_geodesic_unitary_sample_constant_two():
    """Between each pair of a sample, the left translate by a of the
    geodesic chain of a^{-1} b has steps at most 2 and a total at most
    twice d(a, b): the metric is bi-invariant."""
    ctx = ll.SchattenContext(4, 1)
    rng = np.random.default_rng(1)
    elements = [schatten.random_punitary(
        ctx, rng, operator_norm=rng.uniform(0.2, math.pi)) for _ in range(8)]
    elements.append(schatten.PUnitary.identity(ctx))
    for a, b in itertools.combinations(elements, 2):
        chain = [a @ u for u in ll.geodesic_chain(a.inverse() @ b).chain]
        steps = [x.dist_to(y) for x, y in itertools.pairwise(chain)]
        assert max(steps) <= 2.0 + 1e-9
        assert sum(steps) <= (2.0 + 1e-9) * a.dist_to(b)


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
    """diag(e^t, e^{-t}) included into the 2x2 group: lengths match |t - s|
    on both sides, so the lower envelope follows the identity line.

    The nine points t = -2, -1.5, ..., 2 give the domain distances 0.5 k,
    k = 1..8, so top = 4 and the 20 default bins have width 0.2.  Distance
    0.5 k falls in bin floor(2.5 k), and 4.0 is clamped into the last bin,
    19.  The occupied bins are 2, 5, 7, 10, 12, 15, 17 and 19, with centres
    0.5, 1.1, 1.5, 2.1, 2.5, 3.1, 3.5 and 3.9.  Each holds one distance, so
    lower and upper are both 0.5 k, each within half a width, 0.1, of its
    centre.
    """
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
    moduli = coarse.fit_coarse_moduli(sample)
    assert moduli.expansive
    halves = [0.5 * k for k in range(1, 9)]
    assert moduli.bin_edges == pytest.approx(
        [0.5, 1.1, 1.5, 2.1, 2.5, 3.1, 3.5, 3.9], abs=1e-12)
    assert moduli.lower == pytest.approx(halves, abs=1e-12)
    assert moduli.upper == pytest.approx(halves, abs=1e-12)
    for edge, lo in zip(moduli.bin_edges, moduli.lower):
        assert abs(lo - edge) <= 0.1 + 1e-12
    fit = coarse.fit_quasi_isometry(sample)
    assert fit.constant == pytest.approx(1.0, abs=1e-9)
    assert fit.additive <= 1e-9


def test_sampled_space_rejects_triangle_violation():
    dist = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="triangle"):
        coarse.SampledSpace(["a", "b", "c"], dist, "a")


def test_sampled_space_takes_valid_tables_at_scale_1e10():
    """Six planar points at scale 1e10, one the midpoint of two others:
    the triangle equality there rounds at about 1e-6, inside the table's
    slack of 1e-9 (1 + its largest distance)."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        xs = rng.uniform(0, 1e10, size=(5, 2))
        xs = np.vstack([xs, (xs[0] + xs[1]) / 2])
        coarse.SampledSpace.from_points(
            list(range(6)), lambda a, b: math.dist(xs[a], xs[b]), 0)


def _two_point_map(x, y):
    space = [coarse.SampledSpace([0, 1], [[0.0, d], [d, 0.0]], 0)
             for d in (x, y)]
    return coarse.CoarseMapSample(*space, [(0, 0), (1, 1)])


def test_moduli_of_the_least_positive_distance():
    """top / 20 underflows to 0 at top = 5e-324; the bin width stays the
    least positive float, so the one pair lands in one bin."""
    moduli = coarse.fit_coarse_moduli(_two_point_map(5e-324, 1.0))
    assert (moduli.lower, moduli.upper) == ([1.0], [1.0])


def test_a_constant_past_the_float_range_refutes_the_fit():
    """The ratio 1 / 5e-324 overflows, so K = inf: no finite constant was
    found, and the fit says so."""
    fit = coarse.fit_quasi_isometry(_two_point_map(5e-324, 1.0))
    assert fit.constant == math.inf and fit.refuted


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sampled_space_rejects_non_finite_distances(bad):
    dist = np.array([[0.0, bad], [bad, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        coarse.SampledSpace(["a", "b"], dist, "a")


# -- the fit and the moduli against the full scan -----------------------------------

def _scan(sample):
    """The full scan that ``fit_quasi_isometry`` and ``fit_coarse_moduli``
    replace, in Python floats: every pairwise ratio is a candidate K, and
    each candidate visits every pair.  Returns (constant, additive, trend,
    refuted) and the moduli fields."""
    pairs = [(sample.domain.d(a, b), sample.codomain.d(fa, fb))
             for (a, fa), (b, fb) in itertools.combinations(sample.pairs, 2)]
    if not pairs:
        return (1.0, 0.0, [], False), ([], [], [], False)

    def forced(ps, k):
        need = 0.0
        for dx, dy in ps:
            need = max(need, dy - k * dx, dx / k - dy)
        return max(0.0, need)

    grid = sorted({1.0} | {max(r, 1.0) for dx, dy in pairs if dx > 0 and dy > 0
                           for r in (dy / dx, dx / dy)})
    ls = [forced(pairs, k) for k in grid]
    k, l = next((k, l) for k, l in zip(grid, ls) if l <= min(ls) + 1e-12)
    top = max(dx for dx, _ in pairs)
    edges = [top * (i + 1) / 8 for i in range(8)] if top else []
    trend = [(e, forced([p for p in pairs if p[0] <= e], k)) for e in edges
             if any(p[0] <= e for p in pairs)]
    width = top / 20.0 if top > 0 else 1.0
    n = max(1, int(math.ceil(top / width)))
    mins, maxs = [math.inf] * n, [-math.inf] * n
    for dx, dy in pairs:
        b = min(n - 1, int(dx / width))
        mins[b], maxs[b] = min(mins[b], dy), max(maxs[b], dy)
    occupied = [i for i in range(n) if mins[i] != math.inf]
    lower = [min(mins[j] for j in occupied[m:]) for m in range(len(occupied))]
    upper = [max(maxs[j] for j in occupied[:m + 1])
             for m in range(len(occupied))]
    expansive = bool(lower) and lower[-1] > lower[0] and \
        lower[-1] == max(lower)
    return ((k, l, trend, k == math.inf or coarse._is_expanding(trend)),
            ([(i + 0.5) * width for i in occupied], lower, upper, expansive))


def _indexed_sample(xs, ys, rng):
    """Point i at xs[i] mapped to image point perm[i] at ys[i], the pairs
    listed in a shuffled order, so positions differ from ids."""
    n = len(xs)
    perm = rng.permutation(n).tolist()
    at = {perm[i]: ys[i] for i in range(n)}
    domain = coarse.SampledSpace.from_points(
        list(range(n)), lambda a, b: math.dist(xs[a], xs[b]), 0)
    codomain = coarse.SampledSpace.from_points(
        list(range(n)), lambda a, b: math.dist(at[a], at[b]), perm[0])
    order = rng.permutation(n).tolist()
    return coarse.CoarseMapSample(domain, codomain,
                                  [(i, perm[i]) for i in order])


def _reference_samples(count):
    rng = np.random.default_rng(15)
    for idx in range(count):
        kind = idx % 8
        n, dim = 1 + (idx // 8) % 12, 1 + idx % 2
        xs = rng.uniform(-5, 5, size=(n, dim))
        if kind == 5:  # a pair at distance 0
            xs = np.vstack([xs[:1], xs])
        if kind == 6:  # a ratio of about 1 / 5e-324, past the float range
            xs = np.vstack([np.zeros((2, dim)), np.full((1, dim), 5e-324),
                            xs])
        c = rng.uniform(0.1, 10.0)
        ys = {0: xs, 1: -xs, 2: c * xs, 3: np.round(xs, 1),
              4: c * xs + rng.normal(0, 0.3, size=xs.shape),
              5: rng.uniform(-5, 5, size=xs.shape), 6: np.vstack(
                  [np.zeros((1, dim)), np.full((1, dim), 2.0),
                   np.ones((1, dim)), xs[3:]]),
              7: np.sin(xs) * c}[kind]
        yield _indexed_sample(xs.tolist(), ys.tolist(), rng)


def test_fit_and_moduli_match_the_full_scan():
    """On 240 seeded samples, among them one- and two-point samples, pairs
    at distance 0 and a grid holding inf, the bisection and the array
    reductions give the full scan's fields, bit for bit, as Python
    floats."""
    seen = set()
    for sample in _reference_samples(240):
        (k, l, trend, refuted), moduli = _scan(sample)
        fit = coarse.fit_quasi_isometry(sample)
        assert (fit.constant, fit.additive, fit.trend, fit.refuted) == \
            (k, l, trend, refuted)
        got = coarse.fit_coarse_moduli(sample)
        assert (got.bin_edges, got.lower, got.upper, got.expansive) == moduli
        assert all(type(v) is float for v in (
            fit.constant, fit.additive, *got.bin_edges, *got.lower,
            *got.upper, *itertools.chain.from_iterable(fit.trend)))
        assert type(fit.refuted) is bool and type(got.expansive) is bool
        seen |= {len(sample.pairs),
                 "distance 0" if np.any(sample.distance_pairs()[0] == 0)
                 else None, "K = inf" if fit.constant == math.inf else None}
    assert {1, 2, "distance 0", "K = inf"} <= seen


def test_fit_bisects_the_ratio_grid(monkeypatch):
    """On 80 points the grid holds thousands of ratios; the forced additive
    constant over all pairs is taken at most ceil(log2(len(grid))) + 2
    times."""
    rng = np.random.default_rng(80)
    xs = rng.uniform(-10, 10, size=(80, 2))
    ys = 1.7 * xs + rng.normal(0, 0.5, size=xs.shape)
    sample = _indexed_sample(xs.tolist(), ys.tolist(), rng)
    dx, dy = sample.distance_pairs()
    grid = {1.0} | {max(r, 1.0) for a, b in zip(dx, dy) for r in (b / a, a / b)}
    full = []
    inner = coarse._required_additive

    def counted(dx_, dy_, k):
        if len(dx_) == len(dx):
            full.append(k)
        return inner(dx_, dy_, k)

    monkeypatch.setattr(coarse, "_required_additive", counted)
    coarse.fit_quasi_isometry(sample)
    assert len(grid) > 3000
    assert 0 < len(full) <= math.ceil(math.log2(len(grid))) + 2
