"""Phase unwrapping, winding detection, quotient norms, and circle lengths."""

import math

import numpy as np
import pytest

import lielength as ll
from lielength import circle, oracles


def path_graph(n):
    return ll.DiscretizedSpace(n, [(k, k + 1) for k in range(n - 1)])


def cycle_graph(n):
    return ll.DiscretizedSpace(n, [(k, (k + 1) % n) for k in range(n)])


# -- unwrap ------------------------------------------------------------------

def test_unwrap_zero():
    f = ll.CircleFunction(path_graph(4), np.zeros(4))
    assert np.allclose(ll.unwrap(f).value, 0.0)


def test_unwrap_propagates_nearest_increments():
    f = ll.CircleFunction(path_graph(5), [0, 0.3, 0.6, 0.9, 0.2])
    lift = ll.unwrap(f).value
    assert np.allclose(lift, [0, 0.3, 0.6, 0.9, 1.2], atol=1e-12)
    assert np.allclose(lift % 1.0, f.phase, atol=1e-12)


def test_unwrap_two_components_keeps_roots():
    space = ll.DiscretizedSpace(2, ())
    f = ll.CircleFunction(space, [0.5, 0.5])
    assert np.allclose(ll.unwrap(f).value, [0.5, 0.5])


def test_sampling_violation_rejected():
    with pytest.raises(ll.SamplingConditionError):
        ll.CircleFunction(path_graph(2), [0.0, 0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_phase_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        ll.CircleFunction(path_graph(3), [0.0, bad, 0.2])


# -- winding -----------------------------------------------------------------

def test_tree_always_identity_component():
    rng = np.random.default_rng(0)
    for _ in range(20):
        lift = np.cumsum(rng.uniform(-0.4, 0.4, size=6))
        f = ll.CircleFunction(path_graph(6), lift % 1.0)
        ok, windings = ll.identity_component_check(f)
        assert ok and windings == {}  # no cycles, vacuously zero


def test_cycle_winding_one_detected():
    m = 8
    f = ll.CircleFunction(cycle_graph(m), [k / m for k in range(m)])
    ok, windings = ll.identity_component_check(f)
    assert not ok
    assert sorted(windings.values()) == [1]
    with pytest.raises(ll.WindingError):
        ll.unwrap(f)


def test_constant_function_identity_component():
    f = ll.CircleFunction(cycle_graph(5), np.full(5, 0.37))
    ok, windings = ll.identity_component_check(f)
    assert ok and all(k == 0 for k in windings.values())


# -- quotient norm and cel -----------------------------------------------------

def test_quotient_norm_zero():
    f = ll.CircleFunction(path_graph(3), np.zeros(3))
    assert ll.quotient_norm(f) == 0.0
    assert ll.cel(f) == 0.0


def test_quotient_norm_single_vertex_half():
    f = ll.CircleFunction(ll.DiscretizedSpace(1, ()), [0.5])
    assert ll.quotient_norm(f) == pytest.approx(0.5, abs=1e-15)
    assert ll.cel(f) == pytest.approx(math.pi, abs=1e-12)


def test_quotient_norm_lift_range_three_quarters():
    f = ll.CircleFunction(path_graph(4), [0, 0.25, 0.5, 0.75])
    assert ll.quotient_norm(f) == pytest.approx(0.75, abs=1e-12)
    assert ll.cel(f) == pytest.approx(1.5 * math.pi, abs=1e-12)
    # exhaustive integer offsets agree
    assert oracles.oracle_quotient_norm(f, offset_range=3) == \
        ll.quotient_norm(f)


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.5])
def test_symmetric_ramp_norm_equals_radius(radius):
    # connected path whose lift runs from -radius to radius
    steps = int(math.ceil(2 * radius / 0.4)) + 1
    lift = np.linspace(-radius, radius, steps)
    f = ll.CircleFunction(path_graph(steps), lift % 1.0)
    assert ll.quotient_norm(f) == pytest.approx(radius, abs=1e-9)
    assert ll.cel(f) == pytest.approx(2 * math.pi * radius, abs=1e-9)


def test_edgeless_graphs_bounded_by_pi():
    rng = np.random.default_rng(7)
    space = ll.DiscretizedSpace(6, ())
    top = 0.0
    for _ in range(2000):
        f = ll.CircleFunction(space, rng.uniform(0, 1, size=6))
        value = ll.cel(f)
        assert value <= math.pi + 1e-12
        top = max(top, value)
    assert top > math.pi - 0.01


def _random_smooth_pair(rng, space, jitter=0.12):
    base = rng.uniform(0, 1, size=2)
    f = ll.CircleFunction(space, (base[0] + rng.uniform(
        -jitter, jitter, space.vertices)) % 1.0)
    g = ll.CircleFunction(space, (base[1] + rng.uniform(
        -jitter, jitter, space.vertices)) % 1.0)
    return f, g


def test_length_function_axioms():
    rng = np.random.default_rng(11)
    space = path_graph(5)
    for _ in range(1000):
        f, g = _random_smooth_pair(rng, space)
        prod = f.multiply(g)
        assert ll.cel(prod) <= ll.cel(f) + ll.cel(g) + 1e-9
        assert ll.cel(f.inverse()) == pytest.approx(ll.cel(f), abs=1e-9)


def test_oracle_equivalence_small_graphs():
    rng = np.random.default_rng(23)
    for _ in range(300):
        v = int(rng.integers(1, 7))
        edges = [(k, k + 1) for k in range(v - 1) if rng.random() < 0.7]
        lift = rng.uniform(-3, 3) + rng.uniform(-0.2, 0.2, size=v)
        f = ll.CircleFunction(ll.DiscretizedSpace(v, edges), lift % 1.0)
        assert ll.quotient_norm(f) == oracles.oracle_quotient_norm(f, 5)


# -- consistency with the unitary closed form ---------------------------------

def _diagonal_unitary(f):
    alg = ll.function_algebra(f.space.vertices, f.space.edges)
    data = np.exp(2j * math.pi * f.phase)[None, None, :]
    return ll.GroupElement(ll.MatrixOverAlgebra(alg, data), "U",
                           validate=False)


def test_cel_matches_unitary_length_on_edgeless_graphs():
    rng = np.random.default_rng(31)
    space = ll.DiscretizedSpace(5, ())
    for _ in range(200):
        f = ll.CircleFunction(space, rng.uniform(0, 1, size=5))
        u = _diagonal_unitary(f)
        exact = ll.el_exact_unitary(u)
        # pointwise principal lift and integer-offset minimization agree on
        # totally disconnected samples
        assert ll.cel(f) == pytest.approx(exact, abs=1e-9)


def test_cel_below_unitary_length_when_principal_lift_is_continuous():
    rng = np.random.default_rng(37)
    space = path_graph(6)
    for _ in range(200):
        # phases in a narrow band: the principal lift is continuous, hence a
        # valid lift, and the quotient norm can only be smaller
        f = ll.CircleFunction(space, (0.1 + rng.uniform(
            -0.08, 0.08, 6)) % 1.0)
        u = _diagonal_unitary(f)
        assert ll.cel(f) <= ll.el_exact_unitary(u) + 1e-9


def test_real_lift_rejects_inconsistent_values():
    space = path_graph(3)
    f = ll.CircleFunction(space, [0.0, 0.3, 0.6])
    with pytest.raises(ValueError):
        ll.RealLift(space, np.array([0.0, 0.8, 0.6]), f)
