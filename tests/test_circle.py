"""Phase unwrapping, winding detection, quotient norms, and circle lengths."""

import math
import re

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

import lielength as ll
from lielength import acceptance, algebra, circle, elementary, oracles


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


def test_windings_name_every_cycle_and_the_error_only_the_wound_ones():
    """Three 4-rings, BFS from their first vertex, so each ring's non-tree
    edge is (b + 2, b + 3): the phases k/4 wind once, the constant ring not
    at all, and the phases -k/4 wind -1."""
    edges = [e for b in (0, 4, 8)
             for e in ((b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b + 3, b))]
    phases = [0, 0.25, 0.5, 0.75] + [0.3] * 4 + [0, 0.75, 0.5, 0.25]
    f = ll.CircleFunction(ll.function_algebra(12, edges), phases)
    ok, windings = ll.identity_component_check(f)
    assert not ok
    assert windings == {(2, 3): 1, (6, 7): 0, (10, 11): -1}
    assert all(type(k) is int for k in windings.values())
    message = ("nonzero cycle windings {(2, 3): 1, (10, 11): -1}: "
               "not in the identity component")
    with pytest.raises(ll.WindingError, match=f"^{re.escape(message)}$"):
        ll.unwrap(f)


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
        ll.RealLift(np.array([0.0, 0.8, 0.6]), f)


# -- graph structure, built once per space ------------------------------------

@pytest.mark.parametrize("vertices, edges, match", [
    (3, [(0, 1.9)], "non-integer"),
    (3, [(0.7, 2)], "non-integer"),
    (3, [(0, np.float64(2.0))], "non-integer"),
    (0, [], "at least one vertex"),
    (2.0, [(0, 1)], "at least one vertex"),
])
def test_malformed_graph_rejected(vertices, edges, match):
    with pytest.raises(ValueError, match=match):
        ll.DiscretizedSpace(vertices, edges)
    doc = {"vertices": vertices, "edges": edges, "phase": [0.0] * 3}
    with pytest.raises(ValueError, match=match):
        ll.CircleFunction.from_json(doc)


def test_graph_built_once_per_space(monkeypatch):
    calls = []
    forest = algebra.spanning_forest

    def counting(*args):
        calls.append(args)
        return forest(*args)

    monkeypatch.setattr(algebra, "spanning_forest", counting)
    space = cycle_graph(5)
    for phase in (np.zeros(5), np.full(5, 0.3)):
        ll.cel(ll.CircleFunction(space, phase))
    assert len(calls) == 1
    # the cache is neither mutable from outside nor part of equality
    with pytest.raises(ValueError):
        space.graph.labels[0] = 7
    assert space.graph.labels.tolist() == [0] * 5
    assert space == cycle_graph(5) and hash(space) == hash(cycle_graph(5))


def test_one_traversal_serves_every_reader_of_a_space(monkeypatch):
    """A discretized space X is the function algebra C(X): circle functions
    on it, cel, the trace of C(X), the factorization invariant and the
    traceless decomposition all read its one graph."""
    calls = []
    forest = algebra.spanning_forest

    def counting(*args):
        calls.append(args)
        return forest(*args)

    monkeypatch.setattr(algebra, "spanning_forest", counting)
    edges = [(0, 1), (2, 3)]
    space = ll.DiscretizedSpace(4, edges)
    assert space == ll.function_algebra(4, edges)
    assert type(space) is ll.BanachAlgebra
    f = ll.CircleFunction(space, [0.1, 0.2, 0.7, 0.9])
    assert ll.cel(f) == pytest.approx(2 * math.pi * 0.3, abs=1e-12)
    assert ll.unwrap(f).base.space is space
    trace = elementary.trace(space, np.array([1.0, 3.0, 2.0, 4.0]))
    assert trace.tolist() == [2.0, 3.0]
    x = ll.MatrixOverAlgebra.random(space, 2, np.random.default_rng(0),
                                    scale=0.3)
    cert = ll.FactorizationCertificate.from_factors([x], ll.mat_exp(x))
    elementary.hs_determinant(cert)
    decomp = ll.traceless_decompose(acceptance._project_traceless(x))
    assert decomp.algebra is space
    assert len(calls) == 1 and space.graph.labels.tolist() == [0, 0, 1, 1]


@pytest.mark.parametrize("edges, match", [
    ([(1, 1)], "self-loop"),
    ([(0, 1), (2, 2)], "self-loop"),
    (None, "list of"),
    (True, "list of"),
    (3, "list of"),
    ("01", "list of"),
    ([0, 1], "list of"),
    ([[0]], "list of"),
    ([(0, 1, 2)], "list of"),
], ids=["loop", "second-loop", "null", "bool", "number", "string", "flat",
        "singleton", "triple"])
def test_spaces_and_algebras_share_one_graph_rule(edges, match):
    with pytest.raises(ValueError, match=match):
        ll.function_algebra(3, edges)
    with pytest.raises(ValueError, match=match):
        algebra.algebra_from_json({"kind": algebra.FUNCTIONS, "vertices": 3,
                                   "edges": edges})
    with pytest.raises(ValueError, match=match):
        ll.CircleFunction.from_json({"vertices": 3, "edges": edges,
                                     "phase": [0.0] * 3})


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("gap, accepted", [
    (0.5 - circle.SAMPLING_GUARD, False),
    (0.5 - 2e-12, True),
])
def test_sampling_guard_boundary(gap, accepted, flip):
    phase = [gap, 0.0] if flip else [0.0, gap]
    if accepted:
        ll.CircleFunction(path_graph(2), phase)
    else:
        with pytest.raises(ll.SamplingConditionError, match=r"edge \(0,1\)"):
            ll.CircleFunction(path_graph(2), phase)


def test_elementwise_increments_match_scalar_formulas():
    rng = np.random.default_rng(5)
    s, t = rng.uniform(0, 1, (2, 1000))
    s[:3], t[:3] = [0.0, 0.25, 0.5], [0.5, 0.75, 0.0]  # ties at exactly 1/2
    dist, inc = [], []
    for a, b in zip(s.tolist(), t.tolist()):
        d = abs(a - b) % 1.0
        dist.append(min(d, 1.0 - d))
        d = (b - a) % 1.0
        inc.append(d - 1.0 if d >= 0.5 else d)
    assert circle.circular_distance(s, t).tolist() == dist
    assert circle.nearest_increment(s, t).tolist() == inc


@st.composite
def lifted_graphs(draw):
    """A graph with several components, cycles, duplicate and reversed
    edges, and a real lift whose step along every edge is below 0.45."""
    v = draw(st.integers(1, 9))
    step = st.sampled_from(range(-400, 401))  # thousandths, drawn uniformly
    steps = draw(st.lists(step, min_size=v, max_size=v))
    lift = draw(st.floats(-3.0, 3.0)) + np.cumsum(steps) / 1000
    pairs = draw(st.lists(st.tuples(st.integers(0, v - 1), st.integers(1, 3),
                                    st.booleans()), max_size=3 * v))
    edges = []
    for a, jump, reverse in pairs:
        b = (a + jump) % v
        if a != b and abs(lift[a] - lift[b]) < 0.45:
            edges.append((b, a) if reverse else (a, b))
            if reverse and jump == 1:
                edges.append((a, b))
    return v, edges, lift


def _undirected(edges):
    return sorted(tuple(sorted(e)) for e in edges)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(lifted_graphs())
def test_graph_and_lift_properties(case):
    v, edges, true_lift = case
    ends = np.array(edges, dtype=int).reshape(-1, 2)
    adjacency = scipy.sparse.coo_matrix(
        (np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(v, v))
    n_comp, labels = scipy.sparse.csgraph.connected_components(
        adjacency, directed=False)
    assert algebra.connected_components(v, edges) == labels.tolist()

    space = ll.DiscretizedSpace(v, edges)
    tree, nontree = space.graph.tree, space.graph.nontree
    assert len(tree) == v - n_comp
    assert _undirected(edges) == _undirected(tree.tolist() + nontree.tolist())
    assert set(map(tuple, nontree.tolist())) <= set(edges)
    forest = scipy.sparse.coo_matrix(
        (np.ones(len(tree)), (tree[:, 0], tree[:, 1])), shape=(v, v))
    assert scipy.sparse.csgraph.connected_components(
        forest, directed=False)[1].tolist() == labels.tolist()

    f = ll.CircleFunction(space, true_lift % 1.0)
    ok, windings = ll.identity_component_check(f)
    assert ok and set(windings) == set(map(tuple, nontree.tolist()))
    assert all(k == 0 for k in windings.values())
    offset = ll.unwrap(f).value - true_lift
    assert np.allclose(offset, np.round(offset), atol=1e-9)
    for c in range(n_comp):
        assert np.unique(np.round(offset[labels == c])).size == 1
    if n_comp <= 4:
        assert ll.quotient_norm(f) == oracles.oracle_quotient_norm(f, 5)
