"""Elementary generators, bracket identities, the span decomposition, the
factorization invariant, contractions, and unboundedness witnesses."""

import math

import numpy as np
import pytest

import lielength as ll
from lielength import elementary
from lielength.elementary import ElementaryGenerator

ALGEBRAS = (
    ll.scalar_complex(),
    ll.matrix_algebra(2),
    ll.function_algebra(5, [(0, 1), (1, 2), (3, 4)]),
)


def elem(alg, value=None, rng=None):
    if value is not None:
        return ll.AlgebraElement(alg, value * np.ones(alg.value_shape())
                                 if alg.value_shape() else value)
    return ll.AlgebraElement(alg, alg.random_value(rng))


# -- products -----------------------------------------------------------------

def test_elementary_product_same_slot_adds():
    alg = ll.scalar_complex()
    a, b = 1.5 + 0.5j, -0.25 + 1j
    word = [ElementaryGenerator("E", 2, ll.AlgebraElement(alg, a), 1, 2),
            ElementaryGenerator("E", 2, ll.AlgebraElement(alg, b), 1, 2)]
    g = ll.elementary_product(word)
    expected = ElementaryGenerator("E", 2, ll.AlgebraElement(alg, a + b), 1,
                                   2).matrix()
    assert (g.matrix - expected).op_norm() <= 1e-12
    assert g.group_tag == "En"


def test_elementary_product_dense_fixture():
    alg = ll.scalar_complex()
    a, b = 2.0 + 0j, -1.0 + 1j
    word = [ElementaryGenerator("E", 2, ll.AlgebraElement(alg, a), 1, 2),
            ElementaryGenerator("E", 2, ll.AlgebraElement(alg, b), 2, 1)]
    g = ll.elementary_product(word)
    expected = np.array([[1 + a * b, a], [b, 1]], dtype=complex)
    assert np.allclose(g.matrix.data, expected, atol=1e-12)


def test_elementary_product_refuses_the_empty_word():
    """An empty word names no algebra and no size; it is refused with the
    text ``word_from_json`` gives."""
    with pytest.raises(ValueError, match="^the word is empty; give at least "
                       "one generator$"):
        ll.elementary_product([])
    with pytest.raises(ValueError, match="^the word is empty"):
        elementary.word_from_json([])


def test_elementary_product_rejects_lie_kinds():
    alg = ll.scalar_complex()
    with pytest.raises(ValueError):
        ll.elementary_product(
            [ElementaryGenerator("e", 2, ll.AlgebraElement(alg, 1.0), 1, 2)])


# -- bracket identities ----------------------------------------------------------

def test_bracket_identity_unit_payload():
    alg = ll.scalar_complex()
    one = ll.AlgebraElement(alg, 1.0 + 0j)
    lhs = ElementaryGenerator("f", 2, one, 1, 2).matrix()
    assert np.allclose(lhs.data, np.diag([1.0 + 0j, -1.0 + 0j]))
    r1, r2 = ll.bracket_identities_check(one, one, 2, 1, 2)
    assert r1 == 0.0 and r2 == 0.0


def test_bracket_identity_commutative_second_identity_trivial():
    alg = ll.function_algebra(3, [(0, 1)])
    rng = np.random.default_rng(0)
    a, b = elem(alg, rng=rng), elem(alg, rng=rng)
    # pointwise products commute up to one ulp (FMA reassociation)
    prod_diff = alg.mul(a.value, b.value) - alg.mul(b.value, a.value)
    assert np.max(np.abs(prod_diff)) <= 1e-15
    _, r2 = ll.bracket_identities_check(a, b, 3, 1, 2)
    assert r2 <= 1e-12


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.kind)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_bracket_identities_random_sweep(alg, n):
    rng = np.random.default_rng(n)
    for idx in range(50):
        a, b = elem(alg, rng=rng), elem(alg, rng=rng)
        i = 1 + idx % n
        j = 1 + (idx + 1) % n
        r1, r2 = ll.bracket_identities_check(a, b, n, i, j)
        assert r1 <= 1e-12 and r2 <= 1e-12


# -- traceless decomposition ------------------------------------------------------

def test_decompose_zero():
    alg = ll.scalar_complex()
    x = ll.MatrixOverAlgebra.zeros(alg, 3)
    decomp = ll.traceless_decompose(x)
    assert (decomp.rebuild() - x).op_norm() == 0.0
    assert all(np.all(v == 0) for v in decomp.e_coefficients.values())


def test_decompose_diagonal_pair_single_f():
    alg = ll.scalar_complex()
    c = 0.75 - 0.25j
    x = ll.MatrixOverAlgebra(alg, np.diag([c, -c]))
    decomp = ll.traceless_decompose(x)
    assert decomp.e_coefficients == {}
    assert set(decomp.f_coefficients) == {(1, 2)}
    assert decomp.f_coefficients[(1, 2)] == pytest.approx(c)
    assert abs(decomp.g_coefficient) <= 1e-15
    assert (decomp.rebuild() - x).op_norm() <= 1e-15


def test_decompose_random_roundtrip():
    alg = ll.scalar_complex()
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = ll.MatrixOverAlgebra.random(alg, 3, rng)
        x = x - ll.MatrixOverAlgebra.single_entry(alg, 3, 2, 2,
                                                  x.trace_sum().value)
        decomp = ll.traceless_decompose(x)
        assert (decomp.rebuild() - x).op_norm() <= 1e-12


def test_decompose_rejects_nonzero_trace():
    alg = ll.scalar_complex()
    x = ll.MatrixOverAlgebra.identity(alg, 2)
    with pytest.raises(ValueError, match="trace"):
        ll.traceless_decompose(x)


# -- factorization invariant -------------------------------------------------------

def test_hs_determinant_traceless_exponential():
    alg = ll.scalar_complex()
    rng = np.random.default_rng(2)
    x = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.5)
    x = x - ll.MatrixOverAlgebra.single_entry(alg, 2, 1, 1, x.trace_sum().value)
    g = ll.mat_exp(x)
    cert = ll.FactorizationCertificate.from_factors([x], g)
    value = ll.hs_determinant(cert)
    assert np.max(np.abs(value.raw)) <= 1e-12
    assert np.max(np.abs(value.reduced)) <= 1e-12


def test_hs_determinant_full_turn_reduces_to_zero():
    alg = ll.scalar_complex()
    x = ll.MatrixOverAlgebra(alg, np.diag([2j * math.pi, 0.0 + 0j]))
    g = ll.mat_exp(x)  # the identity, reached the long way
    cert = ll.FactorizationCertificate.from_factors([x], g)
    value = ll.hs_determinant(cert)
    assert np.max(np.abs(value.raw - 2j * math.pi)) <= 1e-12
    assert np.max(np.abs(value.reduced)) <= 1e-12
    assert value.lattice_coefficients == [1]


def test_hs_determinant_factorization_invariance():
    alg = ll.scalar_complex()
    rng = np.random.default_rng(3)
    for idx in range(20):
        x = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.6)
        g = ll.mat_exp(x)
        cert_a = ll.FactorizationCertificate.from_factors([x], g)
        bracket = ll.el_estimate(g, seed=idx)
        cert_b = bracket.certificate
        da = ll.hs_determinant(cert_a)
        db = ll.hs_determinant(cert_b)
        diff, _ = elementary.reduce_mod_lattice(da.raw - db.raw)
        assert np.max(np.abs(diff)) <= 1e-8


def test_hs_determinant_vanishes_on_elementary_words():
    alg = ll.scalar_complex()
    rng = np.random.default_rng(4)
    for _ in range(30):
        word = []
        for _ in range(int(rng.integers(1, 5))):
            i, j = rng.permutation(3)[:2] + 1
            word.append(ElementaryGenerator("E", 3, elem(alg, rng=rng),
                                            int(i), int(j)))
        cert = elementary.word_certificate(word)
        value = ll.hs_determinant(cert)
        assert np.max(np.abs(value.raw)) <= 1e-12


def test_trace_vanishes_on_commutators():
    """tau(xy - yx) = 0 to 1e-10 on 20 random pairs per algebra."""
    rng = np.random.default_rng(5)
    for alg in ALGEBRAS:
        for _ in range(20):
            x, y = alg.random_value(rng), alg.random_value(rng)
            comm = alg.mul(x, y) - alg.mul(y, x)
            assert np.max(np.abs(elementary.trace(alg, comm))) <= 1e-10


def test_function_algebra_lattice_per_component():
    """One period 2*pi*i per graph component: a full turn on one component
    and two back on the other reduce to 0 with coefficients [1, -2]."""
    alg = ll.function_algebra(5, [(0, 1), (1, 2), (3, 4)])
    turns = np.array([1, 1, 1, -2, -2])
    x = ll.MatrixOverAlgebra.diagonal(alg, [2j * math.pi * turns,
                                            np.zeros(5, dtype=complex)])
    cert = ll.FactorizationCertificate.from_factors([x], ll.mat_exp(x))
    value = ll.hs_determinant(cert)
    assert np.max(np.abs(value.raw - 2j * math.pi * np.array([1, -2]))) <= 1e-12
    assert np.max(np.abs(value.reduced)) <= 1e-12
    assert value.lattice_coefficients == [1, -2]


# -- unboundedness witness -------------------------------------------------------------

@pytest.mark.parametrize("m,lower", [(1, math.log(2)), (10, math.log(11))])
def test_witness_fixtures(m, lower):
    bracket = ll.unboundedness_witness(m)
    assert bracket.lower == pytest.approx(lower, abs=1e-12)
    assert bracket.upper == pytest.approx(float(m), abs=1e-12)
    bracket.certificate.check_invariants()


def test_witness_monotone_and_diverging():
    lowers = [ll.unboundedness_witness(m).lower for m in (10, 100, 10**6)]
    assert lowers[0] < lowers[1] < lowers[2]
    assert lowers[-1] > 13.0


def test_witness_over_function_algebra():
    alg = ll.function_algebra(3, [(0, 1)])
    bracket = ll.unboundedness_witness(5, algebra=alg)
    assert bracket.lower == pytest.approx(math.log(6), abs=1e-12)
    assert bracket.upper == pytest.approx(5.0, abs=1e-12)


def test_corner_generator_requires_vanishing_trace():
    alg = ll.scalar_complex()
    with pytest.raises(ValueError, match="vanishing trace"):
        ElementaryGenerator("g", 3, ll.AlgebraElement(alg, 1.0 + 0j))
    # matrix-algebra commutators are admissible corner payloads
    algm = ll.matrix_algebra(2)
    rng = np.random.default_rng(6)
    x, y = algm.random_value(rng), algm.random_value(rng)
    payload = ll.AlgebraElement(algm, x @ y - y @ x)
    ElementaryGenerator("g", 3, payload)


def test_hs_determinant_of_empty_factorization_is_zero():
    alg = ll.scalar_complex()
    ident = ll.GroupElement(ll.MatrixOverAlgebra.identity(alg, 2), "GL")
    cert = ll.FactorizationCertificate.from_factors([], ident)
    value = ll.hs_determinant(cert)
    assert np.max(np.abs(value.raw)) == 0.0


def test_word_from_json_both_shapes():
    bare = [{"kind": "E", "i": 1, "j": 3, "a": [1.0, 0.0]}]
    word = elementary.word_from_json(bare)
    assert word[0].n == 3 and word[0].payload.algebra.kind == "scalar-complex"

    alg = ll.function_algebra(2, [(0, 1)])
    doc = {"algebra": {"kind": "functions-on-graph", "vertices": 2,
                       "edges": [[0, 1]]},
           "n": 2,
           "word": [{"kind": "E", "i": 1, "j": 2,
                     "a": [[0.5, 0.0], [1.0, 0.0]]}]}
    word = elementary.word_from_json(doc)
    g = ll.elementary_product(word)
    assert np.allclose(g.matrix.data[0, 1], [0.5, 1.0])
