"""Elementary generators, bracket identities, the span decomposition, the
factorization invariant, contractions, and unboundedness witnesses."""

import math

import numpy as np
import pytest

import lielength as ll
from lielength import elementary
from lielength.elementary import gen_E, gen_e, gen_f, gen_g

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
    word = [gen_E(1, 2, ll.AlgebraElement(alg, a), 2),
            gen_E(1, 2, ll.AlgebraElement(alg, b), 2)]
    g = ll.elementary_product(word)
    expected = gen_E(1, 2, ll.AlgebraElement(alg, a + b), 2).matrix()
    assert (g.matrix - expected).op_norm() <= 1e-12
    assert g.group_tag == "En"


def test_elementary_product_dense_fixture():
    alg = ll.scalar_complex()
    a, b = 2.0 + 0j, -1.0 + 1j
    word = [gen_E(1, 2, ll.AlgebraElement(alg, a), 2),
            gen_E(2, 1, ll.AlgebraElement(alg, b), 2)]
    g = ll.elementary_product(word)
    expected = np.array([[1 + a * b, a], [b, 1]], dtype=complex)
    assert np.allclose(g.matrix.data, expected, atol=1e-12)


def test_elementary_product_empty_word_is_identity():
    alg = ll.scalar_complex()
    g = ll.elementary_product([], algebra=alg, n=3)
    ident = ll.MatrixOverAlgebra.identity(alg, 3)
    assert (g.matrix - ident).op_norm() == 0.0
    assert g.group_tag == "En"
    with pytest.raises(ValueError):
        ll.elementary_product([])


def test_elementary_product_rejects_lie_kinds():
    alg = ll.scalar_complex()
    with pytest.raises(ValueError):
        ll.elementary_product([gen_e(1, 2, ll.AlgebraElement(alg, 1.0), 2)])


# -- bracket identities ----------------------------------------------------------

def test_bracket_identity_unit_payload():
    alg = ll.scalar_complex()
    one = ll.AlgebraElement(alg, 1.0 + 0j)
    lhs = gen_f(1, 2, one, 2).matrix()
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
    ctx = ll.HSDeterminantContext(alg)
    rng = np.random.default_rng(2)
    x = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.5)
    x = x - ll.MatrixOverAlgebra.single_entry(alg, 2, 1, 1, x.trace_sum().value)
    g = ll.mat_exp(x)
    cert = ll.FactorizationCertificate.from_factors([x], g)
    value = ll.hs_determinant(cert, ctx)
    assert np.max(np.abs(value.raw)) <= 1e-12
    assert np.max(np.abs(value.reduced)) <= 1e-12


def test_hs_determinant_full_turn_reduces_to_zero():
    alg = ll.scalar_complex()
    ctx = ll.HSDeterminantContext(alg)
    x = ll.MatrixOverAlgebra(alg, np.diag([2j * math.pi, 0.0 + 0j]))
    g = ll.mat_exp(x)  # the identity, reached the long way
    cert = ll.FactorizationCertificate.from_factors([x], g)
    value = ll.hs_determinant(cert, ctx)
    assert np.max(np.abs(value.raw - 2j * math.pi)) <= 1e-12
    assert np.max(np.abs(value.reduced)) <= 1e-12
    assert value.lattice_coefficients == [1]


def test_hs_determinant_factorization_invariance():
    alg = ll.scalar_complex()
    ctx = ll.HSDeterminantContext(alg)
    rng = np.random.default_rng(3)
    for idx in range(20):
        x = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.6)
        g = ll.mat_exp(x)
        cert_a = ll.FactorizationCertificate.from_factors([x], g)
        bracket = ll.el_estimate(g, seed=idx)
        cert_b = bracket.certificate
        da = ll.hs_determinant(cert_a, ctx)
        db = ll.hs_determinant(cert_b, ctx)
        diff, _ = elementary.reduce_mod_lattice(da.raw - db.raw, ctx.lattice)
        assert np.max(np.abs(diff)) <= 1e-8


def test_hs_determinant_vanishes_on_elementary_words():
    alg = ll.scalar_complex()
    ctx = ll.HSDeterminantContext(alg)
    rng = np.random.default_rng(4)
    for _ in range(30):
        word = []
        for _ in range(int(rng.integers(1, 5))):
            i, j = rng.permutation(3)[:2] + 1
            word.append(gen_E(int(i), int(j), elem(alg, rng=rng), 3))
        cert = elementary.word_certificate(word)
        value = ll.hs_determinant(cert, ctx)
        assert np.max(np.abs(value.raw)) <= 1e-12


def test_trace_vanishes_on_commutators():
    rng = np.random.default_rng(5)
    for alg in ALGEBRAS:
        ctx = ll.HSDeterminantContext(alg)
        assert ctx.check_tracial(rng) <= 1e-10


def test_function_algebra_lattice_per_component():
    alg = ll.function_algebra(5, [(0, 1), (1, 2), (3, 4)])
    ctx = ll.HSDeterminantContext(alg)
    assert len(ctx.lattice) == 2
    for gen in ctx.lattice:
        assert np.max(np.abs(gen)) == pytest.approx(2 * math.pi, abs=1e-12)


# -- conjugation contraction ---------------------------------------------------------

def test_contraction_lambda_one_is_identity_conjugation():
    alg = ll.scalar_complex()
    a = elem(alg, 1.5 + 0.5j)
    g, dist = ll.conjugation_contraction(1.0, a, (1, 3))
    expected = gen_E(1, 3, a, 3).matrix()
    assert (g.matrix - expected).op_norm() <= 1e-12
    assert dist == pytest.approx(abs(1.5 + 0.5j), abs=1e-12)


@pytest.mark.parametrize("slot", elementary.CONTRACTION_SLOTS)
def test_contraction_scales_payload_by_lambda_squared(slot):
    alg = ll.scalar_complex()
    a = elem(alg, 2.0 + 0j)
    g, dist = ll.conjugation_contraction(0.1, a, slot)
    i, j = slot
    assert g.matrix.data[i - 1, j - 1] == pytest.approx(0.01 * 2.0, abs=1e-14)
    assert dist == pytest.approx(0.02, abs=1e-12)


def test_contraction_geometric_decay():
    alg = ll.scalar_complex()
    a = elem(alg, 1.0 + 0j)
    dists = []
    for m in range(1, 6):
        _, dist = ll.conjugation_contraction(2.0 ** (-m), a, (2, 3))
        dists.append(dist)
    ratios = [dists[k + 1] / dists[k] for k in range(len(dists) - 1)]
    assert all(r == pytest.approx(0.25, abs=1e-12) for r in ratios)


def test_contraction_rejects_zero_lambda():
    alg = ll.scalar_complex()
    with pytest.raises(ValueError):
        ll.conjugation_contraction(0.0, elem(alg, 1.0), (1, 3))


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
        gen_g(ll.AlgebraElement(alg, 1.0 + 0j), 3)
    # matrix-algebra commutators are admissible corner payloads
    algm = ll.matrix_algebra(2)
    rng = np.random.default_rng(6)
    x, y = algm.random_value(rng), algm.random_value(rng)
    payload = ll.AlgebraElement(algm, x @ y - y @ x)
    gen_g(payload, 3)


def test_hs_determinant_of_empty_factorization_is_zero():
    alg = ll.scalar_complex()
    ctx = ll.HSDeterminantContext(alg)
    ident = ll.GroupElement(ll.MatrixOverAlgebra.identity(alg, 2), "GL")
    cert = ll.FactorizationCertificate.from_factors([], ident)
    value = ll.hs_determinant(cert, ctx)
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
