"""The stacked exp/log kernels: pinned estimate bytes, the same bytes and
verdicts on any split of a stack, and no matrix objects on their path.

The pins were taken before the kernels lost their per-call overhead.  A
trial-by-trial reference (``tests/test_refine_stack.py``) calls the same
kernels, so it cannot see their bytes drift; these pins can."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lielength as ll
from lielength import acceptance, algebra, explength


# -- pinned bytes of el and rel -------------------------------------------------

def _pinned_elements():
    path = ll.function_algebra(5, [(i, i + 1) for i in range(4)])
    return {
        "gl2": acceptance.random_gl(2, np.random.default_rng(21)),
        "gl3": acceptance.random_gl(3, np.random.default_rng(22)),
        "real-gl3": ll.mat_exp(ll.MatrixOverAlgebra.random(
            ll.scalar_real(), 3, np.random.default_rng(23), scale=0.6)),
        "u3": acceptance.random_unitary(3, np.random.default_rng(24)),
        "path-gl2": ll.mat_exp(ll.MatrixOverAlgebra.random(
            path, 2, np.random.default_rng(25), scale=0.4)),
    }


# (sha256 of the el certificate's factor bytes, lower.hex(), upper.hex(),
#  rel.hex()) with the default budget, by element and seed
PINS = {
    "gl2/0": ("8bdf187abe16cc02ca28e73425ce187f5febcd59e4931fb494da1de1fbed888c",
              "0x1.f58cb0c7e6fb9p-1", "0x1.97499ee64887fp+1",
              "0x1.5554816f70a34p+1"),
    "gl2/1": ("c32221064733a72158689efd55a6d32cf307d8bc38fce735d392327c90fbd8f6",
              "0x1.f58cb0c7e6fb9p-1", "0x1.755b20f55c166p+1",
              "0x1.3d9357c377ca8p+1"),
    "gl3/0": ("84a2b31914de05ec381a59560b905ebb500ccaeb55d51dcd8d84e363cfda9613",
              "0x1.64a7eae9f9df6p+0", "0x1.070af544d5d3ap+2",
              "0x1.ce2df5e2276d9p+1"),
    "gl3/1": ("6d81363d333a737402e98e52e74337cb82984e697182983db3a103dc62ccdd77",
              "0x1.64a7eae9f9df6p+0", "0x1.fcd021374aa79p+1",
              "0x1.cd83a38ebc8e7p+1"),
    "real-gl3/0": (
        "30c7d3701cd309762eeaaf4ad9df22643efbd8ded25836d6bc9b002a67f5e7ec",
        "0x1.53f81d5791243p+0", "0x1.84ec407f5c6ffp+0",
        "0x1.4fff43b8867d2p+0"),
    "real-gl3/1": (
        "27dbc1f0aa715cb33be62d2b5a67638625d6aa593aaa689e7302384cb2af0d27",
        "0x1.53f81d5791243p+0", "0x1.c11028ead16b0p+0",
        "0x1.30a0dd3040fbbp+0"),
    "u3/0": ("0d7597915740110810fe0b0fbb54ca4ac1f75c7d6e2fe6928d6f03c919de653e",
             "0x1.3d0da5dae494ep+0", "0x1.3d0da5dae494ep+0",
             "0x1.3d0da5dae494ep+0"),
    "u3/1": ("0d7597915740110810fe0b0fbb54ca4ac1f75c7d6e2fe6928d6f03c919de653e",
             "0x1.3d0da5dae494ep+0", "0x1.3d0da5dae494ep+0",
             "0x1.3d0da5dae494ep+0"),
    "path-gl2/0": (
        "391c0fd39cf06833a80f3e61b8447cc68d6e5a9ca6923de50e40013ee82c617b",
        "0x1.1dcca95d0c607p+0", "0x1.e1f3e8443add2p+0",
        "0x1.b152bfc3fbf40p+0"),
    "path-gl2/1": (
        "c927ac346d1c760a236e801a4d6cb94d080a20c5a8e5daf5085716174d75b806",
        "0x1.1dcca95d0c607p+0", "0x1.f194d21414506p+0",
        "0x1.b7b0c83352ceap+0"),
}


@pytest.mark.parametrize("name", list(_pinned_elements()))
def test_el_and_rel_keep_their_pinned_bytes(name):
    g = _pinned_elements()[name]
    for seed in (0, 1):
        bracket = ll.el_estimate(g, seed=seed)
        rel = ll.rel_estimate(g, seed=seed)
        cert = hashlib.sha256(b"".join(
            x.data.tobytes() for x in bracket.certificate.factors)).hexdigest()
        got = (cert, bracket.lower.hex(), bracket.upper.hex(), rel.hex())
        assert got == PINS[f"{name}/{seed}"]


# -- the same bytes and verdicts on any split of a stack ----------------------------

ROTATION = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
SPECIAL = {
    "complex spectrum": 1.5 * ROTATION,
    "real spectrum": np.array([[2.0, 0.3], [0.1, 0.5]]),
    "unitary": ROTATION,
    "on the cut": np.diag([-2.0, 1.0]),
    "singular": np.diag([0.0, 1.0]),
    "defective": np.array([[1.0, 1.0], [0.0, 1.0]]),
    "ill-conditioned": np.array([[1.0, 1.0], [1e-14, 1.0]]),
    "non-finite": np.array([[np.inf, 0.0], [0.0, 1.0]]),
    "overflowing": np.array([[1e300, 1e300], [0.0, 1e-300]]),
}
ALGEBRAS = (ll.scalar_real(), ll.scalar_complex(), ll.matrix_algebra(2),
            ll.function_algebra(3, [(0, 1), (1, 2)]))


def _lifted(alg, m):
    """A 2x2 scalar matrix as data over ``alg``: m times the unit, with an
    infinite entry kept out of the unit's zeros."""
    m = np.asarray(m)[(...,) + (None,) * len(alg.value_shape())]
    return np.where(alg.unit_value().real != 0, m, 0.0).astype(alg.dtype)


def _element(alg, kind, rng):
    if kind == "random":
        x = ll.MatrixOverAlgebra.random(alg, 2, rng, scale=0.6)
        return ll.mat_exp(x).matrix.data
    return _lifted(alg, SPECIAL[kind])


def _verdicts(verdicts):
    return [None if v is None else (type(v), str(v)) for v in verdicts]


def _same(whole, parts):
    """Whole-stack arrays and verdict lists against those of the parts."""
    for got, *pieces in zip(whole, *parts):
        if isinstance(got, list):
            assert _verdicts(got) == _verdicts(sum(pieces, []))
        else:
            joined = np.concatenate(pieces)
            assert got.dtype == joined.dtype
            assert got.tobytes() == joined.tobytes()


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.sampled_from(ALGEBRAS),
       st.lists(st.sampled_from(["random"] * 4 + list(SPECIAL)), min_size=2,
                max_size=7),
       st.booleans(), st.data(), st.integers(0, 2**32 - 1))
def test_any_split_of_a_stack_gives_the_bytes_of_the_whole(alg, kinds,
                                                           unitary, data,
                                                           seed):
    """``stacked_logs``, ``round_trips``, ``mat_exps`` and
    ``_Summed.trial_values`` give each element the same bytes and verdict,
    type and message, whether its stack is taken whole or cut in two
    non-empty parts."""
    rng = np.random.default_rng(seed)
    flats = algebra.stack_to_flat(
        alg, np.stack([_element(alg, k, rng) for k in kinds]))
    cut = data.draw(st.integers(1, len(kinds) - 1))
    with np.errstate(all="ignore"):  # the warnings are not under test
        _check_split(alg, flats, cut, unitary, rng)


def _check_split(alg, flats, cut, unitary, rng):
    whole = algebra.stacked_logs(alg, 2, flats, unitary)
    _same(whole, [algebra.stacked_logs(alg, 2, flats[:cut], unitary),
                  algebra.stacked_logs(alg, 2, flats[cut:], unitary)])

    logs, _, targets = whole
    trips = algebra.round_trips(alg, 2, logs, targets)
    _same(trips, [algebra.round_trips(alg, 2, logs[:cut], targets[:cut]),
                  algebra.round_trips(alg, 2, logs[cut:], targets[cut:])])

    # exponentials of the logs, and of logs scaled until some overflow
    for scale in (1.0, 300.0):
        scaled = scale * logs
        _same(algebra.mat_exps(alg, 2, scaled),
              [algebra.mat_exps(alg, 2, scaled[:cut]),
               algebra.mat_exps(alg, 2, scaled[cut:])])

    # the logs as the two halves (X' of each trial, then Y') of a re-split
    trials = len(flats)
    stacked = np.concatenate([logs, logs[::-1]])
    base = [_element(alg, "random", rng) for _ in range(3)]
    for objective in (explength._sum_norms, explength._norm_of_sum):
        summed = explength._SUMMED[objective]
        terms = [summed.term(alg, d) for d in base]
        values, trial_terms = summed.trial_values(alg, 2, terms, 1, stacked)
        for part in (range(cut), range(cut, trials)):
            rows = list(part) + [trials + t for t in part]
            got, got_terms = summed.trial_values(alg, 2, terms, 1,
                                                 stacked[rows])
            assert got.tobytes() == values[list(part)].tobytes()
            assert got_terms.tobytes() == trial_terms[rows].tobytes()


# -- no matrix objects on the kernels' path ------------------------------------------

def test_the_stacked_kernels_build_no_matrix_object(monkeypatch):
    """A re-split and the kernels it calls, ``stacked_logs``,
    ``round_trips`` and ``mat_exps``, construct no ``MatrixOverAlgebra``:
    ``__post_init__`` is counted over calls on GL2, GL3, a real GL3, a
    unitary and a field over a path, the identity of each included."""
    elements = list(_pinned_elements().values())
    starts = []
    for g in elements:
        x = ll.mat_log(g)
        factors = [x.scaled(0.5)] * 2
        exps = np.stack([ll.mat_exp(y).matrix.to_flat() for y in factors])
        starts.append((g, exps))
    built = []
    init = algebra.MatrixOverAlgebra.__post_init__
    monkeypatch.setattr(algebra.MatrixOverAlgebra, "__post_init__",
                        lambda self: built.append(self) or init(self))
    for g, exps in starts:
        alg, n = g.algebra, g.n
        logs, targets, trials = explength._resplits(
            g, exps[0], exps[0] @ exps[1], 0.25, 6, np.random.default_rng(0))
        assert trials
        algebra.round_trips(alg, n, logs, targets)
        algebra.stacked_logs(alg, n, np.concatenate([exps, 1e3 * exps]),
                             g.group_tag == "U")
        algebra.mat_exps(alg, n, np.concatenate([logs, 1e3 * logs]))
    assert built == []


# -- numpy's linalg gufuncs, called directly --------------------------------------

@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(st.sampled_from([np.float64, np.complex128]), st.integers(1, 5),
       st.integers(1, 4),
       st.sampled_from(["generic", "symmetric", "triangular", "singular"]),
       st.integers(0, 2**32 - 1))
def test_the_stacked_linalg_calls_are_numpys_byte_for_byte(dtype, n, m,
                                                           kind, seed):
    """``eig_stack`` and ``inv_stack`` give the dtype, layout and bytes of
    ``np.linalg.eig`` and ``np.linalg.inv``, a real spectrum real, and an
    inverse of a singular matrix is the same LinAlgError."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n, n))
    if dtype == np.complex128:
        a = a + 1j * rng.standard_normal((m, n, n))
    if kind == "symmetric":
        a = a + a.conj().swapaxes(-1, -2)
    elif kind == "triangular":
        a = np.triu(a)
    elif kind == "singular":
        a[-1, :, 0] = 0.0
    for got, expected in zip(algebra.eig_stack(a), np.linalg.eig(a)):
        assert (got.dtype, got.shape, got.strides) == (
            expected.dtype, expected.shape, expected.strides)
        assert got.tobytes() == expected.tobytes()
    try:
        expected = np.linalg.inv(a)
    except np.linalg.LinAlgError as error:
        with pytest.raises(np.linalg.LinAlgError, match=str(error)):
            algebra.inv_stack(a)
    else:
        got = algebra.inv_stack(a)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


def test_the_identity_is_one_read_only_array_per_size():
    for alg in ALGEBRAS:
        ident = alg.identity_data(3)
        assert alg.identity_data(3) is ident
        assert not ident.flags.writeable
        assert np.array_equal(ident, ll.MatrixOverAlgebra.diagonal(
            alg, [alg.unit_value()] * 3).data)
        assert ident.dtype == alg.dtype
