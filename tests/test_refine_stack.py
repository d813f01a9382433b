"""The re-split trials of a pair as one stack: the same search as a
trial-by-trial loop, and a verdict per trial from the stacked log."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lielength as ll
from lielength import acceptance, algebra, explength


# -- the trial-by-trial reference ---------------------------------------------

def _sequential_direction(alg, n, rng, unitary):
    v = ll.MatrixOverAlgebra.random(alg, n, rng, scale=1.0)
    if unitary:
        v = (v - v.adjoint()).scaled(0.5)
    norm = v.op_norm()
    if norm == 0:
        return None
    return v.scaled(1.0 / norm)


def sequential_refine(factors, g, objective, budget, rng):
    """The coordinate descent with its re-split trials taken one at a time,
    each through its own exp and two ``mat_log`` calls."""
    tag = "U" if g.group_tag == "U" else "GL"
    best = list(factors)
    best_val = objective(best)
    exps = [ll.mat_exp(x).matrix for x in best]
    step = budget.init_step
    for _ in range(budget.iterations):
        improved = False
        for i in range(len(best) - 1):
            pair_product = exps[i] @ exps[i + 1]
            for _ in range(budget.trials):
                direction = _sequential_direction(g.algebra, g.n, rng,
                                                  tag == "U")
                if direction is None:
                    continue
                mid = exps[i] @ ll.mat_exp(direction.scaled(step)).matrix
                try:
                    x_new = ll.mat_log(ll.GroupElement(mid, tag,
                                                       validate=False))
                    y_new = ll.mat_log(ll.GroupElement(
                        mid.inverse() @ pair_product, tag, validate=False))
                except (ll.SpectrumOnCutError, ll.NumericFailureError):
                    continue
                candidate = best[:i] + [x_new, y_new] + best[i + 2:]
                val = objective(candidate)
                if val < best_val - 1e-12:
                    best, best_val, improved = candidate, val, True
                    exps[i:i + 2] = [ll.mat_exp(y).matrix
                                     for y in (x_new, y_new)]
                    break
        if not improved:
            step *= 0.5
            if step < budget.min_step:
                break
    return best, best_val


# -- starting points ------------------------------------------------------------

def _from_log(alg, n, rng, scale):
    x = ll.MatrixOverAlgebra.random(alg, n, rng, scale=scale)
    return ll.mat_exp(x), x


def _case(kind, rng):
    """(g, factors): an element and a factorization of it to refine."""
    if kind == "scalar-complex GL":
        g = acceptance.random_gl(int(rng.integers(2, 4)), rng)
        x = ll.mat_log(g)
    elif kind == "scalar-real GL":
        g, x = _from_log(ll.scalar_real(), int(rng.integers(2, 4)), rng, 0.6)
    elif kind == "matrix(k) U":
        g = acceptance.random_unitary(int(rng.integers(2, 5)), rng)
        x = ll.mat_log(g)
    else:
        g, x = _from_log(ll.function_algebra(3, [(0, 1), (1, 2)]), 2, rng,
                         0.4)
    parts = int(rng.integers(2, 4))
    return g, [x.scaled(1.0 / parts)] * parts


KINDS = ("scalar-complex GL", "scalar-real GL", "matrix(k) U",
         "functions GL")


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.sampled_from(KINDS), st.sampled_from([1, 3, 6]),
       st.sampled_from([explength._sum_norms, explength._norm_of_sum]),
       st.integers(0, 2**32 - 1))
def test_stacked_trials_follow_the_trial_by_trial_search(kind, trials,
                                                         objective, seed):
    """Same factor bytes, same value, and the generator left in the same
    state as the trial-by-trial loop."""
    g, factors = _case(kind, np.random.default_rng(seed))
    budget = ll.EstimateBudget(iterations=4, trials=trials)
    rng_ref = np.random.default_rng([seed, 1])
    rng = np.random.default_rng([seed, 1])
    ref, ref_val = sequential_refine(factors, g, objective, budget, rng_ref)
    got, got_val = explength._refine_factors(factors, g, objective, budget,
                                             rng)
    assert got_val == ref_val
    assert [x.data.tobytes() for x in got] == [x.data.tobytes() for x in ref]
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert len(got) == len(factors)


@pytest.mark.parametrize("objective", [explength._sum_norms,
                                       explength._norm_of_sum],
                         ids=["sum_norms", "norm_of_sum"])
@pytest.mark.parametrize("kind", KINDS)
def test_stacked_trial_values_are_the_objective_of_each_candidate(
        kind, objective):
    """The value of every trial of a pair, from the stacked logs, is the
    objective of that trial's candidate bit for bit, with the pair first,
    in the middle and last, over factors of unequal norms."""
    g, factors = _case(kind, np.random.default_rng(7))
    x = sum(factors[1:], factors[0])
    best = [x.scaled(a) for a in (0.1, 0.6, 0.05, 0.25)]
    summed = explength._SUMMED[objective]
    terms = [summed.term(g.algebra, y.data) for y in best]
    exps = np.stack([ll.mat_exp(y).matrix.to_flat() for y in best])
    count = 5
    for i in (0, 1, 2):
        logs, _, trials = explength._resplits(
            g, exps[i], exps[i] @ exps[i + 1], 0.25, count,
            np.random.default_rng(i))
        assert trials
        values, _ = summed.trial_values(g.algebra, g.n, terms, i, logs)
        for t in range(count):
            pair = [ll.MatrixOverAlgebra.from_flat(g.algebra, g.n, logs[u])
                    for u in (t, count + t)]
            alone = objective(best[:i] + pair + best[i + 2:])
            assert float(values[t]).hex() == alone.hex()


@pytest.mark.parametrize("alg, n", [
    (ll.scalar_complex(), 2), (ll.scalar_real(), 3), (ll.matrix_algebra(3), 2),
    (ll.function_algebra(4, [(0, 1)]), 2)], ids=lambda a: getattr(a, "kind", ""))
def test_one_draw_gives_the_stream_of_one_by_one_draws(alg, n):
    """Five matrices drawn at once are five drawn one by one, and each entry
    takes its real parts, then its imaginary ones, from the stream."""
    one_by_one = np.random.default_rng(9)
    stacked = np.random.default_rng(9)
    by_entry = np.random.default_rng(9)
    expected = [ll.MatrixOverAlgebra.random(alg, n, one_by_one).data
                for _ in range(5)]
    assert np.array_equal(algebra.random_stack(alg, n, 5, stacked), expected)
    assert stacked.bit_generator.state == one_by_one.bit_generator.state

    def entry():
        re = by_entry.standard_normal(alg.value_shape())
        if alg.dtype == np.float64:
            return re
        return re + 1j * by_entry.standard_normal(alg.value_shape())

    entries = np.stack([entry() for _ in range(5 * n * n)])
    assert np.array_equal(entries.reshape(np.shape(expected)), expected)


# -- verdicts per trial ------------------------------------------------------------

def _flats(elements):
    return np.stack([m.to_flat() for m in elements])


@pytest.mark.parametrize("alg", [
    ll.scalar_complex(), ll.scalar_real(), ll.function_algebra(3, [(0, 1)])],
    ids=lambda a: a.kind)
def test_a_trial_on_the_cut_refuses_only_itself(alg):
    """One element on the cut among admissible ones, some with a real and
    some with a complex spectrum, and a unitary one: only the element on the
    cut is refused, and every other log is the bytes of ``mat_log`` on that
    element alone."""
    rng = np.random.default_rng(2)
    rotation = np.array([[np.cos(0.4), -np.sin(0.4)],
                         [np.sin(0.4), np.cos(0.4)]])
    values = [1.5 * rotation, np.diag([2.0, 0.5]), np.diag([-2.0, 1.0]),
              ll.mat_exp(ll.MatrixOverAlgebra.random(alg, 2, rng, 0.3)),
              rotation]
    elements = []
    for v in values:
        if isinstance(v, ll.GroupElement):
            elements.append(v.matrix)
        else:
            data = np.asarray(v)[(...,) + (None,) * len(alg.value_shape())]
            elements.append(ll.MatrixOverAlgebra(
                alg, np.broadcast_to(data, (2, 2) + alg.value_shape())))
    logs, verdicts, targets = algebra.stacked_logs(alg, 2, _flats(elements),
                                                   unitary=False)
    exps, trips = algebra.round_trips(alg, 2, logs, targets)
    assert [v is None for v in verdicts] == [True, True, False, True, True]
    assert [trips[t] for t in (0, 1, 3, 4)] == [None] * 4
    assert isinstance(verdicts[2], ll.SpectrumOnCutError)
    assert "negative real axis" in str(verdicts[2])
    for t in (0, 1, 3, 4):
        alone = ll.mat_log(ll.GroupElement(elements[t], "GL", validate=False))
        assert logs[t].tobytes() == alone.to_flat().tobytes()
        assert np.array_equal(exps[t], ll.mat_exp(alone).matrix.to_flat())


def test_stacked_log_gives_the_reason_mat_log_gives():
    """A refused element's verdict is the error ``mat_log`` raises on it
    alone, type and message; a non-finite element is refused too."""
    alg = ll.scalar_real()
    elements = [np.diag([0.0, 1.0]), np.diag([-2.0, 1.0]),
                np.array([[0.0, -1.0], [1.0, 0.0]]) * 1.2]
    overflowed = np.array([[np.inf, 0.0], [0.0, 1.0]])
    logs, verdicts, targets = algebra.stacked_logs(
        alg, 2, np.stack(elements + [overflowed]), False)
    _, trips = algebra.round_trips(alg, 2, logs, targets)
    assert verdicts[2] is None and trips[2] is None
    assert isinstance(verdicts[3], ll.NumericFailureError)
    for m, verdict in zip(elements[:2], verdicts):
        g = ll.GroupElement(ll.MatrixOverAlgebra(alg, m), "GL", validate=False)
        with pytest.raises(type(verdict)) as raised:
            ll.mat_log(g)
        assert str(raised.value) == str(verdict)


def _failing_step(monkeypatch, trial):
    """Make the exponential of one trial's step fail."""
    exps = explength.mat_exps

    def failing(alg, n, flats):
        out, verdicts = exps(alg, n, flats)
        verdicts[trial] = ll.NumericFailureError("injected failure")
        return out, verdicts

    monkeypatch.setattr(explength, "mat_exps", failing)


def _always_shorter():
    """An objective each evaluation of which beats the last, so the first
    trial evaluated is accepted."""
    counter = itertools.count()
    return lambda factors: -float(next(counter))


def test_a_failing_trial_after_the_accepted_one_raises_nothing(monkeypatch):
    g = acceptance.random_gl(2, np.random.default_rng(4))
    x = ll.mat_log(g)
    _failing_step(monkeypatch, 1)
    budget = ll.EstimateBudget(iterations=1, trials=2)
    # trial 0 of each of the two pairs is accepted, and trial 1 is never
    # reached
    refined, _ = explength._refine_factors(
        [x.scaled(1 / 3)] * 3, g, _always_shorter(), budget,
        np.random.default_rng(0))
    assert len(refined) == 3
    assert explength.FactorizationCertificate.from_factors(
        refined, g).residual < 1e-10


def test_a_failing_trial_before_any_accepted_one_raises(monkeypatch):
    g = acceptance.random_gl(2, np.random.default_rng(4))
    x = ll.mat_log(g)
    _failing_step(monkeypatch, 0)
    budget = ll.EstimateBudget(iterations=1, trials=2)
    with pytest.raises(ll.NumericFailureError, match="injected"):
        explength._refine_factors([x.scaled(1 / 3)] * 3, g, _always_shorter(),
                                  budget, np.random.default_rng(0))


def _recorded_round_trips(monkeypatch, fail_first=0):
    """Record the stack size and verdicts of each round trip the sweep
    takes; the first ``fail_first`` of them are made to fail."""
    calls = []
    trips = explength.round_trips

    def recorded(alg, n, logs, targets):
        exps, verdicts = trips(alg, n, logs, targets)
        if len(calls) < fail_first:
            verdicts[0] = ll.NumericFailureError("injected miss")
        calls.append((len(logs), list(verdicts)))
        return exps, verdicts

    monkeypatch.setattr(explength, "round_trips", recorded)
    return calls


def test_each_accepted_re_split_takes_one_two_element_round_trip(
        monkeypatch):
    """With every trial shortening the objective, each pair visit accepts
    its first trial: one round trip of two logs per accepted re-split, none
    for the trials after it.  With no trial shortening it, none at all."""
    g = acceptance.random_gl(2, np.random.default_rng(4))
    x = ll.mat_log(g)
    calls = _recorded_round_trips(monkeypatch)
    budget = ll.EstimateBudget(iterations=3, trials=6)
    factors = [x.scaled(0.25)] * 4
    explength._refine_factors(factors, g, _always_shorter(), budget,
                              np.random.default_rng(0))
    assert calls == [(2, [None, None])] * (budget.iterations * 3)
    calls.clear()
    refined, _ = explength._refine_factors(factors, g, lambda f: 0.0, budget,
                                           np.random.default_rng(0))
    assert refined == factors and calls == []


def test_a_failed_round_trip_passes_the_win_to_the_next_shorter_trial(
        monkeypatch):
    """The first shortening trial's round trip is made to fail: the next
    shortening trial is accepted with its own logs, and the generator is
    left just after its draw."""
    g = acceptance.random_gl(2, np.random.default_rng(4))
    x = ll.mat_log(g)
    factors = [x.scaled(0.5)] * 2
    budget = ll.EstimateBudget(iterations=1, trials=4)
    exps = np.stack([ll.mat_exp(y).matrix.to_flat() for y in factors])
    logs, _, trials = explength._resplits(g, exps[0], exps[0] @ exps[1],
                                          budget.init_step, budget.trials,
                                          np.random.default_rng(0))
    assert trials == [(t, None) for t in range(4)]
    calls = _recorded_round_trips(monkeypatch, fail_first=1)
    rng = np.random.default_rng(0)
    refined, _ = explength._refine_factors(factors, g, _always_shorter(),
                                           budget, rng)
    assert [verdicts[0] is None for _, verdicts in calls] == [False, True]
    assert [y.data.tobytes() for y in refined] == [
        ll.MatrixOverAlgebra.from_flat(g.algebra, g.n, logs[u]).data.tobytes()
        for u in (1, budget.trials + 1)]
    after_two = np.random.default_rng(0)
    algebra.random_stack(g.algebra, g.n, 2, after_two)
    assert rng.bit_generator.state == after_two.bit_generator.state


def test_a_singular_slice_inverts_to_nan_alone():
    rng = np.random.default_rng(1)
    stack = rng.standard_normal((3, 2, 2))
    stack[1] = [[1.0, 2.0], [2.0, 4.0]]
    out = explength._inverses(stack)
    assert np.isnan(out[1]).all()
    for t in (0, 2):
        assert np.array_equal(out[t], np.linalg.inv(stack[t]))


# -- redundant starts --------------------------------------------------------------

def _redundant_starts(kind, seed):
    """(g, starts): an element exp X and two factorizations of it with
    cancelling factors, [2X, -X] and [X, X/2, -X/2]."""
    g, factors = _case(kind, np.random.default_rng(seed))
    x = sum(factors[1:], factors[0])
    return g, [[x.scaled(2.0), -x], [x, x.scaled(0.5), x.scaled(-0.5)]]


@pytest.mark.parametrize("objective", [explength._sum_norms,
                                       explength._norm_of_sum],
                         ids=["sum_norms", "norm_of_sum"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_merge_down_to_one_factor_follows_the_trial_by_trial_search(
        kind, objective):
    """Starts whose factors merge down to one, [2X, -X] and
    [X, X/2, -X/2], follow the trial-by-trial search; a sweep only
    re-splits, so they keep their factor count."""
    g, starts = _redundant_starts(kind, 5)
    for factors in starts:
        budget = ll.EstimateBudget(iterations=6, trials=3)
        rng_ref = np.random.default_rng(11)
        rng = np.random.default_rng(11)
        ref, ref_val = sequential_refine(factors, g, objective, budget,
                                         rng_ref)
        got, got_val = explength._refine_factors(factors, g, objective,
                                                 budget, rng)
        assert got_val == ref_val
        assert [x.data.tobytes() for x in got] == [
            x.data.tobytes() for x in ref]
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        assert len(got) == len(factors)


def test_the_sweep_takes_no_log_or_exp_of_its_own(monkeypatch):
    """Re-splits take their logs and exponentials from the stacked calls
    alone: with ``mat_log`` refusing every call, the search keeps its bytes,
    and ``mat_exp`` runs once per starting factor."""
    g, starts = _redundant_starts("scalar-complex GL", 3)
    budget = ll.EstimateBudget(iterations=6, trials=3)
    expected = [explength._refine_factors(f, g, explength._sum_norms, budget,
                                          np.random.default_rng(2))[0]
                for f in starts]

    def refuse(*args):
        raise ll.NumericFailureError("no single log in the sweep")

    monkeypatch.setattr(explength, "mat_log", refuse)
    exp_calls = []
    monkeypatch.setattr(explength, "mat_exp",
                        lambda x: exp_calls.append(x) or ll.mat_exp(x))
    for factors, ref in zip(starts, expected):
        got, _ = explength._refine_factors(factors, g, explength._sum_norms,
                                           budget, np.random.default_rng(2))
        assert [x.data.tobytes() for x in got] == [
            x.data.tobytes() for x in ref]
    assert len(exp_calls) == sum(len(f) for f in starts)


def test_one_factor_is_returned_untouched(monkeypatch):
    g = acceptance.random_gl(3, np.random.default_rng(6))
    x = ll.mat_log(g)

    def refuse(*args):
        raise AssertionError("one factor needs no exponential")

    monkeypatch.setattr(explength, "mat_exp", refuse)
    rng = np.random.default_rng(8)
    before = rng.bit_generator.state
    for objective in (explength._sum_norms, explength._norm_of_sum):
        got, val = explength._refine_factors([x], g, objective,
                                             ll.EstimateBudget(), rng)
        assert got == [x] and val == objective([x])
    assert rng.bit_generator.state == before
