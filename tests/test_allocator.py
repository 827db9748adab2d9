"""Water-filling solver vs. the independent projected-gradient oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cme.allocator import (
    DegenerateWeightsError,
    WeightedChannels,
    _candidates,
    _water_fill_sparse,
    rates_with,
    water_fill,
)
from cme.kernels import DelayParams, InvalidInputError
from cme.market import BUDGET_TOL
from oracles import (
    gradient_oracle,
    gradient_oracle_batch,
    kkt_residuals,
    project_budget_box,
    water_fill_batch,
    water_fill_rows,
    water_fill_rows_sorted,
)


def random_instance(rng, n_max=50):
    """A random channel set: mixed magnitudes, some exactly-zero weights."""
    n = int(rng.integers(1, n_max + 1))
    w = rng.uniform(0.0, 2.0, n) * 10.0 ** rng.integers(-2, 2, n)
    w[rng.uniform(size=n) < 0.15] = 0.0
    if not np.any(w > 0):
        w[int(rng.integers(0, n))] = 1.0
    budget = float(rng.uniform(0.1, 10.0))
    beta = float(rng.uniform(0.3, 3.0))
    return WeightedChannels(weights=w, budget=budget), DelayParams(beta=beta)


class TestWaterFill:
    def test_uniform_weights_split_evenly(self):
        ch = WeightedChannels(weights=np.ones(8), budget=2.0)
        sol = water_fill(ch, DelayParams(beta=1.0))
        np.testing.assert_allclose(sol.rates, 0.25, atol=1e-12)

    def test_single_positive_channel_takes_everything(self):
        ch = WeightedChannels(weights=np.array([3.0, 0.0, 0.0]), budget=1.5)
        sol = water_fill(ch, DelayParams(beta=2.0))
        np.testing.assert_allclose(sol.rates, [1.5, 0.0, 0.0], atol=1e-12)

    def test_large_budget_single_channel_takes_everything(self):
        # nu = exp(-150) and below: out of reach of a linear-scale search on nu
        for budget in (150.0, 1000.0):
            ch = WeightedChannels(weights=np.array([1.0, 0.0]), budget=budget)
            sol = water_fill(ch, DelayParams(beta=1.0))
            np.testing.assert_array_equal(sol.rates, [budget, 0.0])

    def test_log_multiplier_survives_underflow(self):
        # log nu = (log(beta * 1) - beta * M) / 1 = -1000; nu itself underflows
        sol = water_fill(WeightedChannels(weights=np.array([1.0, 0.0]), budget=1000.0),
                         DelayParams(beta=1.0))
        assert sol.log_multiplier == pytest.approx(-1000.0, rel=1e-9)
        assert sol.multiplier == math.exp(sol.log_multiplier)

    def test_two_channel_corner_closed_form(self):
        # beta=1, w=(1, 0.2), M=1.  The interior candidate would need
        # log(w1*w2) - 2*log(nu) = M, i.e. nu ~ 0.271, but then channel 2's
        # rate log(0.2/0.271) < 0 -- so the corner is optimal: mu = (M, 0)
        # and nu = w1 * delta'(M) = exp(-1).
        ch = WeightedChannels(weights=np.array([1.0, 0.2]), budget=1.0)
        sol = water_fill(ch, DelayParams(beta=1.0))
        np.testing.assert_allclose(sol.rates, [1.0, 0.0], atol=1e-11)
        assert abs(sol.multiplier - math.exp(-1.0)) < 1e-10
        oracle = gradient_oracle(ch, DelayParams(beta=1.0))
        assert abs(sol.objective - oracle.objective) <= 1e-6 * max(1.0, sol.objective)

    def test_two_channel_interior_closed_form(self):
        # beta=1, w=(1, 0.5), M=2: both channels active, so
        # log(nu) = (log(w1*w2) - M)/2 and mu_i = log(w_i/nu).
        ch = WeightedChannels(weights=np.array([1.0, 0.5]), budget=2.0)
        sol = water_fill(ch, DelayParams(beta=1.0))
        log_nu = (math.log(0.5) - 2.0) / 2.0
        np.testing.assert_allclose(
            sol.rates, [-log_nu, math.log(0.5) - log_nu], atol=1e-11)
        assert abs(sol.multiplier - math.exp(log_nu)) < 1e-10

    def test_budget_always_binds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ch, d = random_instance(rng)
            sol = water_fill(ch, d)
            assert abs(sol.rates.sum() - ch.budget) < 1e-12 * ch.budget

    @pytest.mark.parametrize("beta", 10.0 ** np.arange(-17, 4))
    def test_budget_kept_however_small_beta_m(self, beta):
        # |log(beta * w)| reaches 39 while beta * M falls to 1e-17: a level
        # log(beta) - beta * M would round back to log(beta) and the rates
        # lose the budget (0 at beta = 1e-15); the second channel is
        # active only once beta * M > log 2
        sol = water_fill(WeightedChannels(np.array([1.0, 0.5]), 1.0), DelayParams(beta))
        assert abs(sol.rates.sum() - 1.0) <= BUDGET_TOL
        if beta < math.log(2.0):
            np.testing.assert_array_equal(sol.rates, [1.0, 0.0])

    def test_budget_kept_in_rows_at_every_scale(self):
        # one active channel gets exactly M; the rows of several active
        # channels keep the budget to BUDGET_TOL
        rng = np.random.default_rng(24)
        for _ in range(200):
            k, n = int(rng.integers(1, 8)), int(rng.integers(1, 12))
            beta = float(10.0 ** rng.uniform(-17.0, 3.0))
            budget = float(rng.uniform(0.1, 10.0))
            W = rng.uniform(0.0, 3.0, (k, n)) * 10.0 ** rng.uniform(-3, 3, (k, n))
            W[rng.uniform(size=W.shape) < 0.2] = 0.0
            W[np.max(W, axis=1) == 0.0, 0] = 1.0
            # near-ties that stay active at tiny beta * M
            W[:, -1] = W.max(axis=1) * (1.0 - rng.uniform(0.0, min(2.0 * beta * budget, 1.0), k))
            lone = np.zeros(n)
            lone[int(rng.integers(0, n))] = float(rng.uniform(0.1, 3.0))
            W[0] = lone
            rates, _ = water_fill_rows(W, budget, beta)
            assert rates[0].sum() == budget and np.count_nonzero(rates[0]) == 1
            assert np.all(np.abs(rates.sum(axis=1) - budget) <= BUDGET_TOL)

    def test_kkt_residuals_tiny(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            ch, d = random_instance(rng)
            res = kkt_residuals(water_fill(ch, d), ch, d)
            assert max(res.values()) < 1e-9, res

    def test_zero_weight_channels_get_exactly_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ch, d = random_instance(rng)
            sol = water_fill(ch, d)
            assert np.all(sol.rates[ch.weights == 0.0] == 0.0)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(6)
        for scale in (1e-3, 0.5, 7.0, 1e4):
            ch, d = random_instance(rng)
            scaled = WeightedChannels(weights=scale * ch.weights, budget=ch.budget)
            a, b = water_fill(ch, d), water_fill(scaled, d)
            np.testing.assert_allclose(a.rates, b.rates, atol=1e-9)
            assert abs(b.multiplier - scale * a.multiplier) < 1e-9 * scale * a.multiplier

    def test_all_zero_weights_is_degenerate(self):
        ch = WeightedChannels(weights=np.zeros(4), budget=1.0)
        with pytest.raises(DegenerateWeightsError):
            water_fill(ch, DelayParams())
        with pytest.raises(DegenerateWeightsError):
            gradient_oracle(ch, DelayParams())
        with pytest.raises(DegenerateWeightsError):
            water_fill_batch(np.zeros((3, 4)), 1.0, DelayParams())

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            WeightedChannels(weights=np.array([1.0, -0.1]), budget=1.0)
        with pytest.raises(InvalidInputError):
            WeightedChannels(weights=np.array([1.0]), budget=0.0)


class TestMutualConsistency:
    def test_water_fill_against_gradient_oracle(self):
        rng = np.random.default_rng(7)
        instances = [random_instance(rng) for _ in range(60)]
        for (ch, d), go in zip(instances, gradient_oracle_batch(instances)):
            wf = water_fill(ch, d)
            scale = max(1.0, abs(wf.objective))
            # neither route may beat the other beyond tolerance
            assert wf.objective >= go.objective - 1e-6 * scale
            assert abs(wf.objective - go.objective) <= 1e-6 * scale

    def test_oracle_batch_rows_match_single_runs(self):
        # a row padded with zero-weight channels runs as it would alone
        rng = np.random.default_rng(15)
        instances = [random_instance(rng, n_max=12) for _ in range(12)]
        for (ch, d), go in zip(instances, gradient_oracle_batch(instances, iters=300)):
            alone = gradient_oracle(ch, d, iters=300)
            assert go.rates.shape == (ch.n,)
            np.testing.assert_allclose(go.rates, alone.rates, rtol=0.0, atol=1e-12 * ch.budget)
            assert go.objective == pytest.approx(alone.objective, rel=1e-12)
            assert np.all(go.rates[ch.weights == 0.0] == 0.0)

    def test_oracle_zero_weight_channels_stay_near_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            ch, d = random_instance(rng)
            go = gradient_oracle(ch, d)
            assert np.all(go.rates[ch.weights == 0.0] <= 1e-9)


class TestBatch:
    def test_batch_matches_scalar_rows(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            k, n = int(rng.integers(1, 8)), int(rng.integers(1, 12))
            W = rng.uniform(0.0, 3.0, (k, n))
            W[rng.uniform(size=W.shape) < 0.2] = 0.0
            W[np.max(W, axis=1) == 0.0, 0] = 1.0
            budget = float(rng.uniform(0.2, 5.0))
            d = DelayParams(beta=float(rng.uniform(0.4, 2.5)))
            rates, log_nu = water_fill_rows(W, budget, d.beta)
            old_rates, old_log_nu = water_fill_rows_sorted(W, budget, d.beta)
            assert np.array_equal(rates, old_rates) and np.array_equal(log_nu, old_log_nu)
            for i in range(k):
                sol = water_fill(WeightedChannels(weights=W[i], budget=budget), d)
                np.testing.assert_allclose(rates[i], sol.rates, atol=1e-10)
                assert abs(np.exp(log_nu[i]) - sol.multiplier) < 1e-9 * sol.multiplier


def candidate_stack(rng, kind, shape):
    """A (k, n) weight stack, every row holding a positive weight: exact ties
    with zeros among them, all-equal rows (every channel a candidate), one
    lone positive weight, weights over 600 decades, or the consumers' shape
    at an equilibrium, one or two weights far above the rest."""
    k, n = shape
    if kind == "ties":
        W = rng.choice([0.0, 0.5, 1.0, 2.0], shape)
    elif kind == "equal":
        W = np.tile(rng.uniform(0.1, 2.0, (k, 1)), (1, n))
    elif kind == "lone":
        W = np.zeros(shape)
        W[np.arange(k), rng.integers(0, n, k)] = rng.uniform(0.1, 2.0, k)
    elif kind == "decades":
        W = 10.0 ** rng.uniform(-300.0, 300.0, shape)
    else:  # "peaked"
        W = rng.uniform(0.0, 1.0, shape) * (rng.uniform(size=shape) < 0.7)
        W[np.arange(k)[:, None], rng.integers(0, n, (k, 2))] *= 10.0 ** rng.uniform(1, 4, (k, 2))
    W[np.max(W, axis=1) == 0.0, 0] = 1.0
    return W


CANDIDATE_KINDS = ("ties", "equal", "lone", "decades", "peaked")


class TestCandidateSort:
    """Sorting only the candidates returns the full sort's floats."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (1, 1002), (7, 40), (64, 1002)])
    @pytest.mark.parametrize("kind", CANDIDATE_KINDS)
    def test_matches_the_full_sort_bit_for_bit(self, kind, shape):
        rng = np.random.default_rng([23, CANDIDATE_KINDS.index(kind), *shape])
        # beta * M from 1e-3 to 1e3; exp(-beta * M) underflows past about 745
        for bm in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 744.0, 746.0, 1e3):
            W = candidate_stack(rng, kind, shape)
            beta = float(rng.uniform(0.3, 3.0))
            rates, log_nu = water_fill_rows(W, bm / beta, beta)
            old_rates, old_log_nu = water_fill_rows_sorted(W, bm / beta, beta)
            assert np.array_equal(rates, old_rates), (kind, bm)
            assert np.array_equal(log_nu, old_log_nu), (kind, bm)
            if kind == "equal":  # K = N: every channel is a candidate and active
                assert np.all(_candidates(W, W.max(axis=1), bm)) and np.all(rates > 0.0)

    def test_a_channel_just_above_the_bound_stays_active(self):
        # with w = (1, exp(-beta * M) * (1 + eps)) the second channel is
        # active, at a rate of about eps / (2 * beta), for every eps > 0
        for bm in (1e-3, 1.0, 30.0, 700.0):
            for eps in (1e-8, 1e-6, 1e-3):
                W = np.array([[1.0, math.exp(-bm) * (1.0 + eps)]])
                rates, log_nu = water_fill_rows(W, bm / 2.0, 2.0)
                old_rates, old_log_nu = water_fill_rows_sorted(W, bm / 2.0, 2.0)
                assert np.array_equal(rates, old_rates) and np.array_equal(log_nu, old_log_nu)
                assert rates[0, 1] == pytest.approx(eps / 4.0, rel=1e-3)

    def test_zero_weights_stay_out_once_the_bound_underflows(self):
        # top * exp(-1000) is 0, but the floor stays at the smallest
        # positive float: the zero weights are no candidates, the sort
        # takes two channels, and the rates are the full sort's
        W = np.array([[1.0, 0.0, 0.5, 0.0]])
        for beta in (0.5, 1.0, 4.0):
            assert np.array_equal(_candidates(W, W.max(axis=1), 1000.0),
                                  [[True, False, True, False]])
            flat, _, _ = _water_fill_sparse(W, 1000.0 / beta, beta)
            assert flat.tolist() == [0, 2]
            rates, log_nu = water_fill_rows(W, 1000.0 / beta, beta)
            old_rates, old_log_nu = water_fill_rows_sorted(W, 1000.0 / beta, beta)
            assert np.array_equal(rates, old_rates) and np.array_equal(log_nu, old_log_nu)
        tiny = np.array([[5e-324, 0.0]])  # a subnormal top stays a candidate
        assert np.array_equal(_candidates(tiny, tiny.max(axis=1), 1000.0), [[True, False]])

    @pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
    def test_a_row_of_tiny_weights_splits_as_its_normal_copy(self, beta):
        # 2**-1074 * (3, 2, 1, 0) is exact, the smallest subnormals, and the
        # same split; beta * w would round them
        W = np.array([[3.0, 2.0, 1.0, 0.0]])
        rates, log_nu = water_fill_rows(W, 4.0, beta)
        tiny_rates, tiny_log_nu = water_fill_rows(np.ldexp(W, -1074), 4.0, beta)
        assert np.array_equal(tiny_rates, rates)  # every w / max(w) is the same float
        assert tiny_rates[0, 3] == 0.0 and tiny_rates.sum() == pytest.approx(4.0, rel=1e-14)
        assert tiny_log_nu[0] == pytest.approx(log_nu[0] - 1074 * math.log(2.0), rel=1e-14)

    @settings(max_examples=150, deadline=None, database=None)
    @given(W=arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 24)),
                    elements=st.floats(0.0, 1e300) | st.sampled_from([0.0, 1.0])),
           bm=st.floats(1e-3, 1e3), beta=st.floats(0.1, 10.0))
    # a subnormal max: its bound rounds back up to it; beta * w underflows
    # to 0; the second weight's bound rounds up to it, and >= keeps it;
    # beta * max(w) is normal but max(w) is not; beta * max(w) overflows
    @example(W=np.array([[5e-324]]), bm=0.5, beta=1.0)
    @example(W=np.array([[5e-324]]), bm=1.0, beta=0.5)
    @example(W=np.array([[1.5e-323, 1e-323]]), bm=0.5, beta=1.0)
    @example(W=np.array([[5e-324, 0.0]]), bm=0.5, beta=10.0)
    @example(W=np.array([[1e308, 5e307, 0.0]]), bm=10.0, beta=10.0)
    def test_candidates_hold_the_active_set(self, W, bm, beta):
        W[np.max(W, axis=1) == 0.0, 0] = 1.0
        old_rates, old_log_nu = water_fill_rows_sorted(W, bm / beta, beta)
        assert np.all(np.isfinite(old_log_nu))
        assert np.all(_candidates(W, W.max(axis=1), bm)[old_rates > 0.0])
        rates, log_nu = water_fill_rows(W, bm / beta, beta)
        assert np.array_equal(rates, old_rates) and np.array_equal(log_nu, old_log_nu)


def bisection_reference(W, budget, beta):
    """Row-wise log-domain bisection on nu: the reference for the closed form."""
    with np.errstate(divide="ignore"):
        logbw = np.log(beta * W)

    def spent(log_nu):
        return np.sum(np.maximum(0.0, logbw - log_nu[:, None]), axis=1) / beta

    hi = np.max(logbw, axis=1)
    lo = hi - beta * budget - 1.0  # the top channel alone overspends here
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        over = spent(mid) > budget
        lo, hi = np.where(over, mid, lo), np.where(over, hi, mid)
    log_nu = 0.5 * (lo + hi)
    return np.maximum(0.0, logbw - log_nu[:, None]) / beta, np.exp(log_nu)


class TestAgainstBisection:
    def test_closed_form_matches_bisection(self):
        # 200 batches x 10 rows: zero weights, magnitudes 1e-3..1e3,
        # beta*M from 1e-2 to 1e2
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 51))
            W = rng.uniform(0.0, 1.0, (10, n)) * 10.0 ** rng.uniform(-3, 3, (10, n))
            W[rng.uniform(size=W.shape) < 0.2] = 0.0
            W[np.max(W, axis=1) == 0.0, int(rng.integers(0, n))] = 1.0
            beta = float(rng.uniform(0.2, 5.0))
            budget = 10.0 ** float(rng.uniform(-2, 2)) / beta
            rates, log_nu = water_fill_rows(W, budget, beta)
            ref_rates, ref_nu = bisection_reference(W, budget, beta)
            np.testing.assert_allclose(rates, ref_rates, rtol=0.0, atol=1e-10 * budget)
            np.testing.assert_allclose(np.exp(log_nu), ref_nu, rtol=1e-9)


def rates_with_row(rng, kind, n):
    """Weights, budget and beta of one ``rates_with`` test row; the kinds
    are exact ties, zero weights, one lone positive weight, weights over
    600 decades, beta * M past 745, where nu = exp(log nu) underflows, and
    beta * M down to 1e-15 with two near-tied channels on top, where logs
    of beta * w would be about 35 and lose the budget."""
    beta = float(rng.uniform(0.3, 3.0))
    budget = float(rng.uniform(0.1, 10.0))
    if kind == "ties":
        w = rng.choice([0.5, 1.0, 2.0], n)
    elif kind == "zeros":
        w = rng.uniform(0.0, 2.0, n) * (rng.uniform(size=n) < 0.4)
    elif kind == "lone":
        w = np.zeros(n)
        w[rng.integers(n)] = float(rng.uniform(0.1, 2.0))
    elif kind == "decades":
        # the closed form rounds log nu by about eps * max |log(beta * w)|,
        # up to 1.5e-13 here, so beta * M stays at 1 or more
        w = 10.0 ** rng.uniform(-300.0, 300.0, n)
        budget = float(rng.uniform(1.0, 10.0)) / beta
    elif kind == "huge":
        w = rng.uniform(0.0, 2.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        budget = float(rng.uniform(750.0, 5000.0)) / beta
    else:  # "small"
        beta, budget = float(rng.choice([1e-15, 1e-12, 1e-9])), 1.0
        w = np.concatenate(([1.0, 1.0 - 1e-3 * beta, 0.3],
                            rng.uniform(0.0, 0.3, max(n - 3, 0))))[:n]
    return w, budget, DelayParams(beta=beta)


def reference_rates(W, budget, d):
    """water_fill_batch row by row, with the uniform split on all-zero rows."""
    rates = np.full(W.shape, budget / W.shape[1])
    live = np.max(W, axis=1) > 0.0
    if np.any(live):
        rates[live] = water_fill_batch(W[live], budget, d)[0]
    return rates


KINDS = ("ties", "zeros", "lone", "decades", "huge", "small")
SIZES = (1, 2, 3, 7, 40, 200, 1000, 2000)


class TestRatesWith:
    """One sort answers every one-weight replacement as water_fill would."""

    def test_rates_with_matches_water_fill(self):
        rng = np.random.default_rng(21)
        answers = np.zeros(2, dtype=int)  # clear inactive, clear active
        for kind in KINDS:
            for n in SIZES:
                for _ in range(4 if n <= 200 else 1):
                    w, budget, d = rates_with_row(rng, kind, n)
                    # every channel asked at its own weight: the full split,
                    # also when a question in the same call raises channel
                    # 0 above every weight (each answer is its own)
                    own = rates_with(w, budget, d.beta, np.arange(n + 1) % n,
                                     np.append(w, 3.0 * w.max()))[:n]
                    np.testing.assert_allclose(own, reference_rates(w[None, :], budget, d)[0],
                                               rtol=0.0, atol=1e-12 * budget)
                    if kind == "small":
                        # only the two near-tied channels are active, and
                        # their rates are the whole budget
                        assert abs(own[:2].sum() - budget) <= 1e-12 * budget
                    # each asked channel's new weight: zero, a tie with
                    # another channel, or a fresh draw on the row's scale;
                    # past 200 channels a sample of 100 of them is asked
                    z = np.arange(n) if n <= 200 else np.sort(rng.choice(n, 100, replace=False))
                    pick = rng.integers(0, 3, z.size)
                    new = np.where(pick == 0, 0.0, np.where(
                        pick == 1, w[rng.integers(n, size=z.size)],
                        rng.permutation(w)[:z.size] * rng.uniform(0.5, 2.0, z.size)))
                    W = np.tile(w, (z.size, 1))
                    W[np.arange(z.size), z] = new
                    expect = reference_rates(W, budget, d)[np.arange(z.size), z]
                    got = rates_with(w, budget, d.beta, z, new)
                    np.testing.assert_allclose(got, expect, rtol=0.0, atol=1e-12 * budget)
                    # one side may round a rate of a few ulps to 0
                    near = (np.maximum(got, expect) <= 1e-12 * budget)
                    assert np.array_equal(got[~near] > 0.0, expect[~near] > 0.0)
                    # with hundreds of channels active too, each rate clear
                    # of 0 to a relative 1e-13; a rate near 0 is a small
                    # difference of logs and keeps only the absolute bound
                    clear = expect > 1e-4 * budget
                    np.testing.assert_allclose(got[clear], expect[clear], rtol=1e-13, atol=0.0)
                    answers += np.bincount(expect > 0.0, minlength=2)
        assert np.all(answers >= 100), answers  # both answers occur often

    def test_all_zero_weights_split_uniformly(self):
        np.testing.assert_array_equal(
            rates_with(np.zeros(4), 2.0, 1.5, np.arange(4), np.zeros(4)), 0.5)
        np.testing.assert_array_equal(
            rates_with(np.zeros(4), 2.0, 1.5, np.array([1, 2]), np.array([3.0, 1e-300])), 2.0)
        np.testing.assert_array_equal(
            rates_with(np.array([0.0, 1.0, 0.0]), 2.0, 1.0, np.array([0, 1]), np.zeros(2)),
            [0.0, 2.0 / 3])

    @pytest.mark.parametrize("w", [[5e-324, 1e-323, 0.0], [1e-323, 3e-310, 5e-324, 0.0],
                                   [2.2e-308, 4e-308, 1e-310]])
    def test_subnormal_weights_match_water_fill(self, w):
        # beta * w loses bits or underflows to 0 for these weights, but the
        # logs are of ratios to the largest weight, so every positive weight
        # has a finite log (warnings are errors here)
        w, budget, d = np.array(w), 2.0, DelayParams(beta=0.5)
        n = w.size
        np.testing.assert_allclose(rates_with(w, budget, d.beta, np.arange(n), w),
                                   water_fill(WeightedChannels(w, budget), d).rates,
                                   rtol=0.0, atol=1e-12 * budget)
        # a replacement far above the sorted weights, and one as tiny
        for z, new in ((n - 1, 1.0), (0, 5e-324)):
            W = w.copy()
            W[z] = new
            want = water_fill(WeightedChannels(W, budget), d).rates[z]
            got = rates_with(w, budget, d.beta, np.array([z]), np.array([new]))[0]
            assert abs(got - want) <= 1e-12 * budget

    @pytest.mark.parametrize("kind", KINDS)
    def test_chained_moves_answer_each_question_alone(self, kind):
        # the imperfect round writes earlier moves into a copy of the
        # weights and asks one producer at a time: after each move, possibly
        # to a new largest weight (a new centre), every answer is bitwise the
        # same alone as in a batch, and the split of the moved row
        rng = np.random.default_rng(22 + KINDS.index(kind))
        for n in SIZES[:6]:
            w, budget, d = rates_with_row(rng, kind, n)
            for _ in range(12):
                z = int(rng.integers(n))
                w[z] = (0.0, float(rng.choice(w)), float(rng.uniform(0.0, 3.0) * np.max(w)),
                        float(rng.uniform(0.0, 1.0) * np.min(w)))[int(rng.integers(4))]
                np.testing.assert_allclose(rates_with(w, budget, d.beta, np.arange(n), w),
                                           reference_rates(w[None, :], budget, d)[0],
                                           rtol=0.0, atol=1e-12 * budget)
                q = rng.integers(n, size=n)
                new = rng.uniform(0.0, 2.0, n) * (rng.uniform(size=n) < 0.8)
                batch = rates_with(w, budget, d.beta, q, new)
                for j in rng.choice(n, min(n, 8), replace=False):
                    alone = rates_with(w, budget, d.beta, q[j:j + 1], new[j:j + 1])
                    assert alone[0] == batch[j]
                W = np.tile(w, (n, 1))
                W[np.arange(n), q] = new
                np.testing.assert_allclose(batch, reference_rates(W, budget, d)[np.arange(n), q],
                                           rtol=0.0, atol=1e-12 * budget)


class TestProjection:
    def test_interior_points_unchanged(self):
        v = np.array([0.1, 0.2, 0.05])
        np.testing.assert_array_equal(project_budget_box(v, 1.0), v)

    def test_negatives_clip_when_budget_slack(self):
        v = np.array([-0.3, 0.4])
        np.testing.assert_array_equal(project_budget_box(v, 1.0), [0.0, 0.4])

    def test_rows_project_independently(self):
        rng = np.random.default_rng(16)
        V = rng.normal(0.0, 2.0, (20, 7))
        budgets = rng.uniform(0.5, 3.0, 20)
        for v, budget, p in zip(V, budgets, project_budget_box(V, budgets)):
            np.testing.assert_array_equal(p, project_budget_box(v, budget))

    def test_projection_is_closest_feasible_point(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            v = rng.normal(0.0, 2.0, n)
            budget = float(rng.uniform(0.5, 3.0))
            p = project_budget_box(v, budget)
            assert np.all(p >= 0.0) and p.sum() <= budget + 1e-12
            # no random feasible point is closer to v
            q = rng.dirichlet(np.ones(n), size=200) * rng.uniform(0, budget, (200, 1))
            dp = np.sum((v - p) ** 2)
            dq = np.min(np.sum((v - q) ** 2, axis=1))
            assert dp <= dq + 1e-12
