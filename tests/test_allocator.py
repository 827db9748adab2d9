"""Water-filling solver vs. the independent projected-gradient oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cme.allocator import (
    AllocationSolution,
    DegenerateWeightsError,
    SortedChannels,
    WeightedChannels,
    _candidates,
    _normal_rows,
    _water_fill_rows,
    water_fill,
)
from cme.kernels import DelayParams, InvalidInputError
from oracles import (
    gradient_oracle,
    gradient_oracle_batch,
    kkt_residuals,
    project_budget_box,
    water_fill_batch,
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
            rates, log_nu = _water_fill_rows(W, budget, d.beta)
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
            rates, log_nu = _water_fill_rows(W, bm / beta, beta)
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
                rates, log_nu = _water_fill_rows(W, bm / 2.0, 2.0)
                old_rates, old_log_nu = water_fill_rows_sorted(W, bm / 2.0, 2.0)
                assert np.array_equal(rates, old_rates) and np.array_equal(log_nu, old_log_nu)
                assert rates[0, 1] == pytest.approx(eps / 4.0, rel=1e-3)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
    def test_a_row_of_tiny_weights_splits_as_its_normal_copy(self, beta):
        # 2**-1074 * (3, 2, 1, 0) is exact, the smallest subnormals, and the
        # same split; beta * w would round them
        W = np.array([[3.0, 2.0, 1.0, 0.0]])
        rates, log_nu = _water_fill_rows(W, 4.0, beta)
        tiny_rates, tiny_log_nu = _water_fill_rows(np.ldexp(W, -1074), 4.0, beta)
        np.testing.assert_allclose(tiny_rates, rates, rtol=1e-12)
        assert tiny_rates[0, 3] == 0.0 and tiny_rates.sum() == pytest.approx(4.0, rel=1e-14)
        assert tiny_log_nu[0] == pytest.approx(log_nu[0] - 1074 * math.log(2.0), rel=1e-14)

    @settings(max_examples=150, deadline=None, database=None)
    @given(W=arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 24)),
                    elements=st.floats(0.0, 1e300) | st.sampled_from([0.0, 1.0])),
           bm=st.floats(1e-3, 1e3), beta=st.floats(0.1, 10.0))
    # a subnormal max: its bound rounds back up to it; beta * w underflows
    # to 0; the second weight's bound rounds up to it unless the row is
    # scaled; beta * max(w) is normal but max(w) is not
    @example(W=np.array([[5e-324]]), bm=0.5, beta=1.0)
    @example(W=np.array([[5e-324]]), bm=1.0, beta=0.5)
    @example(W=np.array([[1.5e-323, 1e-323]]), bm=0.5, beta=1.0)
    @example(W=np.array([[5e-324, 0.0]]), bm=0.5, beta=10.0)
    def test_candidates_hold_the_active_set(self, W, bm, beta):
        W[np.max(W, axis=1) == 0.0, 0] = 1.0
        old_rates, old_log_nu = water_fill_rows_sorted(W, bm / beta, beta)
        assert np.all(np.isfinite(old_log_nu))
        scaled, top, _ = _normal_rows(W, beta)
        assert np.array_equal(top, scaled.max(axis=1))
        assert np.all(_candidates(scaled, top, bm)[old_rates > 0.0])
        rates, log_nu = _water_fill_rows(W, bm / beta, beta)
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
            rates, log_nu = _water_fill_rows(W, budget, beta)
            ref_rates, ref_nu = bisection_reference(W, budget, beta)
            np.testing.assert_allclose(rates, ref_rates, rtol=0.0, atol=1e-10 * budget)
            np.testing.assert_allclose(np.exp(log_nu), ref_nu, rtol=1e-9)


def sorted_channels_row(rng, kind, n):
    """Weights, budget and beta of one SortedChannels test row; the kinds
    are exact ties, zero weights, one lone positive weight, weights over
    600 decades, and beta * M past 745, where nu = exp(log nu) underflows."""
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
    else:  # "huge"
        w = rng.uniform(0.0, 2.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        budget = float(rng.uniform(750.0, 5000.0)) / beta
    return w, budget, DelayParams(beta=beta)


def reference_rates(W, budget, d):
    """water_fill_batch row by row, with the uniform split on all-zero rows."""
    rates = np.full(W.shape, budget / W.shape[1])
    live = np.max(W, axis=1) > 0.0
    if np.any(live):
        rates[live] = water_fill_batch(W[live], budget, d)[0]
    return rates


KINDS = ("ties", "zeros", "lone", "decades", "huge")
SIZES = (1, 2, 3, 7, 40, 200)


class TestSortedChannels:
    """One sort answers every one-weight replacement as water_fill would."""

    def test_rates_with_matches_water_fill(self):
        rng = np.random.default_rng(21)
        answers = np.zeros(2, dtype=int)  # clear inactive, clear active
        for kind in KINDS:
            for n in SIZES:
                for _ in range(4):
                    w, budget, d = sorted_channels_row(rng, kind, n)
                    ch = SortedChannels(w, budget, d)
                    # each channel's new weight: zero, a tie with another
                    # channel, or a fresh draw on the row's scale
                    pick = rng.integers(0, 3, n)
                    new = np.where(pick == 0, 0.0, np.where(
                        pick == 1, w[rng.integers(n, size=n)],
                        rng.permutation(w) * rng.uniform(0.5, 2.0, n)))
                    W = np.tile(w, (n, 1))
                    W[np.arange(n), np.arange(n)] = new
                    expect = reference_rates(W, budget, d)[np.arange(n), np.arange(n)]
                    got = ch.rates_with(np.arange(n), new)
                    np.testing.assert_allclose(got, expect, rtol=0.0, atol=1e-12 * budget)
                    # one side may round a rate of a few ulps to 0
                    near = (np.maximum(got, expect) <= 1e-12 * budget)
                    assert np.array_equal(got[~near] > 0.0, expect[~near] > 0.0)
                    answers += np.bincount(expect > 0.0, minlength=2)
        assert np.all(answers >= 100), answers  # both answers occur often

    def test_all_zero_weights_split_uniformly(self):
        ch = SortedChannels(np.zeros(4), 2.0, DelayParams(beta=1.5))
        np.testing.assert_array_equal(ch.rates_with(np.arange(4), np.zeros(4)), 0.5)
        np.testing.assert_allclose(ch.rates_with(np.array([1, 2]), np.array([3.0, 1e-300])), 2.0,
                                   rtol=1e-15)
        ch = SortedChannels(np.array([0.0, 1.0, 0.0]), 2.0, DelayParams())
        np.testing.assert_array_equal(ch.rates_with(np.array([0, 1]), np.zeros(2)), [0.0, 2.0 / 3])

    @pytest.mark.parametrize("kind", KINDS)
    def test_replace_chains_match_fresh_builds(self, kind):
        rng = np.random.default_rng(22 + KINDS.index(kind))
        for n in SIZES:
            w, budget, d = sorted_channels_row(rng, kind, n)
            ch = SortedChannels(w, budget, d)
            for _ in range(12):
                z = int(rng.integers(n))
                w[z] = (0.0, float(rng.choice(w)), float(rng.uniform(0.0, 3.0) * np.max(w)),
                        float(rng.uniform(0.0, 1.0) * np.min(w)))[int(rng.integers(4))]
                ch.replace(z, w[z])
                fresh = SortedChannels(w, budget, d)
                for field in ("weights", "a", "s", "C", "key", "key_up", "f"):
                    assert np.array_equal(getattr(ch, field), getattr(fresh, field)), field
                assert np.array_equal(ch.order[ch.pos], np.arange(n))
                assert np.array_equal(ch.a[ch.order], ch.s)
                new = rng.uniform(0.0, 2.0, n) * (rng.uniform(size=n) < 0.8)
                np.testing.assert_array_equal(ch.rates_with(np.arange(n), new),
                                              fresh.rates_with(np.arange(n), new))


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
