"""Best responses vs. brute-force oracles, closed-form cases, and the
per-agent code the consumer and producer blocks replaced
(tests/reference_search.py)."""

import dataclasses
import math

import numpy as np
import pytest

from cme.bestresponse import (
    _CHUNK,
    GameMode,
    TopicGrid,
    TopicSearchParams,
    _bracket_objective,
    _objective,
    consumer_best_response,
    consumers_br_dense,
    influencer_best_response,
    producer_best_response_imperfect,
    producer_best_response_perfect,
    producer_best_response_surrogate,
    producer_block,
    support_weights,
)
from cme.kernels import (
    DelayParams,
    InvalidInputError,
    KernelParams,
    TopicPoint,
    discount,
    match_prob,
)
from cme.market import (
    InfluencerAllocation,
    MarketAllocation,
    MarketConfig,
    consumer_utilities,
    influencer_utility,
    match_matrix,
    producer_support,
)
from markets_util import random_allocation, random_config, with_consumer, with_topic
from reference_search import consumer_round, exact_imperfect_search, perfect_search, saturated

SEARCH = TopicSearchParams(grid_resolution=128, refine_iters=40)


def golden_split(w1, w2, budget, beta, iters=300):
    """Scalar oracle for a two-channel split: maximize w1*d(s) + w2*d(M-s)."""
    phi = (math.sqrt(5) - 1) / 2

    def f(s):
        return w1 * (1 - math.exp(-beta * s)) + w2 * (1 - math.exp(-beta * (budget - s)))

    a, b = 0.0, budget
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


class TestInfluencerBestResponse:
    def test_uniform_fallback_when_nobody_follows(self):
        rng = np.random.default_rng(31)
        cfg = random_config(rng)
        omega = random_allocation(rng, cfg, spend_fraction=0.5)
        br = influencer_best_response(dataclasses.replace(omega, mu_i=np.zeros(cfg.n)), cfg)
        np.testing.assert_allclose(br.mu, cfg.m_infl / cfg.n, atol=1e-15)

    def test_symmetric_market_splits_evenly(self):
        point = TopicPoint((0.5,))
        cfg = MarketConfig(dim=1, interests=(point,) * 4, m=1.0, m_infl=2.0,
                           r_p=1.0, r_0=1.0, b_0=0.5)
        omega = MarketAllocation(np.full(4, 0.2), np.full(4, 0.8), np.zeros((4, 4)),
                                 InfluencerAllocation(mu=np.zeros(4)), np.full((4, 1), 0.5))
        br = influencer_best_response(omega, cfg)
        np.testing.assert_allclose(br.mu, 0.5, atol=1e-11)
        assert abs(br.mu.sum() - cfg.m_infl) < 1e-12 * cfg.m_infl

    def test_three_member_brute_force_simplex(self):
        rng = np.random.default_rng(32)
        for _ in range(3):
            cfg = random_config(rng, n_min=3, n_max=3)
            omega = random_allocation(rng, cfg)
            br = influencer_best_response(omega, cfg)
            attained = influencer_utility(dataclasses.replace(omega, influencer=br), cfg)

            # brute force over the whole budget simplex at step 1e-3 * budget
            steps = 1000
            h = cfg.m_infl / steps
            i, j = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
            keep = (i + j) <= steps
            rates = np.stack([i[keep] * h, j[keep] * h,
                              cfg.m_infl - (i[keep] + j[keep]) * h], axis=1)
            B = match_matrix(omega.X, cfg)
            d_i = discount(omega.mu_i, cfg.delay)
            gamma = cfg.r_p * (B @ d_i - np.diagonal(B) * d_i)
            best = float(np.max((-np.expm1(-cfg.delay.beta * rates)) @ gamma))
            assert attained >= best - 1e-5
            assert abs(attained - best) <= 1e-5 * max(1.0, abs(best))

    def test_weakly_beats_random_alternatives(self):
        rng = np.random.default_rng(33)
        cfg = random_config(rng)
        omega = random_allocation(rng, cfg)
        br = influencer_best_response(omega, cfg)
        attained = influencer_utility(dataclasses.replace(omega, influencer=br), cfg)
        for _ in range(100):
            alt = InfluencerAllocation(
                mu=rng.dirichlet(np.ones(cfg.n)) * rng.uniform(0, 1) * cfg.m_infl)
            alt_val = influencer_utility(dataclasses.replace(omega, influencer=alt), cfg)
            assert attained >= alt_val - 1e-9


class TestConsumerBestResponse:
    def test_proxy_mode_has_no_direct_channels(self):
        rng = np.random.default_rng(34)
        cfg = random_config(rng)
        omega = random_allocation(rng, cfg)
        br = consumer_best_response(0, omega, cfg, GameMode.PROXY)
        assert np.all(br.direct[0] == 0.0)
        assert abs(br.lam[0] + br.mu_i[0] - cfg.m) < 1e-12 * cfg.m
        for y in range(1, cfg.n):  # the other consumers keep their rates
            assert (br.lam[y], br.mu_i[y]) == (omega.lam[y], omega.mu_i[y])
        assert np.array_equal(br.direct[1:], omega.direct[1:])

    def test_idle_influencer_pushes_attention_elsewhere(self):
        rng = np.random.default_rng(35)
        cfg = random_config(rng)
        omega = random_allocation(rng, cfg)
        silent = dataclasses.replace(omega, influencer=InfluencerAllocation(mu=np.zeros(cfg.n)))
        br = consumer_best_response(1, silent, cfg, GameMode.PROXY)
        assert br.mu_i[1] == 0.0
        assert abs(br.lam[1] - cfg.m) < 1e-12

    def test_two_channel_split_matches_golden_section_oracle(self):
        rng = np.random.default_rng(36)
        for _ in range(10):
            cfg = random_config(rng)
            omega = random_allocation(rng, cfg, spend_fraction=1.0)
            y = int(rng.integers(0, cfg.n))
            br = consumer_best_response(y, omega, cfg, GameMode.PROXY)
            B = match_matrix(omega.X, cfg)
            d_infl = discount(omega.mu_infl, cfg.delay)
            w_out = cfg.r_0 * cfg.b_0
            w_infl = cfg.r_p * (float(B[:, y] @ d_infl) - B[y, y] * d_infl[y])
            s = golden_split(w_out, w_infl, cfg.m, cfg.delay.beta)
            assert abs(br.lam[y] - s) < 1e-6 * max(1.0, cfg.m)

    def test_dominant_influencer_starves_direct_channels(self):
        # Everyone sits on one point, the influencer saturates every producer,
        # and the consumer budget is small: the influencer channel's weight is
        # (n-1) times any direct channel's, so the water level never reaches
        # the direct channels and they get exactly zero.
        point = TopicPoint((0.5,))
        cfg = MarketConfig(dim=1, interests=(point,) * 8, m=0.2, m_infl=80.0,
                           r_p=1.0, r_0=1.0, b_0=0.1)
        omega = MarketAllocation(np.zeros(8), np.zeros(8), np.zeros((8, 8)),
                                 InfluencerAllocation(mu=np.full(8, 10.0)), np.full((8, 1), 0.5))
        br = consumer_best_response(3, omega, cfg, GameMode.PERFECT)
        assert np.all(br.direct[3] == 0.0)
        assert br.lam[3] == 0.0
        assert abs(br.mu_i[3] - cfg.m) < 1e-12

    def test_weakly_beats_random_alternatives(self):
        rng = np.random.default_rng(37)
        cfg = random_config(rng)
        omega = random_allocation(rng, cfg)
        y = 0
        for mode in (GameMode.PERFECT, GameMode.PROXY):
            br = consumer_best_response(y, omega, cfg, mode)
            attained = consumer_utilities(br, cfg)[y]
            for _ in range(100):
                split = rng.dirichlet(np.ones(cfg.n + 1)) * cfg.m
                row = np.zeros(cfg.n) if mode is GameMode.PROXY \
                    else np.insert(split[2:], y, 0.0)
                alt = with_consumer(omega, y, split[0], split[1], row)
                assert attained >= consumer_utilities(alt, cfg)[y] - 1e-9


class TestProducerPerfect:
    def test_single_follower_plateau(self):
        # With equal kernel decay the objective g(d(x,z)) * f(d(x,y)) is
        # constant on the segment [z, y] (the distance sum is the segment
        # length there), so any point of the segment is optimal.
        z_int, y_int = TopicPoint((0.2,)), TopicPoint((0.8,))
        cfg = MarketConfig(dim=1, interests=(z_int, y_int), m=1.0, m_infl=1.0,
                           r_p=1.0, r_0=1.0, b_0=0.5,
                           kernel=KernelParams(a_f=2.0, a_g=2.0))
        omega = MarketAllocation(np.zeros(2), np.zeros(2), np.array([[0.0, 0.0], [0.5, 0.0]]),
                                 InfluencerAllocation(mu=np.zeros(2)), cfg.interest_array())
        choice = producer_best_response_perfect(0, omega, cfg, SEARCH)
        plateau = cfg.r_p * discount(0.5, cfg.delay) * math.exp(-2.0 * 0.6)
        assert not choice.degenerate
        assert abs(choice.value - plateau) < 1e-9
        assert 0.2 - SEARCH.grid_resolution ** -1 <= choice.topic.coords[0] <= 0.8 + SEARCH.grid_resolution ** -1

    def test_fast_quality_decay_pins_topic_to_own_interest(self):
        rng = np.random.default_rng(38)
        cfg = random_config(rng, dim=1, n_min=4, n_max=8)
        cfg = MarketConfig(dim=1, interests=cfg.interests, m=cfg.m, m_infl=cfg.m_infl,
                           r_p=cfg.r_p, r_0=cfg.r_0, b_0=cfg.b_0,
                           kernel=KernelParams(a_f=0.5, a_g=500.0), delay=cfg.delay)
        omega = random_allocation(rng, cfg, spend_fraction=1.0)
        choice = producer_best_response_perfect(2, omega, cfg, SEARCH)
        cell = 1.0 / (SEARCH.grid_resolution - 1)
        assert abs(choice.topic.coords[0] - cfg.interests[2].coords[0]) <= cell

    def test_matches_independent_grid_scan(self):
        rng = np.random.default_rng(39)
        for _ in range(8):
            cfg = random_config(rng)
            omega = random_allocation(rng, cfg)
            z = int(rng.integers(0, cfg.n))
            choice = producer_best_response_perfect(z, omega, cfg, SEARCH)

            def support_at(x):
                return producer_support(z, with_topic(omega, z, x), cfg)

            # scalar scan over a fresh grid, then compare attained values
            axis = np.linspace(0, 1, SEARCH.grid_resolution)
            pts = ([TopicPoint((float(a),)) for a in axis] if cfg.dim == 1
                   else [TopicPoint((float(a), float(b))) for a in axis[::8]
                         for b in axis[::8]])
            brute = max(support_at(x) for x in pts)
            assert support_at(choice.topic) >= brute - 1e-12
            assert abs(choice.value - support_at(choice.topic)) < 1e-9

    def test_degenerate_without_any_attention_keeps_previous(self):
        rng = np.random.default_rng(40)
        cfg = random_config(rng)
        idle = MarketAllocation(np.full(cfg.n, cfg.m), np.zeros(cfg.n), np.zeros((cfg.n, cfg.n)),
                                InfluencerAllocation(mu=np.zeros(cfg.n)), cfg.interest_array())
        prev = TopicPoint(tuple(0.37 for _ in range(cfg.dim)))
        choice = producer_best_response_perfect(1, idle, cfg, SEARCH, prev=prev)
        assert choice.degenerate
        assert choice.topic == prev
        no_prev = producer_best_response_perfect(1, idle, cfg, SEARCH)
        assert no_prev.degenerate
        assert all(c == 0.0 for c in no_prev.topic.coords)

    def test_weakly_beats_random_alternatives(self):
        rng = np.random.default_rng(41)
        cfg = random_config(rng)
        omega = random_allocation(rng, cfg)
        z = 1
        choice = producer_best_response_perfect(z, omega, cfg, SEARCH)

        def support_at(x):
            return producer_support(z, with_topic(omega, z, x), cfg)

        attained = support_at(choice.topic)
        for _ in range(100):
            alt = TopicPoint(tuple(rng.uniform(0, 1, cfg.dim)))
            assert attained >= support_at(alt) - 1e-9


class TestProducerImperfectAndSurrogate:
    def _resolved_delta(self, z, x, omega, cfg):
        """delta of the influencer's re-solved rate on z given z plays x."""
        br = influencer_best_response(with_topic(omega, z, x), cfg)
        return discount(float(br.mu[z]), cfg.delay)

    def test_assumption_four_trigger_is_degenerate(self):
        rng = np.random.default_rng(42)
        cfg = random_config(rng)
        omega = random_allocation(rng, cfg)
        prev = TopicPoint(tuple(omega.X[0]))
        choice = producer_best_response_imperfect(
            0, dataclasses.replace(omega, mu_i=np.zeros(cfg.n)), cfg, SEARCH, prev=prev)
        assert choice.degenerate
        assert choice.topic == prev

    def test_agrees_with_surrogate_argmax(self):
        # reference: the exact search, one influencer re-solve per candidate
        rng = np.random.default_rng(43)
        hits = 0
        for _ in range(8):
            cfg = random_config(rng, dim=1, n_min=3, n_max=8)
            omega = random_allocation(rng, cfg, spend_fraction=1.0)
            z = int(rng.integers(0, cfg.n))
            x, value, degenerate = exact_imperfect_search(
                z, omega.mu_i, omega.X, TopicGrid(cfg, SEARCH), cfg)
            fast = producer_best_response_surrogate(z, omega, cfg, SEARCH)
            if degenerate or value <= 0.0:
                continue
            hits += 1
            cell = 1.0 / (SEARCH.grid_resolution - 1)
            assert abs(x[0] - fast.topic.coords[0]) <= cell + 1e-12
        assert hits >= 5  # the agreement case must actually be exercised

    def test_two_member_market_matches_perfect_argmax(self):
        # One producer, one consumer, no direct rate: the perfect objective is
        # proportional to the match B, and the re-solved influencer rate is
        # monotone in B, so both regimes pick the same topic.
        rng = np.random.default_rng(44)
        cfg = random_config(rng, dim=1, n_min=2, n_max=2)
        omega = MarketAllocation(np.full(2, 0.1), np.full(2, cfg.m - 0.1), np.zeros((2, 2)),
                                 InfluencerAllocation(mu=np.array([cfg.m_infl, 0.0])),
                                 random_allocation(rng, cfg).X)
        imperfect = producer_best_response_imperfect(0, omega, cfg, SEARCH)
        perfect = producer_best_response_perfect(0, omega, cfg, SEARCH)
        cell = 1.0 / (SEARCH.grid_resolution - 1)
        assert abs(imperfect.topic.coords[0] - perfect.topic.coords[0]) <= cell + 1e-12

    def test_weakly_beats_random_alternatives(self):
        rng = np.random.default_rng(45)
        cfg = random_config(rng, dim=1, n_min=3, n_max=6)
        omega = random_allocation(rng, cfg, spend_fraction=1.0)
        z = 2
        choice = producer_best_response_imperfect(z, omega, cfg, SEARCH)
        attained = self._resolved_delta(z, choice.topic, omega, cfg)
        for _ in range(60):
            alt = TopicPoint(tuple(rng.uniform(0, 1, 1)))
            assert attained >= self._resolved_delta(z, alt, omega, cfg) - 1e-9

    def test_surrogate_degenerate_when_nobody_follows(self):
        rng = np.random.default_rng(46)
        cfg = random_config(rng)
        omega = random_allocation(rng, cfg)
        choice = producer_best_response_surrogate(
            1, dataclasses.replace(omega, mu_i=np.zeros(cfg.n)), cfg, SEARCH)
        assert choice.degenerate


def _dense_market(rng, dim, case):
    """A random market state; some cases zero channels or every follow rate."""
    cfg = random_config(rng, n_min=3, n_max=7, dim=dim)
    omega = random_allocation(rng, cfg)
    mu_i, direct, mu_infl = omega.mu_i.copy(), omega.direct.copy(), omega.mu_infl.copy()
    if case == 1:  # zero-weight channels
        mu_i[::2] = 0.0
        direct[:, 1] = 0.0
        mu_infl[2] = 0.0
    elif case == 2:  # nobody follows the influencer
        mu_i[:] = 0.0
    elif case == 3:  # nobody follows anyone: every support objective is zero
        mu_i[:] = 0.0
        direct[:] = 0.0
    return cfg, MarketAllocation(omega.lam, mu_i, direct, InfluencerAllocation(mu=mu_infl),
                                 omega.X)


def _search(dim):
    return SEARCH if dim == 1 else TopicSearchParams(grid_resolution=24)


class TestProducerBlockAgainstReference:
    """The block against one search per producer, on seeded random markets."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_perfect_block_matches_per_producer_search(self, dim):
        rng = np.random.default_rng(60 + dim)
        for case in range(6):
            cfg, d = _dense_market(rng, dim, case)
            grid = TopicGrid(cfg, _search(dim))
            W = support_weights(d.mu_i, d.mu_infl, d.direct, cfg)
            d_i, d_infl = discount(d.mu_i, cfg.delay), discount(d.mu_infl, cfg.delay)
            d_direct = discount(d.direct, cfg.delay)
            for prev in (d.X, None):
                block = producer_block(W, grid, cfg, prev=prev)
                for z in range(cfg.n):
                    x, value, degenerate = perfect_search(
                        z, d_i, float(d_infl[z]), d_direct[:, z], grid, cfg,
                        prev_x=None if prev is None else prev[z])
                    assert block.degenerate[z] == degenerate
                    np.testing.assert_allclose(block.topics[z], x, rtol=0.0, atol=1e-9)
                    assert cfg.r_p * block.values[z] == pytest.approx(value, rel=1e-9, abs=0.0)
            if case == 3:
                assert block.degenerate.all()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_imperfect_search_matches_exact_reference(self, dim):
        rng = np.random.default_rng(70 + dim)
        compared = 0
        for case in range(5):
            cfg, d = _dense_market(rng, dim, case)
            grid = TopicGrid(cfg, _search(dim))
            for z in range(cfg.n):
                got = producer_best_response_imperfect(
                    z, d, cfg, _search(dim), prev=TopicPoint(tuple(d.X[z])))
                x, value, degenerate = exact_imperfect_search(
                    z, d.mu_i, d.X, grid, cfg, prev_x=d.X[z])
                assert got.degenerate == degenerate
                assert got.value == pytest.approx(value, rel=1e-9, abs=0.0)
                if saturated(value, cfg):
                    continue
                compared += 1
                np.testing.assert_allclose(got.topic.as_array(), x, rtol=0.0, atol=1e-9)
        assert compared >= 15

    def test_exact_grid_ties_break_alike(self):
        # producer 0 at 0.5, followers at 0.25 / 0.75, every weight exactly
        # 1.0 (delta saturates): the grid nodes 0.25 and 0.75 tie bit for
        # bit whatever the summation order, and beat every other node
        cfg = MarketConfig(dim=1, interests=tuple(TopicPoint((v,)) for v in (0.5, 0.25, 0.75)),
                           m=100.0, m_infl=100.0, r_p=1.0, r_0=1.0, b_0=0.5,
                           kernel=KernelParams(a_f=8.0, a_g=0.5))
        mu_i, mu_infl = np.array([0.0, 50.0, 50.0]), np.full(3, 50.0)
        W = support_weights(mu_i, mu_infl, np.zeros((3, 3)), cfg)
        assert W[1, 0] == W[2, 0] == 1.0
        d_i = discount(mu_i, cfg.delay)
        for refine, prev in ((10, None), (0, None), (0, np.array([[0.75], [0.25], [0.75]]))):
            grid = TopicGrid(cfg, TopicSearchParams(grid_resolution=9, refine_iters=refine))
            vals = grid.Q[:, 0] * (grid.P @ W[:, 0])
            assert vals[2] == vals[6] == vals.max()
            block = producer_block(W, grid, cfg, prev=prev)
            x, value, _ = perfect_search(0, d_i, 1.0, np.zeros(3), grid, cfg,
                                         prev_x=None if prev is None else prev[0])
            assert block.topics[0, 0] == x[0]
            assert block.values[0] == value
            # the scan takes the first node of the tie; a tied incumbent stays
            assert abs(x[0] - (0.25 if prev is None else 0.75)) <= grid.cell / 2

    def test_saturated_rate_is_flat_only_for_the_exact_search(self):
        # the influencer's budget is so large that delta of every candidate's
        # re-solved rate rounds to 1.0: the exact search cannot tell topics
        # apart and keeps the incumbent; the match-mass search moves, and
        # scores the same 1.0
        cfg = MarketConfig(dim=1, interests=tuple(TopicPoint((v,)) for v in (0.2, 0.5, 0.8)),
                           m=1.0, m_infl=3000.0, r_p=1.0, r_0=1.0, b_0=0.5)
        d = MarketAllocation(np.full(3, 0.5), np.full(3, 0.5), np.zeros((3, 3)),
                             InfluencerAllocation(mu=np.full(3, 1000.0)), np.zeros((3, 1)))
        x, value, degenerate = exact_imperfect_search(
            1, d.mu_i, d.X, TopicGrid(cfg, SEARCH), cfg, prev_x=d.X[1])
        assert (value, degenerate, x[0]) == (1.0, False, 0.0)
        got = producer_best_response_imperfect(1, d, cfg, SEARCH, prev=TopicPoint((0.0,)))
        mass = producer_best_response_surrogate(1, d, cfg, SEARCH)
        assert got.value == 1.0 and not got.degenerate
        assert got.topic == mass.topic and mass.topic.coords[0] > 0.3


class TestConsumerBlockAgainstReference:
    """The consumer block against one water-filling solve per consumer."""

    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
    @pytest.mark.parametrize("mode", list(GameMode))
    def test_block_matches_per_consumer_solves(self, mode, n):
        rng = np.random.default_rng(110 + n + 3 * list(GameMode).index(mode))
        for case in range(3):
            cfg = random_config(rng, n_min=n, n_max=n)
            B = match_matrix(rng.uniform(0.0, 1.0, (n, cfg.dim)), cfg)
            mu_infl = rng.dirichlet(np.ones(n)) * cfg.m_infl
            if case == 1:  # zero-weight channels
                B[rng.uniform(size=B.shape) < 0.3] = 0.0
                mu_infl[::3] = 0.0
            elif case == 2:  # the influencer relays nothing: nobody follows it
                mu_infl[:] = 0.0
            delta_infl = discount(mu_infl, cfg.delay)
            lam, mu_i, direct = consumers_br_dense(delta_infl, B, cfg, mode)
            for a, b in zip((lam, mu_i, direct), consumer_round(delta_infl, B, cfg, mode)):
                np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12 * cfg.m)
            assert np.all(np.diagonal(direct) == 0.0)
            spent = lam + mu_i + direct.sum(axis=1)
            assert np.max(np.abs(spent - cfg.m)) <= 1e-9
            if mode is GameMode.PROXY:
                assert np.all(direct == 0.0)
            if case == 2:
                assert np.all(mu_i == 0.0)


class TestBracketObjective:
    """The polish's semiseparable objective against the direct formula."""

    @pytest.mark.parametrize("a_f", [0.5, 3.0, 5000.0])
    def test_matches_direct_objective(self, a_f):
        rng = np.random.default_rng(int(a_f) + 120)
        grid_nodes = np.linspace(0.0, 1.0, 16)
        # interests on grid nodes (exactly at bracket edges), at 0 and 1,
        # and a sparse random rest, so some brackets hold no interest at all
        y = np.concatenate((grid_nodes[[0, 4, 5, 15]], rng.uniform(0.0, 1.0, 8)))
        cfg = MarketConfig(dim=1, interests=tuple(TopicPoint((v,)) for v in y),
                           m=1.0, m_infl=1.0, r_p=1.0, r_0=1.0, b_0=0.5,
                           kernel=KernelParams(a_f=a_f, a_g=1.5))
        best = np.repeat(np.arange(16), 3)  # brackets at 0 and at 1 included
        lo = grid_nodes[np.maximum(best - 1, 0)]
        hi = grid_nodes[np.minimum(best + 1, 15)]
        cols = rng.integers(0, y.size, best.size)
        W = rng.uniform(0.0, 2.0, (y.size, best.size))
        W[rng.uniform(size=W.shape) < 0.2] = 0.0
        W[cols, np.arange(best.size)] = 0.0
        f = _bracket_objective(W, cols, lo, hi, cfg)
        checked = 0
        for t in (lo, hi, lo + rng.uniform(0.0, 1.0, best.size) * (hi - lo)):
            direct = _objective(t[:, None], W, cols, cfg)
            np.testing.assert_allclose(f(t), direct, rtol=1e-12, atol=0.0)
            checked += np.count_nonzero(direct)
        assert checked > best.size


class TestSearchParams:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TopicSearchParams(grid_resolution=4)
        with pytest.raises(InvalidInputError):
            TopicSearchParams(refine_iters=-1)
        with pytest.raises(InvalidInputError):
            GameMode.parse("osmosis")

    def test_grid_is_lexicographic(self):
        cfg = MarketConfig(dim=2, interests=(TopicPoint((0.1, 0.2)),
                                             TopicPoint((0.7, 0.9))),
                           m=1, m_infl=1, r_p=1, r_0=1, b_0=0.5)
        grid = TopicGrid(cfg, TopicSearchParams(grid_resolution=8))
        pts = [tuple(p) for p in grid.points]
        assert pts == sorted(pts)
        assert len(pts) == 64
