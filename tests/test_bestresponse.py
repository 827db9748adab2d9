"""Best responses vs. brute-force oracles, closed-form cases, and the
per-agent code the consumer and producer blocks replaced
(tests/reference_search.py)."""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cme import bestresponse, equilibrium
from cme.allocator import _candidate_floor
from cme.bestresponse import (
    _CHUNK,
    _TILE,
    _LineScan,
    GameMode,
    TopicGrid,
    TopicSearchParams,
    _objective,
    _tile_objective,
    chunks,
    consumer_best_response,
    consumers_br_dense,
    grid_best,
    imperfect_producer_round,
    influencer_best_response,
    producer_best_response_imperfect,
    producer_best_response_perfect,
    producer_block,
    support_weights,
)
from cme.equilibrium import DynamicsParams, run_dynamics
from cme.kernels import (
    DelayParams,
    InvalidInputError,
    KernelParams,
    TopicPoint,
    discount,
)
from cme.market import (
    DenseMatch,
    DirectRates,
    InfluencerAllocation,
    LineMatch,
    MarketAllocation,
    MarketConfig,
    PeerWeights,
    consumer_utilities,
    influencer_followed_match,
    influencer_relayed_match,
    influencer_utility,
    match_matrix,
    producer_support,
)
from markets_util import far_pair, random_allocation, random_config, with_consumer, with_topic
from cme.scenario import _row_seed, parse_sweep
from oracles import (
    consumers_dense,
    dense_objective,
    dense_support_weights,
    dense_tables,
    dense_weights,
    match_table,
    tiled_scan,
    water_fill_rows_sorted,
)
from reference_search import (
    consumer_round,
    exact_imperfect_search,
    imperfect_round,
    old_search,
    perfect_search,
    resolved_rate,
    saturated,
)

SEARCH = TopicSearchParams(grid_resolution=128)


def mass_argmax(z, omega, cfg, search):
    """Producer z's best topic by follower-weighted match mass, and whether
    that mass is zero at every candidate: the producer block restricted to
    z under the rank-one weights delta(mu_i) 1^T."""
    weights = PeerWeights.rank_one(discount(omega.mu_i, cfg.delay), np.ones(cfg.n))
    block = producer_block(weights, TopicGrid(cfg, search), cfg, cols=slice(z, z + 1))
    return TopicPoint(tuple(block.topics[0])), bool(block.degenerate[0])


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

    def test_uniform_fallback_when_no_follower_match_is_positive(self):
        # both members follow the influencer, but exp(-800) underflows to 0,
        # so neither producer's followers match it and every weight is 0
        cfg = far_pair()
        omega = MarketAllocation(np.full(2, 0.3), np.full(2, 0.3), np.zeros((2, 2)),
                                 InfluencerAllocation(mu=np.array([2.0, 0.0])),
                                 cfg.interest_array())
        assert not np.any(influencer_followed_match(discount(omega.mu_i, cfg.delay),
                                                    match_matrix(omega.X, cfg)))
        np.testing.assert_array_equal(influencer_best_response(omega, cfg).mu, 1.0)

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
        assert np.all(br.direct.toarray()[0] == 0.0)
        assert abs(br.lam[0] + br.mu_i[0] - cfg.m) < 1e-12 * cfg.m
        for y in range(1, cfg.n):  # the other consumers keep their rates
            assert (br.lam[y], br.mu_i[y]) == (omega.lam[y], omega.mu_i[y])
        assert np.array_equal(br.direct.toarray()[1:], omega.direct.toarray()[1:])

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
        assert np.all(br.direct.toarray()[3] == 0.0)
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

    def test_all_zero_weights_score_the_uniform_split(self):
        # every influencer weight is 0 at the current topics; producer 1's
        # follower (consumer 0) makes it worth the whole budget at topic 0,
        # while producer 0's only other consumer follows nobody, so its
        # topic cannot earn a weight and the influencer stays uniform
        cfg = far_pair()
        omega = MarketAllocation(np.full(2, 0.3), np.array([0.3, 0.0]), np.zeros((2, 2)),
                                 InfluencerAllocation(mu=np.ones(2)), cfg.interest_array())
        lone = producer_best_response_imperfect(0, omega, cfg, SEARCH, prev=TopicPoint((0.0,)))
        assert lone == (TopicPoint((0.0,)), discount(1.0, cfg.delay), True)
        moved = producer_best_response_imperfect(1, omega, cfg, SEARCH)
        assert moved.topic.coords[0] < 1e-2 and not moved.degenerate
        assert moved.value == pytest.approx(discount(2.0, cfg.delay), rel=1e-15)

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
            fast, _ = mass_argmax(z, omega, cfg, SEARCH)
            if degenerate or value <= 0.0:
                continue
            hits += 1
            cell = 1.0 / (SEARCH.grid_resolution - 1)
            assert abs(x[0] - fast.coords[0]) <= cell + 1e-12
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
        _, degenerate = mass_argmax(
            1, dataclasses.replace(omega, mu_i=np.zeros(cfg.n)), cfg, SEARCH)
        assert degenerate


def _dense_market(rng, dim, case):
    """A random market state; some cases zero channels or every follow rate."""
    cfg = random_config(rng, n_min=3, n_max=7, dim=dim)
    omega = random_allocation(rng, cfg)
    mu_i, direct, mu_infl = omega.mu_i.copy(), omega.direct.toarray(), omega.mu_infl.copy()
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


def _incumbent(prev, W, cfg):
    """producer_block's incumbent arguments as a round passes them: the
    topics and their objectives read from the match matrix at prev."""
    if prev is None:
        return {}
    return {"prev": prev, "prev_value": W.producer_values(match_matrix(prev, cfg))}


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
            d_direct = discount(d.direct.toarray(), cfg.delay)
            for prev in (d.X, None):
                block = producer_block(W, grid, cfg, **_incumbent(prev, W, cfg))
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

    def test_exact_ties_break_alike(self):
        # producer 0 at 0.5, followers at 0.25 / 0.75, every weight exactly
        # 1.0 (delta saturates): the candidates 0.25 and 0.75 tie bit for
        # bit whatever the summation order, and beat every other candidate
        cfg = MarketConfig(dim=1, interests=tuple(TopicPoint((v,)) for v in (0.5, 0.25, 0.75)),
                           m=100.0, m_infl=100.0, r_p=1.0, r_0=1.0, b_0=0.5,
                           kernel=KernelParams(a_f=8.0, a_g=0.5))
        mu_i, mu_infl = np.array([0.0, 50.0, 50.0]), np.full(3, 50.0)
        W = support_weights(mu_i, mu_infl, DirectRates.empty(3), cfg)
        dense = dense_support_weights(mu_i, mu_infl, np.zeros((3, 3)), cfg)
        assert dense[1, 0] == dense[2, 0] == 1.0
        d_i = discount(mu_i, cfg.delay)
        grid = TopicGrid(cfg, SEARCH)
        assert np.array_equal(grid.points[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
        P, Q = dense_tables(grid.points, cfg)
        vals = Q[:, 0] * (P @ dense[:, 0])
        assert vals[1] == vals[3] == vals.max()
        for prev in (None, np.array([[0.75], [0.25], [0.75]])):
            block = producer_block(W, grid, cfg, **_incumbent(prev, W, cfg))
            x, value, _ = perfect_search(0, d_i, 1.0, np.zeros(3), grid, cfg,
                                         prev_x=None if prev is None else prev[0])
            assert block.topics[0, 0] == x[0]
            assert block.values[0] == value
            # the scan takes the first candidate of the tie; a tied incumbent stays
            assert x[0] == (0.25 if prev is None else 0.75)

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
        mass, _ = mass_argmax(1, d, cfg, SEARCH)
        assert got.value == 1.0 and not got.degenerate
        assert got.topic == mass and mass.coords[0] > 0.3


def _round_market(rng, t):
    """Market t of the round's differential test: dim 1 and 2 in turn, and
    by t // 2 mod 6 a plain market, zeroed follow rates, nobody following,
    a steep kernel with a small influencer budget (one channel takes all of
    it), twin members on grid nodes (exactly tied weights and grid values),
    and a budget so large that every follower's delta rounds to 1."""
    dim, case = 1 + t % 2, (t // 2) % 6
    cfg = random_config(rng, n_min=2, n_max=9, dim=dim)
    if case == 3:
        cfg = dataclasses.replace(cfg, m_infl=float(rng.uniform(0.01, 0.2)), kernel=KernelParams(
            a_f=float(rng.uniform(20.0, 60.0)), a_g=float(rng.uniform(0.5, 4.0))))
    elif case == 4:
        half = rng.integers(0, 17, size=(int(rng.integers(1, 5)), dim)) / 16.0
        cfg = dataclasses.replace(cfg, interests=tuple(TopicPoint(tuple(p))
                                                       for p in np.concatenate((half, half))))
    omega = random_allocation(rng, cfg)
    mu_i, X = omega.mu_i.copy(), omega.X.copy()
    if case == 1:
        mu_i[rng.uniform(size=cfg.n) < 0.5] = 0.0
    elif case == 2:
        mu_i[:] = 0.0
    elif case == 4:
        mu_i[:] = cfg.m / 2
        X = np.tile(rng.integers(0, 17, size=(cfg.n // 2, dim)) / 16.0, (2, 1))
    elif case == 5:
        mu_i[:] = 40.0 / cfg.delay.beta
    return cfg, mu_i, X, TopicGrid(cfg, TopicSearchParams(grid_resolution=17))


class TestImperfectRoundAgainstReference:
    """The binary-search round against one influencer re-solve per producer."""

    def test_round_matches_one_re_solve_per_producer(self, monkeypatch):
        asked = []  # the producers asked again one at a time
        rates_with = bestresponse.rates_with

        def counted(weights, budget, beta, z, w):
            if z.size == 1:
                asked.append(int(z[0]))
            return rates_with(weights, budget, beta, z, w)

        monkeypatch.setattr(bestresponse, "rates_with", counted)
        rng = np.random.default_rng(160)
        walked = saturating = degenerate = tied = 0
        for t in range(600):
            cfg, mu_i, X, grid = _round_market(rng, t)
            B = match_matrix(X, cfg)
            got, expect = X.copy(), X.copy()
            before = len(asked)
            # the second round starts where the first ended: the mass
            # objective reads no other producer's topic, so nobody moves
            for _ in range(2):
                match = (LineMatch if cfg.dim == 1 else DenseMatch)(got, cfg)
                got_degenerate, _ = imperfect_producer_round(mu_i, got, grid, cfg, match)
                expect_degenerate = imperfect_round(mu_i, expect, grid, cfg,
                                                    match_matrix(expect, cfg))
                assert np.array_equal(got, expect)
                assert np.array_equal(match.X, got)
                assert np.array_equal(match_table(match), match_matrix(got, cfg))
                assert np.array_equal(got_degenerate, expect_degenerate)
            walked += len(asked) > before
            degenerate += bool(np.any(got_degenerate & ~np.all(got_degenerate)))
            if np.any(mu_i > 0.0):
                gamma = cfg.r_p * influencer_followed_match(discount(mu_i, cfg.delay), B)
                at_best = cfg.r_p * grid_best(PeerWeights.rank_one(
                    discount(mu_i, cfg.delay), np.ones(cfg.n)), grid)
                tied += np.unique(gamma[gamma > 0.0]).size < np.count_nonzero(gamma > 0.0)
                saturating += any(resolved_rate(gamma, z, at_best[z], cfg)
                                  >= cfg.m_infl * (1.0 - 1e-12)
                                  for z in np.flatnonzero(at_best > 0.0))
        # the ordered walk (rounds that ask a producer again on its own),
        # mixed degenerate rounds, tied weights and lone active channels
        # all occur
        counts = (walked, degenerate, tied, saturating)
        assert min(counts) >= 60, counts


class TestIncumbentValue:
    """A round reads each incumbent's objective from its match
    (``producer_values``), and ``producer_block`` values a winner with the
    same match's ``values_at``: one function, the same floats for
    producers given by a slice or by indices, on either match type.  On
    the dense match both are ``_objective``'s floats, and the rows built
    are B's."""

    @pytest.mark.parametrize("dim,kind", [(1, DenseMatch), (1, LineMatch), (2, DenseMatch)])
    @pytest.mark.parametrize("n", [5, _CHUNK + 11])
    def test_incumbent_and_winner_values_are_one_function(self, dim, n, kind):
        # the perfect/proxy support weights and the imperfect follower
        # weights, with which the imperfect round values its incumbents
        rng = np.random.default_rng(130 + n + dim)
        for _ in range(3):
            cfg = random_config(rng, n_min=n, n_max=n, dim=dim)
            d = random_allocation(rng, cfg)
            match = kind(d.X, cfg)
            for W in (support_weights(d.mu_i, d.mu_infl, d.direct, cfg),
                      PeerWeights.rank_one(discount(d.mu_i, cfg.delay), np.ones(cfg.n))):
                valued = [match.values_at(W, d.X[sl], sl)
                          for sl in (slice(0, _CHUNK), slice(_CHUNK, n))]
                assert np.array_equal(match.producer_values(W),
                                      np.concatenate([values for values, _ in valued]))
                idx = np.arange(1, n, 3)  # producer_block values its movers by index
                assert np.array_equal(match.producer_values(W)[idx],
                                      match.values_at(W, d.X[idx], idx)[0])
                assert np.array_equal(match.producer_values(W, idx),
                                      match.producer_values(W)[idx])
                if kind is DenseMatch:
                    B = match_matrix(d.X, cfg)
                    assert np.array_equal(B, np.concatenate([rows for _, rows in valued]))
                    assert np.array_equal(match.producer_values(W), W.producer_values(B))
                    assert np.array_equal(W.producer_values(B)[idx],
                                          _objective(d.X[idx], W, idx, cfg)[0])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_pick_at_the_incumbent_keeps_its_value(self, dim):
        # incumbents at the scan's own picks, valued one ulp low: no winner
        # is valued again, so nobody makes an ulp-sized move to the topic it
        # holds
        rng = np.random.default_rng(138 + dim)
        cfg = random_config(rng, n_min=_CHUNK + 5, n_max=_CHUNK + 5, dim=dim)
        d = random_allocation(rng, cfg)
        grid = TopicGrid(cfg, _search(dim))
        for W in (support_weights(d.mu_i, d.mu_infl, d.direct, cfg),
                  PeerWeights.rank_one(discount(d.mu_i, cfg.delay), np.ones(cfg.n))):
            first = producer_block(W, grid, cfg)
            low = np.nextafter(first.values, 0.0)
            block = producer_block(W, grid, cfg, prev=first.topics, prev_value=low)
            assert np.array_equal(block.topics, first.topics)
            assert np.array_equal(block.values, low)


class TestTiledScan:
    """At N = 200 the 202 x 200 (candidate, producer) pairs exceed _TILE:
    the dim-1 scan values each producer on the run of candidates its cone
    bounds leave, in chunks of at most _TILE pairs; in dim 2 the scan walks
    the stored tables in tiles of _TILE // N rows."""

    N = 200

    def _market(self, rng, a_f, a_g):
        y = rng.uniform(0.0, 1.0, self.N)
        cfg = MarketConfig(dim=1, interests=tuple(TopicPoint((v,)) for v in y),
                           m=1.0, m_infl=float(self.N), r_p=1.0, r_0=1.0, b_0=0.5,
                           kernel=KernelParams(a_f=a_f, a_g=a_g))
        d = random_allocation(rng, cfg, spend_fraction=1.0)
        return cfg, d, support_weights(d.mu_i, d.mu_infl, d.direct, cfg)

    def test_block_matches_per_producer_search(self):
        # quality decays faster than interest, so the picks spread over the
        # whole line; every consumer holds direct rates, so every producer
        # is valued at every candidate, and without them each on its own run
        rng = np.random.default_rng(140)
        cfg, d, W = self._market(rng, 3.0, 6.0)
        grid = TopicGrid(cfg, SEARCH)
        d_i, d_infl = discount(d.mu_i, cfg.delay), discount(d.mu_infl, cfg.delay)
        d_direct = discount(d.direct.toarray(), cfg.delay)
        for prev in (d.X, None):
            block = producer_block(W, grid, cfg, **_incumbent(prev, W, cfg))
            for z in range(self.N):
                x, value, degenerate = perfect_search(
                    z, d_i, float(d_infl[z]), d_direct[:, z], grid, cfg,
                    prev_x=None if prev is None else prev[z])
                assert block.degenerate[z] == degenerate
                np.testing.assert_allclose(block.topics[z], x, rtol=0.0, atol=1e-9)
                assert cfg.r_p * block.values[z] == pytest.approx(value, rel=1e-9, abs=0.0)
        G = len(grid.points)
        assert set(np.searchsorted(grid.points[:, 0], block.topics[:, 0]) * 3 // G) == {0, 1, 2}
        lo, hi = _LineScan(W, grid, np.arange(self.N)).ranges()
        assert np.all(lo == 0) and np.all(hi == G - 1)
        one = PeerWeights.rank_one(W.u, W.v)
        best = bestresponse._scan(one, grid, slice(None))[0]
        lo, hi = _LineScan(one, grid, np.arange(self.N)).ranges()
        assert np.all((lo <= best) & (best <= hi)) and np.sum(hi - lo + 1) < G * self.N / 2

    def test_ties_go_to_the_first_candidate_across_tiles(self):
        # every exp rounds to 1.0 and one consumer alone follows, so each
        # sum holds one nonzero term: every candidate ties bit for bit, in
        # any summation order, no bound can drop one, and the first, 0,
        # must win
        rng = np.random.default_rng(141)
        cfg, _, _ = self._market(rng, 1e-17, 1e-17)
        u = np.zeros(self.N)
        u[7] = 0.5
        W = PeerWeights.rank_one(u, rng.uniform(0.5, 1.0, self.N))
        block = producer_block(W, TopicGrid(cfg, SEARCH), cfg)
        assert list(np.flatnonzero(block.degenerate)) == [7]
        assert np.all(block.topics == 0.0)


    def test_a_last_tile_of_one_candidate_is_scanned(self):
        # dim 2, 24 x 24 nodes and N = 142: tiles of 115 rows leave the
        # last node, (1, 1), alone in the sixth tile; the producer living
        # there, whose quality decays fastest, picks it
        rng = np.random.default_rng(142)
        n = 142
        pts = rng.uniform(0.0, 1.0, (n, 2))
        pts[0] = 1.0
        cfg = MarketConfig(dim=2, interests=tuple(TopicPoint(tuple(p)) for p in pts),
                           m=1.0, m_infl=float(n), r_p=1.0, r_0=1.0, b_0=0.5,
                           kernel=KernelParams(a_f=1.0, a_g=40.0))
        grid = TopicGrid(cfg, TopicSearchParams(grid_resolution=24))
        assert len(grid.points) % (_TILE // n) == 1
        d = random_allocation(rng, cfg, spend_fraction=1.0)
        W = support_weights(d.mu_i, d.mu_infl, d.direct, cfg)
        block = producer_block(W, grid, cfg)
        assert block.topics[0].tolist() == [1.0, 1.0]


_A_F = [0.5, 3.0, 450.0, 1e3, 5000.0]


def _line_market(rng, n, a_f, layout):
    """A dim-1 market of n members at uniform interests, each of them
    repeated ("twins") or with members at 0 and at 1, one of them twice
    ("ends")."""
    y = rng.uniform(0.0, 1.0, n)
    if layout == "twins":
        y = np.repeat(y[:(n + 1) // 2], 2)[:n]
    elif layout == "ends":
        y[0], y[-1] = 0.0, 1.0
        y[1 % n] = rng.choice([0.0, 1.0])
    return MarketConfig(dim=1, interests=tuple(TopicPoint((v,)) for v in y), m=1.0,
                        m_infl=float(n), r_p=1.0, r_0=1.0, b_0=0.5,
                        kernel=KernelParams(a_f=a_f, a_g=float(rng.uniform(0.5, 8.0))))


def _line_weights(rng, n, density, case):
    """PeerWeights with direct weights on every row ("all", each row
    holding a random share of the producers), on about a tenth of the rows
    or on none; u = 0 ("u0") or most of v zero ("v0", as at a fixed
    budget)."""
    u, v = rng.uniform(0.0, 1.0, (2, n))
    if case == "u0":
        u[:] = 0.0
    elif case == "v0":
        v[rng.uniform(size=n) < 0.7] = 0.0
    rated = {"all": np.ones(n, dtype=bool), "tenth": rng.uniform(size=n) < 0.1,
             "none": np.zeros(n, dtype=bool)}[density]
    table = rng.uniform(0.0, 1.0, (n, n))
    table[rng.uniform(size=(n, n)) >= rng.uniform(size=(n, 1))] = 0.0
    table[~rated] = 0.0
    np.fill_diagonal(table, 0.0)
    return PeerWeights(u, v, DirectRates.from_dense(table))


class TestLineScanAgainstTiles:
    """The dim-1 scan (kernel sums, cone bounds, runs of candidates) against
    the tiled scan it replaced, ``oracles.tiled_scan``, on random markets
    either side of G * N = _TILE (N = 127 and 128), under steep and flat
    interest kernels, with direct weights on every row, a tenth of the rows
    and none, u = 0, zeros in v, twin interests and members at 0 and 1."""

    @pytest.mark.parametrize("a_f", _A_F)
    @pytest.mark.parametrize("n", [5, 63, 126, 127, 128, 200, 1100])
    def test_scan_matches_the_tiles(self, n, a_f):
        k = _A_F.index(a_f)
        rng = np.random.default_rng(230 + 7 * n + k)
        rel, tiny = 1e-12, 4 * np.finfo(float).smallest_subnormal
        for i, density in enumerate(("all", "tenth", "none")):
            cfg = _line_market(rng, n, a_f, ("plain", "twins", "ends")[(i + 2 * k) % 3])
            W = _line_weights(rng, n, density, ("plain", "u0", "v0")[(i + k) % 3])
            grid = TopicGrid(cfg, SEARCH)
            for cols in (slice(None), slice(n // 3, n)):
                best, value = bestresponse._scan(W, grid, cols)
                want_best, want = tiled_scan(W, grid, cfg, cols)
                np.testing.assert_allclose(value, want, rtol=rel, atol=tiny)
                # another pick only where the oracle's top two lie within rel
                other = np.flatnonzero(best != want_best)
                if other.size:
                    z = np.arange(n)[cols][other]
                    at = dense_objective(grid.points[best[other]], dense_weights(W), z, cfg)
                    assert np.all(at >= want[other] * (1.0 - rel) - tiny)


class TestKernelSums:
    """``TopicGrid.kernel_sums`` against the dense sums, and what the dim-1
    scan holds and values."""

    @pytest.mark.parametrize("a_f", [0.5, 3.0, 64.0, 64.5, 450.0, 1e3, 5000.0])
    def test_sums_match_the_dense_sums(self, a_f):
        # members at 0 and 1 and twins; exp(a_f * y) alone would overflow
        # from a_f = 710, and warnings are errors here
        rng = np.random.default_rng(250 + int(a_f))
        cfg = _line_market(rng, 300, a_f, "ends")
        grid = TopicGrid(cfg, SEARCH)
        x = grid.points[:, 0]
        h = rng.uniform(0.0, 1.0, (4, x.size))
        h[rng.uniform(size=h.shape) < 0.3] = 0.0
        h[1] *= 1e-30
        h[2, 1:] = 0.0
        want = h @ np.exp(-a_f * np.abs(x[:, None] - x))
        np.testing.assert_allclose(grid.kernel_sums(h), want, rtol=1e-12,
                                   atol=4 * np.finfo(float).smallest_subnormal)

    @pytest.mark.parametrize("follower", ["spread", "dominant"])
    def test_scan_holds_no_table(self, follower):
        # one grid_best at N = 2000, half the consumers holding about
        # 2 sqrt(N) direct weights, as at a fixed budget: the kernel sums,
        # the weights by producer and chunks of at most _TILE pairs, well
        # under one (G, N) table.  With one dominant follower, its own term
        # is most of every candidate's sum, and ``less_own`` sums all of
        # that producer's candidates again, a chunk at a time
        n = 2000
        rng = np.random.default_rng(260)
        cfg = _line_market(rng, n, 3.0, "plain")
        rows = np.repeat(np.flatnonzero(rng.uniform(size=n) < 0.5), 90)
        cols = (rows + rng.integers(1, n, rows.size)) % n
        key = np.unique(rows * n + cols)
        S = DirectRates.from_entries((n, n), key // n, key % n, rng.uniform(0.0, 1.0, key.size))
        u, v = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
        if follower == "dominant":
            u = np.r_[1.0, np.full(n - 1, 1e-9)]
        W = PeerWeights(u, v, S)
        grid = TopicGrid(cfg, SEARCH)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            grid_best(W, grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        table = 8 * len(grid.points) * n
        assert peak < table / 4, f"peak {peak / table:.3f} tables"

    def test_few_pairs_are_valued_on_the_bench_market(self, monkeypatch):
        # the perfect run at N = 1000 and M_infl = N of the benchmark's
        # seed-2026 market: its two scans value 9.4% of the G * N pairs,
        # padding and the bounds' own values included
        spec = parse_sweep(Path(__file__).resolve().parent.parent / "scenarios" / "poi_sweep.swp")
        n = 1000
        cfg = spec.base.build_config(n=n, m_infl=spec.m_infl_for(n), seed=_row_seed(2026, n, 0))
        values, valued, scans = _LineScan.values, [], []
        monkeypatch.setattr(_LineScan, "values",
                            lambda *args: (valued.append((out := values(*args)).size), out)[1])
        scan = bestresponse._scan
        monkeypatch.setattr(bestresponse, "_scan", lambda *args: (scans.append(1), scan(*args))[1])
        run_dynamics(cfg, GameMode.PERFECT, params=DynamicsParams(restarts=0))
        assert len(scans) >= 2
        assert sum(valued) < 0.1 * len(scans) * (n + 2) * n


def _breakpoint_market(rng, t):
    """Dim-1 market t of the exact-search test as (cfg, mu_i, mu_infl,
    direct).  By t mod 8: a plain market, zero-weight channels, nobody
    following the influencer, nobody following anyone, twin members (every
    interest repeated: exact ties), members at 0 and at 1 with one of them
    repeated, a steep kernel (a_f up to 800), and kernels so flat that
    every exp rounds to 1.0 (every candidate ties, up to the summation
    order of a matrix product)."""
    case = t % 8
    cfg = random_config(rng, n_min=2, n_max=9, dim=1)
    y = cfg.interest_array()[:, 0].copy()
    kernel = cfg.kernel
    if case == 4:
        y = np.repeat(y[:(y.size + 1) // 2], 2)[:y.size]
    elif case == 5:
        y[0], y[-1] = 0.0, 1.0
        y[1 % y.size] = rng.choice([0.0, 1.0])
    elif case == 6:
        kernel = KernelParams(a_f=float(rng.uniform(100.0, 800.0)),
                              a_g=float(rng.uniform(0.5, 800.0)))
    elif case == 7:
        kernel = KernelParams(a_f=1e-17, a_g=1e-17)
    cfg = dataclasses.replace(cfg, interests=tuple(TopicPoint((v,)) for v in y), kernel=kernel)
    d = random_allocation(rng, cfg)
    mu_i, mu_infl, direct = d.mu_i.copy(), d.mu_infl.copy(), d.direct.toarray()
    if case == 1:
        mu_i[::2] = 0.0
        direct[:, 1] = 0.0
        mu_infl[rng.integers(cfg.n)] = 0.0
    elif case in (2, 3):
        mu_i[:] = 0.0
        if case == 3:
            direct[:] = 0.0
    return cfg, mu_i, mu_infl, direct


class TestExactSearch:
    """The dim-1 search over the breakpoints against a brute-force grid of
    10^5 + 1 nodes and against the 256-node grid scan with golden-section
    polish that it replaced (``reference_search.old_search``), on 504
    random markets under the weights of all three modes."""

    def test_block_beats_the_fine_grid_and_the_old_search(self):
        rng = np.random.default_rng(190)
        fine = np.linspace(0.0, 1.0, 10**5 + 1)
        rel = 1e-12
        # a_f = 800 takes some values below 2.2e-308, where a float holds
        # only whole multiples of the smallest subnormal, so no two
        # formulas agree there to a relative 1e-12
        tiny = 4 * np.finfo(float).smallest_subnormal
        lower = degenerate = 0
        for t in range(504):
            cfg, mu_i, mu_infl, direct = _breakpoint_market(rng, t)
            grid = TopicGrid(cfg, SEARCH)
            a_f, a_g = cfg.kernel.a_f, cfg.kernel.a_g
            y = cfg.interest_array()[:, 0]
            dist = np.abs(y[:, None] - fine)  # (N, nodes): each producer's scan is a row
            P, Q = np.exp(-a_f * dist), np.exp(-a_g * dist)
            d_i = discount(mu_i, cfg.delay)
            for W in (support_weights(mu_i, mu_infl, DirectRates.from_dense(direct), cfg),
                      support_weights(mu_i, mu_infl, DirectRates.empty(cfg.n), cfg),
                      PeerWeights.rank_one(d_i, np.ones(cfg.n))):
                block = producer_block(W, grid, cfg)
                dense = dense_weights(W)
                np.testing.assert_allclose(
                    block.values, dense_objective(block.topics, dense, np.arange(cfg.n), cfg),
                    rtol=rel, atol=tiny)
                brute = dense.T @ P
                brute *= Q
                assert np.all(block.values >= brute.max(axis=1) * (1.0 - rel) - tiny)
                degenerate += int(np.count_nonzero(block.degenerate))
                for z in np.flatnonzero(~block.degenerate):
                    _, old = old_search(lambda T: np.exp(-a_g * np.abs(T[:, 0] - y[z]))
                                        * (np.exp(-a_f * np.abs(T - y)) @ dense[:, z]))
                    assert block.values[z] >= old * (1.0 - rel) - tiny
                    lower += old < block.values[z] * (1.0 - rel)
        # the old search stops short of most maxima; some producers are degenerate
        assert lower >= 1000 and degenerate >= 100, (lower, degenerate)


class TestConsumerBlockAgainstReference:
    """The consumer block against one water-filling solve per consumer."""

    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
    @pytest.mark.parametrize("mode", list(GameMode))
    def test_block_matches_per_consumer_solves(self, mode, n):
        rng = np.random.default_rng(110 + n + 3 * list(GameMode).index(mode))
        for case in range(3):
            cfg = random_config(rng, n_min=n, n_max=n)
            X = rng.uniform(0.0, 1.0, (n, cfg.dim))
            B = match_matrix(X, cfg)
            mu_infl = rng.dirichlet(np.ones(n)) * cfg.m_infl
            if case == 1:  # zero-weight channels
                B[rng.uniform(size=B.shape) < 0.3] = 0.0
                mu_infl[::3] = 0.0
            elif case == 2:  # the influencer relays nothing: nobody follows it
                mu_infl[:] = 0.0
            delta_infl = discount(mu_infl, cfg.delay)
            lam, mu_i, rates = consumers_br_dense(delta_infl, DenseMatch(X, cfg, B), cfg, mode)
            direct = rates.toarray()
            for a, b in zip((lam, mu_i, direct), consumer_round(delta_infl, B, cfg, mode)):
                np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12 * cfg.m)
            assert np.all(np.diagonal(direct) == 0.0)
            spent = lam + mu_i + direct.sum(axis=1)
            assert np.max(np.abs(spent - cfg.m)) <= 1e-9
            if mode is GameMode.PROXY:
                assert np.all(direct == 0.0)
            if case == 2:
                assert np.all(mu_i == 0.0)

    @pytest.mark.parametrize("mode", [GameMode.PERFECT, GameMode.IMPERFECT])
    def test_blocks_of_a_fixed_budget_run_equal_the_full_sort(self, mode):
        # at M_infl = 5 and N = 200 consumers keep up to tens of direct
        # channels, so the candidate sets vary from row to row; every block
        # of the run must equal the one solved with every channel sorted
        spec = parse_sweep(Path(__file__).resolve().parent.parent / "scenarios" / "poi_sweep.swp")
        cfg = spec.base.build_config(n=200, m_infl=5.0, seed=spec.base.seed)
        block = bestresponse.consumers_br_dense
        active = []

        def checked(*args):
            out = block(*args)
            full = consumers_dense(*args, solve=water_fill_rows_sorted)
            for a, b in zip((*out[:2], out[2].toarray()), full):
                assert np.array_equal(a, b)
            active.append(int(np.max(np.diff(out[2].indptr))))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(equilibrium, "consumers_br_dense", checked)
            run_dynamics(cfg, mode, params=DynamicsParams(restarts=0))
        assert len(active) >= 5 and max(active) >= 10, active


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mode", list(GameMode))
def test_consumer_block_equals_the_dense_block(mode, dim):
    # the block reads each chunk's rates off the allocator's candidates and
    # keeps the positive direct ones as CSR: the dense block's floats, bit
    # for bit, on markets with zero-weight channels and a fixed budget small
    # enough that consumers hold direct rates
    rng = np.random.default_rng(120 + dim + 2 * list(GameMode).index(mode))
    held = 0
    for case in range(6):
        cfg = random_config(rng, n_min=_CHUNK - 3, n_max=2 * _CHUNK + 3, dim=dim)
        X = rng.uniform(0.0, 1.0, (cfg.n, dim))
        B = match_matrix(X, cfg)
        mu_infl = rng.dirichlet(np.ones(cfg.n)) * rng.uniform(0.5, 5.0)
        if case % 2:  # zero-weight channels
            B[rng.uniform(size=B.shape) < 0.3] = 0.0
            mu_infl[::3] = 0.0
        delta_infl = discount(mu_infl, cfg.delay)
        match = DenseMatch(X, cfg, B)
        lam, mu_i, direct = consumers_br_dense(delta_infl, match, cfg, mode)
        want = consumers_dense(delta_infl, match, cfg, mode)
        for a, b in zip((lam, mu_i, direct.toarray()), want):
            assert np.array_equal(a, b)
        assert np.all(direct.rates > 0.0) and direct.shape == (cfg.n, cfg.n)
        assert not np.any(direct.cols == direct.row_ids())
        held += direct.nnz
    assert held > 0 or mode is GameMode.PROXY


def _straddling_market(rng, n, dim, case):
    """(cfg, match, delta_infl) for a block whose consumers straddle the
    candidate bound: beta * m is about log of the median relayed match, so
    consumers above it have a candidate floor over r_p and hold no direct
    candidate, and those below it do.  In cases 0 and 3 the outside weight
    r_0 * b_0 is a top whose floor is r_p exactly, every consumer below the
    median sits at the floor, and one holds a direct weight r_p equal to
    it, a candidate that stays inactive; in cases 2 and 5 the outside
    weight alone puts every floor over r_p; the others draw r_p and
    r_0 * b_0 freely."""
    cfg = random_config(rng, n_min=n, n_max=n, dim=dim)
    # producers at their own interests in cases 1 and 4, where the wide
    # consumers hold direct rates
    X = cfg.interest_array() if case % 3 == 1 else rng.uniform(0.0, 1.0, (n, dim))
    B = match_matrix(X, cfg)
    mu_infl = rng.uniform(0.5, 1.0, n) * 8.0  # a large influencer budget
    if case >= 3:  # zero-weight channels
        B[rng.uniform(size=B.shape) < 0.3] = 0.0
        mu_infl[::4] = 0.0
    delta_infl = discount(mu_infl, cfg.delay)
    if case % 3 == 0:  # a direct weight of r_p, at the floor of the least relayed consumer
        y = int(np.argmin(influencer_relayed_match(delta_infl, B)))
        B[(y + 1) % n, y] = 1.0
    relayed = influencer_relayed_match(delta_infl, B)
    beta = cfg.delay.beta
    m = math.log(max(float(np.median(relayed)), 1.5)) / beta
    if case % 3 == 0:
        r_0 = float(rng.uniform(0.5, 2.0))
        floor = float(_candidate_floor(np.array([r_0]), beta * m)[0])
        cfg = dataclasses.replace(cfg, m=m, r_0=r_0, b_0=1.0, r_p=floor)
    elif case % 3 == 1:
        cfg = dataclasses.replace(cfg, m=m)
    else:
        cfg = dataclasses.replace(cfg, m=m, r_0=2.0 * cfg.r_p * math.exp(beta * m), b_0=1.0)
    return cfg, DenseMatch(X, cfg, B), delta_infl


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mode", list(GameMode))
def test_consumers_past_the_candidate_bound_take_two_channels(mode, dim):
    # a consumer whose candidate floor lies above r_p, the largest direct
    # weight, is solved on its outside and influencer channels alone: the
    # dense block's floats, bit for bit, while the others take all N + 2
    rng = np.random.default_rng(130 + dim + 2 * list(GameMode).index(mode))
    real = bestresponse._water_fill_sparse
    widths, held = [], 0

    def spy(W, budget, beta):
        widths.append(W.shape)
        return real(W, budget, beta)

    for case in range(6):
        cfg, match, delta_infl = _straddling_market(
            rng, int(rng.integers(_CHUNK, 2 * _CHUNK + 8)), dim, case)
        B = match.B
        top = np.maximum(cfg.r_0 * cfg.b_0, cfg.r_p * influencer_relayed_match(delta_infl, B))
        floor = _candidate_floor(top, cfg.delay.beta * cfg.m)
        narrow = int(np.count_nonzero(floor > cfg.r_p))
        if case % 3 == 0:
            (y,), = np.nonzero(np.any(B == 1.0, axis=0))
            assert floor[y] == cfg.r_p
        widths.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bestresponse, "_water_fill_sparse", spy)
            lam, mu_i, direct = consumers_br_dense(delta_infl, match, cfg, mode)
        want = consumers_dense(delta_infl, match, cfg, mode)
        for a, b in zip((lam, mu_i, direct.toarray()), want):
            assert np.array_equal(a, b), case
        two = sum(k for k, w in widths if w == 2)
        assert all(w in (2, cfg.n + 2) for _, w in widths)
        if mode is GameMode.PROXY:
            assert two == cfg.n
        elif case % 3 == 2:
            assert two == narrow == cfg.n
        else:
            assert two == narrow and 0 < narrow < cfg.n, (case, narrow)
        held += direct.nnz
    assert held > 0 or mode is GameMode.PROXY, held


def _random_weights(rng, n, rows):
    """PeerWeights with u, v and S uniform on [0, 2) and about 20% of each
    zero, S stored on the consumers ``rows``; u and v overlap, so most
    producers have a self term to leave out."""
    u, v = rng.uniform(0.0, 2.0, (2, n))
    S = rng.uniform(0.0, 2.0, (rows.size, n))
    for a in (u, v, S):
        a[rng.uniform(size=a.shape) < 0.2] = 0.0
    S[np.arange(rows.size), rows] = 0.0
    table = np.zeros((n, n))
    table[rows] = S
    return PeerWeights(u, v, DirectRates.from_dense(table))


class TestPeerWeightsAgainstDense:
    """Every product with PeerWeights against the same product with the
    (N, N) table, on direct rates held by every, a tenth and no consumer,
    with nobody following the influencer, with zero weights in v and under
    a sharply peaked interest kernel."""

    @staticmethod
    def _market(n, dim, density, case):
        rng = np.random.default_rng(160 + n + 7 * dim + 3 * case
                                    + {"all": 0, "tenth": 1, "none": 2}[density])
        cfg = random_config(rng, n_min=n, n_max=n, dim=dim)
        if case == 3:  # a producer's own term dominates its column near its
            # interest; exp(-450 * sqrt(2)) is still a normal float
            cfg = dataclasses.replace(cfg, kernel=dataclasses.replace(cfg.kernel, a_f=450.0))
        d = random_allocation(rng, cfg)
        mu_i, mu_infl, direct = d.mu_i.copy(), d.mu_infl.copy(), d.direct.toarray()
        if density == "tenth":
            direct[rng.uniform(size=n) >= 0.1] = 0.0
        elif density == "none":
            direct[:] = 0.0
        if case == 1:  # nobody follows the influencer: u = 0
            mu_i[:] = 0.0
        elif case == 2:  # zero entries in v
            mu_infl[rng.uniform(size=n) < 0.3] = 0.0
        d = MarketAllocation(d.lam, mu_i, direct, InfluencerAllocation(mu=mu_infl), d.X)
        held = DirectRates.from_dense(direct)
        W = support_weights(mu_i, mu_infl, held, cfg)
        dense = dense_support_weights(mu_i, mu_infl, direct, cfg)
        assert np.array_equal(dense_weights(W), dense)
        assert W.S.indptr is held.indptr and W.S.cols is held.cols  # the state's rows
        return rng, cfg, d, W, dense

    @pytest.mark.parametrize("case", [0, 1, 2, 3])
    @pytest.mark.parametrize("density", ["all", "tenth", "none"])
    @pytest.mark.parametrize("n,dim", [(_CHUNK - 1, 1), (_CHUNK, 2), (_CHUNK + 1, 1)])
    def test_products_match_the_table(self, n, dim, density, case):
        rng, cfg, d, W, dense = self._market(n, dim, density, case)
        grid = TopicGrid(cfg, _search(dim))
        close = dict(rtol=1e-12, atol=0.0)

        P, Q = dense_tables(grid.points, cfg)
        scan = Q * (P @ dense)
        if dim == 1:  # every candidate of every producer
            G = len(grid.points)
            got = _LineScan(W, grid, np.arange(n)).values(
                np.arange(n), np.zeros(n, dtype=np.intp), np.full(n, G - 1)).reshape(n, G).T
        else:
            rows = W.S.rated_rows()
            got = np.concatenate([_tile_objective(W, rows, W.S.dense_rows(rows),
                                                  grid.P, grid.Q, c)
                                  for c in chunks(n)], axis=1)
        np.testing.assert_allclose(got, scan, **close)
        np.testing.assert_allclose(grid_best(W, grid), scan.max(axis=0), **close)

        B = match_matrix(d.X, cfg)
        np.testing.assert_allclose(W.producer_values(B), np.einsum("zy,yz->z", B, dense),
                                   **close)
        np.testing.assert_allclose(DenseMatch(d.X, cfg, B).consumer_values(W),
                                   np.einsum("zy,yz->y", B, dense), **close)
        followers = dense_weights(PeerWeights.rank_one(W.u, np.ones(n)))
        np.testing.assert_allclose(influencer_followed_match(W.u, B),
                                   np.einsum("zy,yz->z", B, followers), **close)
        T = rng.uniform(0.0, 1.0, (n, dim))
        np.testing.assert_allclose(_objective(T, W, slice(None), cfg)[0],
                                   dense_objective(T, dense, np.arange(n), cfg), **close)
        if case == 1:
            assert np.all(got == 0.0) == (density == "none")


    def test_a_faint_follower_keeps_a_producer_alive(self):
        # producer 0's only other follower weighs 1e-30, so its term is lost
        # in (P @ u)[g] at every node and (P @ u - P * u)[g, 0] rounds to 0;
        # summed again without the own term, the column keeps it
        cfg = MarketConfig(dim=1, interests=(TopicPoint((0.25,)), TopicPoint((0.75,))),
                           m=1.0, m_infl=1.0, r_p=1.0, r_0=1.0, b_0=0.5,
                           kernel=KernelParams(a_f=50.0, a_g=1.0))
        W = PeerWeights.rank_one(np.array([1.0, 1e-30]), np.array([1.0, 0.5]))
        dense = dense_weights(W)
        grid = TopicGrid(cfg, SEARCH)
        P, Q = dense_tables(grid.points, cfg)
        close = dict(rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(grid_best(W, grid), (Q * (P @ dense)).max(axis=0), **close)
        X = np.array([[0.75], [0.25]])
        B = match_matrix(X, cfg)
        np.testing.assert_allclose(W.producer_values(B), np.einsum("zy,yz->z", B, dense), **close)
        np.testing.assert_allclose(DenseMatch(X, cfg, B).consumer_values(W),
                                   np.einsum("zy,yz->y", B, dense), **close)
        block = producer_block(W, grid, cfg)
        assert not block.degenerate.any() and block.topics[0, 0] == 0.75

    def test_a_producer_followed_only_by_itself_is_degenerate(self):
        # z's own follow rate cancels exactly in (P @ u - P * u) * v, so a
        # column that is zero in the table scans to exactly zero
        rng = np.random.default_rng(170)
        cfg = random_config(rng, n_min=9, n_max=9, dim=1)
        u = np.zeros(cfg.n)
        u[4] = 0.7
        W = PeerWeights.rank_one(u, rng.uniform(0.5, 1.0, cfg.n))
        grid = TopicGrid(cfg, SEARCH)
        best = grid_best(W, grid)
        assert best[4] == 0.0 and np.all(np.delete(best, 4) > 0.0)
        block = producer_block(W, grid, cfg)
        assert list(np.flatnonzero(block.degenerate)) == [4]


class TestSearchParams:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TopicSearchParams(grid_resolution=4)
        with pytest.raises(InvalidInputError):
            TopicSearchParams(refine_iters=-1)
        with pytest.raises(InvalidInputError):
            GameMode.parse("osmosis")

    def test_dim1_candidates_are_the_breakpoints(self):
        # 0, 1 and every interest, sorted; a repeated value is only a tie
        cfg = MarketConfig(dim=1, interests=tuple(TopicPoint((v,)) for v in (0.3, 1.0, 0.3, 0.7)),
                           m=1, m_infl=1, r_p=1, r_0=1, b_0=0.5)
        grid = TopicGrid(cfg, TopicSearchParams(grid_resolution=8))
        assert grid.points.shape == (6, 1)
        assert grid.points[:, 0].tolist() == [0.0, 0.3, 0.3, 0.7, 1.0, 1.0]

    def test_grid_is_lexicographic(self):
        cfg = MarketConfig(dim=2, interests=(TopicPoint((0.1, 0.2)),
                                             TopicPoint((0.7, 0.9))),
                           m=1, m_infl=1, r_p=1, r_0=1, b_0=0.5)
        grid = TopicGrid(cfg, TopicSearchParams(grid_resolution=8))
        pts = [tuple(p) for p in grid.points]
        assert pts == sorted(pts)
        assert len(pts) == 64


class TestGridTables:
    """The dim-2 grid's stored tables, built in place from the per-axis
    squares, are the dense tables of its points bit for bit."""

    @staticmethod
    def _market(rng, n, res):
        axis = np.linspace(0.0, 1.0, res)
        pts = rng.uniform(0.0, 1.0, (n, 2))
        on_node = rng.uniform(size=n) < 0.3
        pts[on_node] = axis[rng.integers(0, res, (np.count_nonzero(on_node), 2))]
        edge = rng.uniform(size=(n, 2)) < 0.1
        pts[edge] = rng.integers(0, 2, np.count_nonzero(edge))
        a_f, a_g = np.exp(rng.uniform(math.log(0.1), math.log(50.0), 2))
        return MarketConfig(dim=2, interests=tuple(TopicPoint(tuple(p)) for p in pts),
                            m=1.0, m_infl=float(n), r_p=1.0, r_0=1.0, b_0=0.5,
                            kernel=KernelParams(a_f=float(a_f), a_g=float(a_g)))

    def test_tables_are_the_dense_tables_bit_for_bit(self):
        rng = np.random.default_rng(170)
        for t in range(60):
            n = 2 if t == 0 else 60 if t == 1 else int(rng.integers(2, 61))
            res = 8 if t == 0 else 140 if t == 1 else int(rng.integers(8, 141))
            cfg = self._market(rng, n, res)
            grid = TopicGrid(cfg, TopicSearchParams(grid_resolution=res))
            P, Q = dense_tables(grid.points, cfg)
            assert np.array_equal(grid.P, P) and np.array_equal(grid.Q, Q), (t, n, res)

    def test_build_peak_is_two_tables(self):
        # P, Q, the points and two (R, N) squares; the distance buffer of
        # pairwise_distances, its per-coordinate differences and the -a_g * D
        # temporary made it 3.08 tables
        n, res = 40, 128
        cfg = self._market(np.random.default_rng(171), n, res)
        search = TopicSearchParams(grid_resolution=res)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            grid = TopicGrid(cfg, search)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        table = 8 * res * res * n
        assert grid.P.nbytes == grid.Q.nbytes == table
        assert peak <= 2.2 * table, f"peak {peak / table:.2f} tables"
