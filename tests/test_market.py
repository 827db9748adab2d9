"""Utilities, the potential identity, and allocation invariants."""

import numpy as np
import pytest

from cme.kernels import (
    DelayParams,
    InvalidInputError,
    KernelParams,
    TopicPoint,
    discount,
    match_prob,
)
from cme.market import (
    ConsumerAllocation,
    ContentAssignment,
    InfluencerAllocation,
    MarketAllocation,
    MarketConfig,
    allocation_from_dense,
    consumer_utility,
    dense_from_allocation,
    influencer_utility,
    match_matrix,
    producer_support,
    producer_support_via_influencer,
    social_welfare,
)
from markets_util import random_allocation, random_config, random_consumer


# -- brute-force scalar reimplementations (the oracle for the vector core) --

def brute_consumer_utility(y, omega, cfg):
    c = omega.consumers[y]
    total = cfg.r_0 * cfg.b_0 * discount(c.lambda_out, cfg.delay)
    for z in range(cfg.n):
        if z == y:
            continue
        b = match_prob(omega.content.x[z], cfg.interests[z], cfg.interests[y], cfg.kernel)
        total += cfg.r_p * b * discount(float(omega.influencer.mu[z]), cfg.delay) \
            * discount(c.mu_infl_follow, cfg.delay)
        total += cfg.r_p * b * discount(c.mu_direct.get(z, 0.0), cfg.delay)
    return total


def brute_influencer_utility(omega, cfg):
    total = 0.0
    for z in range(cfg.n):
        for y in range(cfg.n):
            if y == z:
                continue
            b = match_prob(omega.content.x[z], cfg.interests[z], cfg.interests[y], cfg.kernel)
            total += cfg.r_p * b * discount(float(omega.influencer.mu[z]), cfg.delay) \
                * discount(omega.consumers[y].mu_infl_follow, cfg.delay)
    return total


def brute_producer_support(z, omega, cfg):
    total = 0.0
    for y in range(cfg.n):
        if y == z:
            continue
        b = match_prob(omega.content.x[z], cfg.interests[z], cfg.interests[y], cfg.kernel)
        total += cfg.r_p * b * discount(float(omega.influencer.mu[z]), cfg.delay) \
            * discount(omega.consumers[y].mu_infl_follow, cfg.delay)
        total += cfg.r_p * b * discount(omega.consumers[y].mu_direct.get(z, 0.0), cfg.delay)
    return total


class TestUtilitiesAgainstBruteForce:
    def test_all_five_operations(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            cfg = random_config(rng)
            omega = random_allocation(rng, cfg)
            welfare = 0.0
            for y in range(cfg.n):
                expect = brute_consumer_utility(y, omega, cfg)
                assert abs(consumer_utility(y, omega, cfg) - expect) < 1e-12
                welfare += expect
            assert abs(social_welfare(omega, cfg) - welfare) < 1e-10
            assert abs(influencer_utility(omega, cfg)
                       - brute_influencer_utility(omega, cfg)) < 1e-12
            for z in range(cfg.n):
                assert abs(producer_support(z, omega, cfg)
                           - brute_producer_support(z, omega, cfg)) < 1e-12

    def test_support_splits_into_influencer_and_direct_route(self):
        rng = np.random.default_rng(22)
        cfg = random_config(rng)
        omega = random_allocation(rng, cfg)
        for z in range(cfg.n):
            via = producer_support_via_influencer(z, omega, cfg)
            direct_only = sum(
                cfg.r_p
                * match_prob(omega.content.x[z], cfg.interests[z], cfg.interests[y], cfg.kernel)
                * discount(omega.consumers[y].mu_direct.get(z, 0.0), cfg.delay)
                for y in range(cfg.n) if y != z)
            assert abs(producer_support(z, omega, cfg) - (via + direct_only)) < 1e-12

    def test_match_matrix_against_scalar_kernel(self):
        rng = np.random.default_rng(23)
        cfg = random_config(rng, dim=2)
        omega = random_allocation(rng, cfg)
        B = match_matrix(np.array([p.coords for p in omega.content.x]), cfg)
        for z in range(cfg.n):
            for y in range(cfg.n):
                expect = match_prob(omega.content.x[z], cfg.interests[z],
                                    cfg.interests[y], cfg.kernel)
                assert abs(B[z, y] - expect) < 1e-14


class TestClosedForms:
    def test_zero_allocation_means_zero_utility(self):
        rng = np.random.default_rng(24)
        cfg = random_config(rng)
        omega = random_allocation(rng, cfg, spend_fraction=0.0)
        assert social_welfare(omega, cfg) == 0.0
        assert influencer_utility(omega, cfg) == 0.0
        for z in range(cfg.n):
            assert producer_support(z, omega, cfg) == 0.0

    def test_two_member_fully_following_market(self):
        # Both members share one interest and produce exactly it, so every
        # match probability is 1; consumer 0 follows the influencer with its
        # whole budget and the influencer covers producer 1 with its whole
        # budget.  Consumer 0's utility collapses to r_p*delta(M_infl)*delta(M).
        point = TopicPoint((0.5,))
        cfg = MarketConfig(dim=1, interests=(point, point), m=1.3, m_infl=2.1,
                           r_p=1.7, r_0=1.0, b_0=0.5,
                           kernel=KernelParams(2.0, 2.0), delay=DelayParams(1.0))
        omega = MarketAllocation(
            consumers=(
                ConsumerAllocation(lambda_out=0.0, mu_infl_follow=cfg.m, mu_direct={}),
                ConsumerAllocation(lambda_out=0.0, mu_infl_follow=0.0, mu_direct={}),
            ),
            influencer=InfluencerAllocation(mu=np.array([0.0, cfg.m_infl])),
            content=ContentAssignment(x=(point, point)),
        )
        omega.validate(cfg)
        expect = cfg.r_p * discount(cfg.m_infl, cfg.delay) * discount(cfg.m, cfg.delay)
        assert abs(consumer_utility(0, omega, cfg) - expect) < 1e-14
        assert consumer_utility(1, omega, cfg) == 0.0

    def test_more_attention_never_hurts(self):
        rng = np.random.default_rng(25)
        cfg = random_config(rng)
        omega = random_allocation(rng, cfg, spend_fraction=0.4)
        base = consumer_utility(1, omega, cfg)
        c = omega.consumers[1]
        for bumped in (
            ConsumerAllocation(c.lambda_out + 0.1, c.mu_infl_follow, c.mu_direct),
            ConsumerAllocation(c.lambda_out, c.mu_infl_follow + 0.1, c.mu_direct),
            ConsumerAllocation(c.lambda_out, c.mu_infl_follow,
                               {**c.mu_direct, 0: c.mu_direct.get(0, 0.0) + 0.1}),
        ):
            consumers = list(omega.consumers)
            consumers[1] = bumped
            more = MarketAllocation(consumers=tuple(consumers),
                                    influencer=omega.influencer, content=omega.content)
            assert consumer_utility(1, more, cfg) >= base


class TestPotentialIdentity:
    """Welfare moves by exactly the deviating agent's own utility change."""

    def test_consumer_deviation(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            cfg = random_config(rng)
            omega = random_allocation(rng, cfg)
            y = int(rng.integers(0, cfg.n))
            consumers = list(omega.consumers)
            consumers[y] = random_consumer(rng, y, cfg)
            new = MarketAllocation(consumers=tuple(consumers),
                                   influencer=omega.influencer, content=omega.content)
            d_phi = social_welfare(new, cfg) - social_welfare(omega, cfg)
            d_own = consumer_utility(y, new, cfg) - consumer_utility(y, omega, cfg)
            assert abs(d_phi - d_own) < 1e-9

    def test_influencer_deviation(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            cfg = random_config(rng)
            omega = random_allocation(rng, cfg)
            new_mu = rng.dirichlet(np.ones(cfg.n)) * rng.uniform(0.1, 1.0) * cfg.m_infl
            new = MarketAllocation(consumers=omega.consumers,
                                   influencer=InfluencerAllocation(mu=new_mu),
                                   content=omega.content)
            d_phi = social_welfare(new, cfg) - social_welfare(omega, cfg)
            d_own = influencer_utility(new, cfg) - influencer_utility(omega, cfg)
            assert abs(d_phi - d_own) < 1e-9

    def test_producer_deviation(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            cfg = random_config(rng)
            omega = random_allocation(rng, cfg)
            z = int(rng.integers(0, cfg.n))
            x = list(omega.content.x)
            x[z] = TopicPoint(tuple(rng.uniform(0, 1, cfg.dim)))
            new = MarketAllocation(consumers=omega.consumers,
                                   influencer=omega.influencer,
                                   content=ContentAssignment(x=tuple(x)))
            d_phi = social_welfare(new, cfg) - social_welfare(omega, cfg)
            d_own = producer_support(z, new, cfg) - producer_support(z, omega, cfg)
            assert abs(d_phi - d_own) < 1e-9

    def test_consumer_utility_concave_in_own_rates(self):
        rng = np.random.default_rng(29)
        cfg = random_config(rng)
        omega = random_allocation(rng, cfg)
        y = 2 % cfg.n

        def with_rates(vec):
            consumers = list(omega.consumers)
            direct = {z: float(vec[2 + z - (z > y)]) for z in range(cfg.n) if z != y}
            consumers[y] = ConsumerAllocation(float(vec[0]), float(vec[1]), direct)
            return MarketAllocation(consumers=tuple(consumers),
                                    influencer=omega.influencer, content=omega.content)

        for _ in range(50):
            a = rng.dirichlet(np.ones(cfg.n + 1)) * rng.uniform(0.1, 1.0) * cfg.m
            b = rng.dirichlet(np.ones(cfg.n + 1)) * rng.uniform(0.1, 1.0) * cfg.m
            t = rng.uniform(0.0, 1.0)
            u_mix = consumer_utility(y, with_rates(t * a + (1 - t) * b), cfg)
            u_chord = t * consumer_utility(y, with_rates(a), cfg) \
                + (1 - t) * consumer_utility(y, with_rates(b), cfg)
            assert u_mix >= u_chord - 1e-12


class TestDenseRoundTrip:
    def test_allocation_from_dense_round_trips(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            cfg = random_config(rng)
            omega = random_allocation(rng, cfg)
            dense = dense_from_allocation(omega, cfg)
            back = allocation_from_dense(dense, cfg)
            for a, b in zip(back.consumers, omega.consumers):
                # same keys in the same order, same bits
                assert list(a.mu_direct.items()) == list(b.mu_direct.items())
                assert (a.lambda_out, a.mu_infl_follow) == (b.lambda_out, b.mu_infl_follow)
            again = dense_from_allocation(back, cfg)
            for u, v in zip(again, dense):
                np.testing.assert_array_equal(u, v)

    def test_zero_rates_and_the_self_channel_are_dropped(self):
        cfg = random_config(np.random.default_rng(13), n_min=4)
        dense = dense_from_allocation(random_allocation(np.random.default_rng(14), cfg), cfg)
        dense.direct[:, 1] = 0.0
        dense.direct[2, 2] = 0.25
        back = allocation_from_dense(dense, cfg)
        for y, c in enumerate(back.consumers):
            expected = [z for z in range(cfg.n) if z not in (1, y)]
            assert list(c.mu_direct) == expected
            assert all(type(z) is int and type(r) is float for z, r in c.mu_direct.items())


class TestValidation:
    def _simple_cfg(self):
        return MarketConfig(dim=1, interests=(TopicPoint((0.2,)), TopicPoint((0.8,))),
                            m=1.0, m_infl=1.0, r_p=1.0, r_0=1.0, b_0=0.5)

    def test_config_validation(self):
        p = TopicPoint((0.5,))
        with pytest.raises(InvalidInputError):
            MarketConfig(dim=3, interests=(p, p), m=1, m_infl=1, r_p=1, r_0=1, b_0=0.5)
        with pytest.raises(InvalidInputError):
            MarketConfig(dim=1, interests=(p,), m=1, m_infl=1, r_p=1, r_0=1, b_0=0.5)
        with pytest.raises(InvalidInputError):
            MarketConfig(dim=2, interests=(p, p), m=1, m_infl=1, r_p=1, r_0=1, b_0=0.5)
        with pytest.raises(InvalidInputError):
            MarketConfig(dim=1, interests=(p, p), m=1, m_infl=1, r_p=1, r_0=1, b_0=1.5)

    def test_interest_array_is_cached_and_read_only(self):
        cfg = random_config(np.random.default_rng(5))
        Y = cfg.interest_array()
        assert Y is cfg.interest_array()
        assert Y.tolist() == [list(p.coords) for p in cfg.interests]
        with pytest.raises(ValueError, match="read-only"):
            Y[0, 0] = 0.5

    def test_budget_overrun_rejected(self):
        cfg = self._simple_cfg()
        omega = MarketAllocation(
            consumers=(ConsumerAllocation(0.9, 0.2, {}), ConsumerAllocation(0, 0, {})),
            influencer=InfluencerAllocation(mu=np.zeros(2)),
            content=ContentAssignment(x=cfg.interests))
        with pytest.raises(InvalidInputError, match="consumer 0"):
            omega.validate(cfg)

    def test_self_direct_rate_rejected(self):
        cfg = self._simple_cfg()
        omega = MarketAllocation(
            consumers=(ConsumerAllocation(0, 0, {0: 0.1}), ConsumerAllocation(0, 0, {})),
            influencer=InfluencerAllocation(mu=np.zeros(2)),
            content=ContentAssignment(x=cfg.interests))
        with pytest.raises(InvalidInputError, match="itself"):
            omega.validate(cfg)

    def test_unknown_producer_rejected(self):
        cfg = self._simple_cfg()
        omega = MarketAllocation(
            consumers=(ConsumerAllocation(0, 0, {5: 0.1}), ConsumerAllocation(0, 0, {})),
            influencer=InfluencerAllocation(mu=np.zeros(2)),
            content=ContentAssignment(x=cfg.interests))
        with pytest.raises(InvalidInputError, match="unknown producer"):
            omega.validate(cfg)

    def test_influencer_overrun_rejected(self):
        cfg = self._simple_cfg()
        omega = MarketAllocation(
            consumers=(ConsumerAllocation(0, 0, {}), ConsumerAllocation(0, 0, {})),
            influencer=InfluencerAllocation(mu=np.array([0.8, 0.3])),
            content=ContentAssignment(x=cfg.interests))
        with pytest.raises(InvalidInputError, match="influencer"):
            omega.validate(cfg)

    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidInputError):
            ConsumerAllocation(-0.1, 0.0, {})
        with pytest.raises(InvalidInputError):
            InfluencerAllocation(mu=np.array([0.1, -0.2]))
