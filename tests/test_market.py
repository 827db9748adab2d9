"""Utilities, the potential identity, and allocation invariants."""

import dataclasses
import re

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
    InfluencerAllocation,
    MarketAllocation,
    MarketConfig,
    consumer_utilities,
    influencer_utility,
    match_matrix,
    producer_support,
    producer_support_via_influencer,
    social_welfare,
)
from markets_util import random_allocation, random_config, random_consumer, with_consumer, with_topic


# -- brute-force scalar reimplementations (the oracle for the vector core) --

def _match(omega, cfg, z, y):
    return match_prob(TopicPoint(tuple(omega.X[z])), cfg.interests[z], cfg.interests[y],
                      cfg.kernel)


def brute_consumer_utility(y, omega, cfg):
    total = cfg.r_0 * cfg.b_0 * discount(float(omega.lam[y]), cfg.delay)
    for z in range(cfg.n):
        if z == y:
            continue
        b = _match(omega, cfg, z, y)
        total += cfg.r_p * b * discount(float(omega.mu_infl[z]), cfg.delay) \
            * discount(float(omega.mu_i[y]), cfg.delay)
        total += cfg.r_p * b * discount(float(omega.direct[y, z]), cfg.delay)
    return total


def brute_influencer_utility(omega, cfg):
    total = 0.0
    for z in range(cfg.n):
        for y in range(cfg.n):
            if y == z:
                continue
            total += cfg.r_p * _match(omega, cfg, z, y) \
                * discount(float(omega.mu_infl[z]), cfg.delay) \
                * discount(float(omega.mu_i[y]), cfg.delay)
    return total


def brute_producer_support(z, omega, cfg):
    total = 0.0
    for y in range(cfg.n):
        if y == z:
            continue
        b = _match(omega, cfg, z, y)
        total += cfg.r_p * b * discount(float(omega.mu_infl[z]), cfg.delay) \
            * discount(float(omega.mu_i[y]), cfg.delay)
        total += cfg.r_p * b * discount(float(omega.direct[y, z]), cfg.delay)
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
                assert abs(consumer_utilities(omega, cfg)[y] - expect) < 1e-12
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
                cfg.r_p * _match(omega, cfg, z, y)
                * discount(float(omega.direct[y, z]), cfg.delay)
                for y in range(cfg.n) if y != z)
            assert abs(producer_support(z, omega, cfg) - (via + direct_only)) < 1e-12

    def test_match_matrix_against_scalar_kernel(self):
        rng = np.random.default_rng(23)
        cfg = random_config(rng, dim=2)
        omega = random_allocation(rng, cfg)
        B = match_matrix(omega.X, cfg)
        for z in range(cfg.n):
            for y in range(cfg.n):
                assert abs(B[z, y] - _match(omega, cfg, z, y)) < 1e-14


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
            lam=np.zeros(2), mu_i=np.array([cfg.m, 0.0]), direct=np.zeros((2, 2)),
            influencer=InfluencerAllocation(mu=np.array([0.0, cfg.m_infl])),
            X=np.full((2, 1), 0.5),
        )
        omega.validate(cfg)
        expect = cfg.r_p * discount(cfg.m_infl, cfg.delay) * discount(cfg.m, cfg.delay)
        u = consumer_utilities(omega, cfg)
        assert abs(u[0] - expect) < 1e-14
        assert u[1] == 0.0

    def test_more_attention_never_hurts(self):
        rng = np.random.default_rng(25)
        cfg = random_config(rng)
        omega = random_allocation(rng, cfg, spend_fraction=0.4)
        base = consumer_utilities(omega, cfg)[1]
        row = omega.direct[1].copy()
        row[0] += 0.1
        for more in (with_consumer(omega, 1, lam=omega.lam[1] + 0.1),
                     with_consumer(omega, 1, mu_i=omega.mu_i[1] + 0.1),
                     with_consumer(omega, 1, direct=row)):
            assert consumer_utilities(more, cfg)[1] >= base


class TestPotentialIdentity:
    """Welfare moves by exactly the deviating agent's own utility change."""

    def test_consumer_deviation(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            cfg = random_config(rng)
            omega = random_allocation(rng, cfg)
            y = int(rng.integers(0, cfg.n))
            new = with_consumer(omega, y, *random_consumer(rng, y, cfg))
            d_phi = social_welfare(new, cfg) - social_welfare(omega, cfg)
            d_own = consumer_utilities(new, cfg)[y] - consumer_utilities(omega, cfg)[y]
            assert abs(d_phi - d_own) < 1e-9

    def test_influencer_deviation(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            cfg = random_config(rng)
            omega = random_allocation(rng, cfg)
            new_mu = rng.dirichlet(np.ones(cfg.n)) * rng.uniform(0.1, 1.0) * cfg.m_infl
            new = dataclasses.replace(omega, influencer=InfluencerAllocation(mu=new_mu))
            d_phi = social_welfare(new, cfg) - social_welfare(omega, cfg)
            d_own = influencer_utility(new, cfg) - influencer_utility(omega, cfg)
            assert abs(d_phi - d_own) < 1e-9

    def test_producer_deviation(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            cfg = random_config(rng)
            omega = random_allocation(rng, cfg)
            z = int(rng.integers(0, cfg.n))
            new = with_topic(omega, z, rng.uniform(0, 1, cfg.dim))
            d_phi = social_welfare(new, cfg) - social_welfare(omega, cfg)
            d_own = producer_support(z, new, cfg) - producer_support(z, omega, cfg)
            assert abs(d_phi - d_own) < 1e-9

    def test_consumer_utility_concave_in_own_rates(self):
        rng = np.random.default_rng(29)
        cfg = random_config(rng)
        omega = random_allocation(rng, cfg)
        y = 2 % cfg.n

        def with_rates(vec):
            return with_consumer(omega, y, vec[0], vec[1], np.insert(vec[2:], y, 0.0))

        for _ in range(50):
            a = rng.dirichlet(np.ones(cfg.n + 1)) * rng.uniform(0.1, 1.0) * cfg.m
            b = rng.dirichlet(np.ones(cfg.n + 1)) * rng.uniform(0.1, 1.0) * cfg.m
            t = rng.uniform(0.0, 1.0)
            u_mix = consumer_utilities(with_rates(t * a + (1 - t) * b), cfg)[y]
            u_chord = t * consumer_utilities(with_rates(a), cfg)[y] \
                + (1 - t) * consumer_utilities(with_rates(b), cfg)[y]
            assert u_mix >= u_chord - 1e-12


class TestValidation:
    def _simple_cfg(self):
        return MarketConfig(dim=1, interests=(TopicPoint((0.2,)), TopicPoint((0.8,))),
                            m=1.0, m_infl=1.0, r_p=1.0, r_0=1.0, b_0=0.5)

    def _omega(self, **fields):
        """A feasible two-member state with the given fields replaced."""
        state = dict(lam=np.zeros(2), mu_i=np.zeros(2), direct=np.zeros((2, 2)),
                     influencer=InfluencerAllocation(mu=np.zeros(2)),
                     X=np.array([[0.2], [0.8]]))
        state.update(fields)
        return MarketAllocation(**state)

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

    def test_arrays_are_read_only(self):
        omega = self._omega(lam=[0.1, 0.2])
        omega.validate(self._simple_cfg())
        assert omega.lam.dtype == float and omega.mu_infl is omega.influencer.mu
        for a in (omega.lam, omega.mu_i, omega.direct, omega.mu_infl, omega.X):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.5

    def test_budget_overrun_rejected(self):
        omega = self._omega(lam=np.array([0.5, 0.0]), mu_i=np.array([0.2, 0.0]),
                            direct=np.array([[0.0, 0.4], [0.0, 0.0]]))
        with pytest.raises(InvalidInputError, match="consumer 0 spends"):
            omega.validate(self._simple_cfg())

    def test_influencer_overrun_rejected(self):
        omega = self._omega(influencer=InfluencerAllocation(mu=np.array([0.8, 0.3])))
        with pytest.raises(InvalidInputError, match="influencer spends"):
            omega.validate(self._simple_cfg())

    def test_self_direct_rate_rejected(self):
        omega = self._omega(direct=np.array([[0.0, 0.0], [0.0, 0.1]]))
        with pytest.raises(InvalidInputError, match=r"direct\[1, 1\].*itself"):
            omega.validate(self._simple_cfg())

    @pytest.mark.parametrize("field, value, name", [
        ("lam", np.zeros(3), "lam"),
        ("mu_i", np.zeros((2, 1)), "mu_i"),
        ("direct", np.zeros((2, 3)), "direct"),  # a rate on an unknown producer
        ("influencer", InfluencerAllocation(mu=np.zeros(3)), "influencer.mu"),
        ("X", np.full((3, 1), 0.5), "X"),
        ("X", np.full((2, 2), 0.5), "X"),  # topics of the wrong dimension
        ("X", np.full(2, 0.5), "X"),
    ])
    def test_wrong_shape_rejected(self, field, value, name):
        omega = self._omega(**{field: value})
        with pytest.raises(InvalidInputError, match=rf"^{re.escape(name)} has shape"):
            omega.validate(self._simple_cfg())

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
    @pytest.mark.parametrize("field, index", [("lam", (1,)), ("mu_i", (0,)),
                                              ("direct", (0, 1))])
    def test_bad_rate_rejected(self, field, index, bad):
        a = np.zeros((2, 2) if field == "direct" else 2)
        a[index] = bad
        omega = self._omega(**{field: a})
        where = re.escape(f"{field}[{', '.join(map(str, index))}]")
        with pytest.raises(InvalidInputError, match=rf"^{where} = .* negative or not finite"):
            omega.validate(self._simple_cfg())

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
    def test_bad_influencer_rate_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="influencer rates"):
            InfluencerAllocation(mu=np.array([0.1, bad]))

    @pytest.mark.parametrize("bad", [-0.1, 1.2, np.nan])
    def test_topic_outside_unit_box_rejected(self, bad):
        omega = self._omega(X=np.array([[0.2], [bad]]))
        with pytest.raises(InvalidInputError, match=r"^X\[1, 0\] = .* outside the unit box"):
            omega.validate(self._simple_cfg())
