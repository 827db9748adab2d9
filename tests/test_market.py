"""Utilities, the potential identity, and allocation invariants."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from cme.kernels import (
    DelayParams,
    InvalidInputError,
    KernelParams,
    TopicPoint,
    discount,
)
from cme import market
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
    social_welfare,
    support_weights,
)
from cme.bestresponse import GameMode, TopicSearchParams
from cme.equilibrium import DynamicsParams, run_dynamics
from markets_util import random_allocation, random_config, random_consumer, with_consumer, with_topic
from oracles import (
    followed_match_blas,
    match_prob,
    match_table,
    producer_support_via_influencer,
    relayed_match_blas,
)


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
        total += cfg.r_p * b * discount(float(omega.direct.toarray()[y, z]), cfg.delay)
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
        total += cfg.r_p * b * discount(float(omega.direct.toarray()[y, z]), cfg.delay)
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
                * discount(float(omega.direct.toarray()[y, z]), cfg.delay)
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


def three_term_utilities(omega, cfg):
    """U_c(y) term by term: relayed, direct, outside (the formula
    ``consumer_utilities`` evaluated before it read the support weights)."""
    B = match_matrix(omega.X, cfg)
    d = cfg.delay
    d_infl = discount(omega.mu_infl, d)
    relayed = B.T @ d_infl - np.diagonal(B) * d_infl
    direct = np.sum(B.T * discount(omega.direct.toarray(), d), axis=1)
    return (cfg.r_p * (discount(omega.mu_i, d) * relayed + direct)
            + cfg.r_0 * cfg.b_0 * discount(omega.lam, d))


class TestUtilitiesFromSupportWeights:
    """consumer_utilities reads one support-weight table; the three-term
    formula is its reference."""

    @pytest.mark.parametrize("mode", list(GameMode))
    @pytest.mark.parametrize("case", ["random", "nobody_follows", "zero_weight_channels"])
    def test_matches_three_term_formula(self, mode, case):
        rng = np.random.default_rng(25 + 3 * list(GameMode).index(mode))
        for _ in range(6):
            cfg = random_config(rng, n_max=80)
            omega = random_allocation(rng, cfg)
            mu_i, mu_infl, direct = omega.mu_i.copy(), omega.mu_infl.copy(), omega.direct.toarray()
            if mode is GameMode.PROXY:
                direct[:] = 0.0
            if case == "nobody_follows":
                mu_i[:] = 0.0
            elif case == "zero_weight_channels":
                mu_infl[::2] = 0.0
                direct[:, 1] = 0.0
                direct[::3] = 0.0
            omega = MarketAllocation(omega.lam, mu_i, direct,
                                     InfluencerAllocation(mu=mu_infl), omega.X)
            got = consumer_utilities(omega, cfg)
            np.testing.assert_allclose(got, three_term_utilities(omega, cfg),
                                       rtol=1e-12, atol=0.0)
            assert social_welfare(omega, cfg) == float(got.sum())


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
        row = omega.direct.toarray()[1].copy()
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
        omega = self._omega(lam=[0.1, 0.2], direct=[[0.0, 0.3], [0.0, 0.0]])
        omega.validate(self._simple_cfg())
        assert omega.lam.dtype == float and omega.mu_infl is omega.influencer.mu
        d = omega.direct
        for a in (omega.lam, omega.mu_i, d.indptr, d.cols, d.rates, omega.mu_infl, omega.X):
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


def _sparse_table(rng, n_rows, n):
    """A random (n_rows, n) direct-rate table: zero diagonal, some rows
    empty, the others holding rates on about a third of the producers."""
    A = rng.uniform(0.1, 2.0, (n_rows, n)) * (rng.uniform(size=(n_rows, n)) < 0.35)
    A[rng.uniform(size=n_rows) < 0.4] = 0.0
    np.fill_diagonal(A, 0.0)
    return A


class TestDirectRates:
    """The CSR direct rates against their dense table."""

    @pytest.mark.parametrize("n", [2, 5, 63, 64, 65, 150])
    def test_dense_round_trip(self, n):
        rng = np.random.default_rng(300 + n)
        A = _sparse_table(rng, n, n)
        d = DirectRates.from_dense(A)
        assert np.array_equal(d.toarray(), A) and d.shape == (n, n)
        assert d.nnz == np.count_nonzero(A) and np.all(d.rates > 0.0)
        for y in range(n):
            cols, rates = d.row(y)
            assert np.array_equal(cols, np.flatnonzero(A[y]))
            assert np.array_equal(rates, A[y, cols])
        for a in (d.indptr, d.cols, d.rates):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        again = DirectRates(d.indptr, d.cols, d.rates, n)
        assert np.array_equal(again.toarray(), A)
        assert DirectRates.empty(n).nnz == 0
        assert np.array_equal(DirectRates.empty(n).toarray(), np.zeros((n, n)))
        omega = MarketAllocation(np.zeros(n), np.zeros(n), A, InfluencerAllocation(np.zeros(n)),
                                 np.zeros((n, 1)))
        assert isinstance(omega.direct, DirectRates)
        assert np.array_equal(omega.direct.toarray(), A)

    @pytest.mark.parametrize("n", [3, 64, 130])
    def test_reads_match_the_dense_table(self, n):
        # every read is the dense table's, float for float
        rng = np.random.default_rng(310 + n)
        A = _sparse_table(rng, n, n)
        d = DirectRates.from_dense(A)
        rows = np.flatnonzero(A.any(axis=1))
        assert np.array_equal(d.rated_rows(), rows)
        assert np.array_equal(d.row_ids(), np.nonzero(A)[0])
        assert np.array_equal(d.dense_rows(rows), A[rows])
        assert np.array_equal(d.dense_rows(rows[1:4]), A[rows[1:4]])
        assert d.dense_rows(rows[:0]).shape == (0, n)
        assert np.array_equal(d.row_sums(), A.sum(axis=1))
        for y in (0, n // 2, n - 1):
            row = _sparse_table(rng, 1, n)[0]
            row[y] = 0.0
            B = A.copy()
            B[y] = row
            cols = np.flatnonzero(row)
            assert np.array_equal(d.with_row(y, cols, row[cols]).toarray(), B)
            assert d.max_change(DirectRates.from_dense(B)) == float(np.max(np.abs(A - B)))
        assert d.max_change(DirectRates.empty(n)) == float(np.max(A))
        assert DirectRates.empty(n).max_change(DirectRates.empty(n)) == 0.0

    @pytest.mark.parametrize("indptr, cols", [
        ([1, 2, 2], [0, 1]),        # indptr must start at 0
        ([0, 2, 1], [0, 1]),        # and never fall
        ([0, 1, 3], [0, 1]),        # and end at nnz
        ([0, 2, 2], [1, 0]),        # producers ascend within a row
        ([0, 2, 2], [1, 1]),        # once each
        ([0, 1, 2], [0, 3]),        # and exist
    ])
    def test_malformed_rows_rejected(self, indptr, cols):
        # construction only converts; validate checks the rows' layout first
        direct = DirectRates(np.array(indptr), np.array(cols), np.ones(len(cols)), 3)
        with pytest.raises(InvalidInputError, match="ascending producers"):
            direct.check_rows()
        omega = MarketAllocation(np.zeros(2), np.zeros(2), direct,
                                 InfluencerAllocation(np.zeros(2)), np.zeros((2, 1)))
        with pytest.raises(InvalidInputError, match="ascending producers"):
            omega.validate(TestValidation()._simple_cfg())

    def test_row_boundaries_may_descend(self):
        d = DirectRates(np.array([0, 1, 2]), np.array([1, 0]), np.array([0.5, 0.25]), 2)
        d.check_rows()
        assert d.toarray().tolist() == [[0.0, 0.5], [0.25, 0.0]]


# -- the reductions of the match matrix: numpy's contraction, not BLAS --

_BLAS_FUNCTIONS = (np.dot, np.inner, np.vdot, np.tensordot)


def _refuse(*args, **kwargs):
    raise AssertionError("a product with the match matrix went to BLAS")


class NoBlas(np.ndarray):
    """A match matrix that refuses every product numpy hands to BLAS: the
    @ operators, ``np.matmul``, ``dot`` and the functions of
    _BLAS_FUNCTIONS.  Everything else runs on the plain array."""

    __matmul__ = __rmatmul__ = __imatmul__ = dot = _refuse

    def __array_function__(self, func, types, args, kwargs):
        if func in _BLAS_FUNCTIONS:
            _refuse()
        return super().__array_function__(func, types, args, kwargs)

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul:
            _refuse()

        def plain(xs):
            return tuple(x.view(np.ndarray) if isinstance(x, NoBlas) else x for x in xs)

        if out is not None:
            kwargs["out"] = plain(out)
        return getattr(ufunc, method)(*plain(inputs), **kwargs)


def _market_at(n, seed):
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, n_max=n, n_min=n)
    omega = random_allocation(rng, cfg)
    return cfg, omega, match_matrix(omega.X, cfg)


def _sharp_market(n, seed):
    """Producers at their own interests under a kernel so sharp that each
    one's own term is most of its sums: ``less_own`` sums those again."""
    cfg, omega, _ = _market_at(n, seed)
    cfg = dataclasses.replace(cfg, kernel=KernelParams(a_f=400.0, a_g=1.0))
    return cfg, omega, match_matrix(cfg.interest_array(), cfg)


class TestMatchReductions:
    """Every sum over the match matrix B is numpy's own ``einsum``
    contraction: no product with B goes to BLAS."""

    def test_the_guard_refuses_every_blas_product(self):
        B = np.eye(3).view(NoBlas)
        d = np.ones(3)
        for product in (lambda: B @ d, lambda: d @ B, lambda: B.T @ d, lambda: B.dot(d),
                        lambda: np.dot(B, d), lambda: np.matmul(B, d), lambda: np.inner(B, d),
                        lambda: np.vdot(B, B), lambda: np.tensordot(B, d, 1)):
            with pytest.raises(AssertionError, match="BLAS"):
                product()
        assert type(np.einsum("zy,y->z", B, d)) is np.ndarray

    @pytest.mark.parametrize("seed", [31, 32])
    def test_no_product_with_b_goes_to_blas(self, seed):
        cfg, omega, B = _market_at(300, seed)
        W = support_weights(omega.mu_i, omega.mu_infl, omega.direct, cfg)
        assert W.S.nnz
        guarded = B.view(NoBlas)
        for reduce in (lambda B: influencer_relayed_match(W.v, B),
                       lambda B: influencer_followed_match(W.u, B),
                       W.producer_values,
                       lambda B: DenseMatch(omega.X, cfg, B).consumer_values(W)):
            got = reduce(guarded)
            assert np.array_equal(np.asarray(got), reduce(B))

    @pytest.mark.parametrize("market", [_market_at, _sharp_market])
    def test_followed_is_the_rank_one_producer_values(self, market):
        cfg, omega, B = market(300, 33)
        n = cfg.n
        for d in (discount(omega.mu_i, cfg.delay), np.where(np.arange(n) % 3, 0.0, 1.0)):
            assert np.array_equal(influencer_followed_match(d, B),
                                  PeerWeights.rank_one(d, np.ones(n)).producer_values(B))


class TestMatchReductionsAgainstBlas:
    """The ``einsum`` contraction against the BLAS products it replaced,
    ``B.T @ d`` and ``B @ d``, to 1e-13 relative: both sum N <= 300
    nonnegative terms, and ``less_own`` at most doubles their rounding."""

    @staticmethod
    def _agree(d, B):
        for new, old in ((influencer_relayed_match, relayed_match_blas),
                         (influencer_followed_match, followed_match_blas)):
            np.testing.assert_allclose(new(d, B), old(d, B), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("mode", list(GameMode))
    def test_states_of_the_dynamics(self, mode, dim):
        rng = np.random.default_rng([34, dim, list(GameMode).index(mode)])
        for _ in range(2):
            cfg = random_config(rng, n_max=300, n_min=100, dim=dim)
            omega = run_dynamics(cfg, mode, params=DynamicsParams(max_rounds=2, restarts=0),
                                 search=TopicSearchParams(grid_resolution=16)).omega
            B = match_matrix(omega.X, cfg)
            zeros = rng.uniform(size=cfg.n) < 0.5
            for d in (omega.mu_i, omega.mu_infl):
                d = discount(d, cfg.delay)
                self._agree(d, B)
                self._agree(np.where(zeros, 0.0, d), B)  # zero-weight channels

    def test_nobody_follows(self):
        _, _, B = _market_at(300, 35)
        for reduce in (influencer_relayed_match, influencer_followed_match,
                       relayed_match_blas, followed_match_blas):
            assert np.array_equal(reduce(np.zeros(300), B), np.zeros(300))

    def test_a_dominant_own_term(self):
        cfg, omega, B = _sharp_market(300, 36)
        d = discount(omega.mu_i, cfg.delay)
        assert np.any(np.diagonal(B) * d > 0.5 * (B @ d))  # the redo branch runs
        assert np.any(np.diagonal(B) * d > 0.5 * (B.T @ d))
        self._agree(d, B)

    def test_a_steep_kernel_sums_again_in_chunks(self):
        # N = 2000 producers at evenly spaced interests under a_f = 1e4: each
        # one's own term is most of its row's sum, so every row is summed
        # again without it, a chunk of rows at a time, well under a copy of B
        n = 2000
        y = (np.arange(n) + 0.5) / n
        cfg = MarketConfig(dim=1, interests=tuple(TopicPoint((v,)) for v in y), m=1.0,
                           m_infl=float(n), r_p=1.0, r_0=1.0, b_0=0.5,
                           kernel=KernelParams(a_f=1e4, a_g=1.0))
        B = match_matrix(cfg.interest_array(), cfg)
        d = np.random.default_rng(37).uniform(0.1, 1.0, n)
        assert np.all(np.diagonal(B) * d > 0.5 * np.einsum("zy,y->z", B, d))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            influencer_followed_match(d, B)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < B.nbytes / 4, f"peak {peak / B.nbytes:.3f} B"


def _line_market(n, a_f, seed, own):
    """A dim-1 market of n members under a_f: members at 0 and at 1 and a
    pair of twins; with ``own`` every producer at its own interest (whose
    own term dominates its sums under a steep kernel), otherwise at topics
    off the candidates, one at 0, one at 1 and one at a twin's interest.
    Returns (cfg, X, support weights with stored rates, follower weights)."""
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.0, 1.0, n)
    y[:4] = (0.0, 1.0, y[2], y[2])
    cfg = MarketConfig(dim=1, interests=tuple(TopicPoint((v,)) for v in y), m=1.0,
                       m_infl=float(n), r_p=1.0, r_0=1.0, b_0=0.5,
                       kernel=KernelParams(a_f=a_f, a_g=float(rng.uniform(0.5, 4.0))))
    omega = random_allocation(rng, cfg)
    X = cfg.interest_array().copy() if own else rng.uniform(0.0, 1.0, (n, 1))
    if not own:
        X[4:7, 0] = (0.0, 1.0, y[2])
    mu_i = np.where(rng.uniform(size=n) < 0.2, 0.0, omega.mu_i)
    direct = omega.direct.toarray() * (rng.uniform(size=(n, 1)) < 0.3)
    W = support_weights(mu_i, omega.mu_infl, DirectRates.from_dense(direct), cfg)
    return cfg, X, W, PeerWeights.rank_one(W.u, np.ones(n))


class TestLineMatchAgainstDense:
    """``LineMatch``'s sums against ``DenseMatch``'s, on either side of the
    stored-factor bound a_f = 64 and past a_f = 700, where e^{-a_f}
    underflows.  Entries, columns and rows are B's floats; every sum is a
    sum of nonnegative terms, so it agrees to rounding, relative to itself."""

    A_F = (0.5, 3.0, 64.0, 64.5, 1e3)
    close = dict(rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("own", [False, True])
    @pytest.mark.parametrize("a_f", A_F)
    def test_reductions_match_the_dense_type(self, a_f, own):
        cfg, X, W, follow = _line_market(150, a_f, 40 + int(a_f) + own, own)
        line, dense = LineMatch(X, cfg), DenseMatch(X, cfg)
        B = dense.B
        for d in (W.u, W.v, np.zeros(cfg.n)):
            np.testing.assert_allclose(line.relayed(d), dense.relayed(d), **self.close)
            np.testing.assert_allclose(line.followed(d), dense.followed(d), **self.close)
        assert not np.any(line.relayed(np.zeros(cfg.n))) and not np.any(line.followed(0 * W.u))
        for weights in (W, follow):
            np.testing.assert_allclose(line.producer_values(weights),
                                       dense.producer_values(weights), **self.close)
        np.testing.assert_allclose(line.consumer_values(W), dense.consumer_values(W),
                                   **self.close)
        if own and a_f >= 64.0:  # own-dominant terms: the less_own re-sum runs
            assert np.any(np.diagonal(B) * W.u > 0.5 * np.einsum("zy,y->z", B, W.u))
        ys = np.arange(0, cfg.n, 7)
        assert np.array_equal(line.columns(ys), B[:, ys])
        assert np.array_equal(line.rows(slice(3, 70)), B[3:70])
        assert np.array_equal(line.entries(W.S.cols, W.S.row_ids()), B[W.S.cols, W.S.row_ids()])
        assert np.array_equal(match_table(line), B)

    @pytest.mark.parametrize("a_f", A_F)
    def test_a_value_is_one_function_of_producer_and_topic(self, a_f):
        # a winner at topic t and an incumbent at t get the same float,
        # whichever other producers are valued with them; both agree with
        # the dense rows to rounding
        cfg, X, W, follow = _line_market(120, a_f, 50 + int(a_f), False)
        line, dense = LineMatch(X, cfg), DenseMatch(X, cfg)
        T = np.random.default_rng(51).uniform(0.0, 1.0, (cfg.n, 1))
        T[::5] = X[::5]
        idx = np.arange(2, cfg.n, 3)
        for weights in (W, follow):
            at, _ = line.values_at(weights, T, slice(None))
            np.testing.assert_allclose(at, dense.values_at(weights, T, slice(None))[0],
                                       **self.close)
            assert np.array_equal(line.values_at(weights, T[idx], idx)[0], at[idx])
            assert np.array_equal(at[::5], line.producer_values(weights)[::5])
            assert np.array_equal(line.producer_values(weights, idx),
                                  line.producer_values(weights)[idx])

    def test_moves_keep_the_match_at_the_topics(self):
        cfg, X, W, _ = _line_market(90, 3.0, 60, False)
        line, dense = LineMatch(X, cfg), DenseMatch(X, cfg)
        z = np.array([1, 4, 50, 89])
        T = np.array([[0.0], [0.5], [1.0], [X[3, 0]]])
        line.move(z, T)
        dense.move(z, T)
        assert np.array_equal(line.X, dense.X) and np.array_equal(match_table(line), dense.B)
        np.testing.assert_allclose(line.relayed(W.v), dense.relayed(W.v), **self.close)
        np.testing.assert_allclose(line.producer_values(W), dense.producer_values(W), **self.close)


def test_dim1_calls_build_no_match_matrix(monkeypatch):
    # from _LINE_FROM members, the public one-agent calls, the payoffs
    # without B, the dynamics and the certificate build no (N, N) match
    # matrix in dim 1: at most a chunk of rows at a time
    from cme import bestresponse, equilibrium
    from cme.bestresponse import (consumer_best_response, influencer_best_response,
                                  producer_best_response_imperfect)
    from cme.equilibrium import check_nash, run_dynamics

    shapes = []
    build = match_matrix

    def spy(X, cfg, producers=None):
        out = build(X, cfg, producers)
        shapes.append(out.shape)
        return out

    for module in (market, bestresponse, equilibrium):
        if hasattr(module, "match_matrix"):
            monkeypatch.setattr(module, "match_matrix", spy)
    n = market._LINE_FROM
    cfg = random_config(np.random.default_rng(61), n_min=n, n_max=n, dim=1)
    omega = random_allocation(np.random.default_rng(62), cfg)
    search = TopicSearchParams(grid_resolution=16)
    influencer_best_response(omega, cfg)
    consumer_best_response(3, omega, cfg, GameMode.PERFECT)
    producer_best_response_imperfect(5, omega, cfg, search, prev=TopicPoint((0.5,)))
    consumer_utilities(omega, cfg)
    social_welfare(omega, cfg)
    influencer_utility(omega, cfg)
    for mode in GameMode:
        res = run_dynamics(cfg, mode, params=DynamicsParams(max_rounds=5, restarts=1),
                           search=search)
        check_nash(res.omega, cfg, mode, search=search)
    assert all(rows <= market._CHUNK for rows, _ in shapes), sorted(set(shapes))
    shapes.clear()
    consumer_utilities(omega, cfg, match_matrix(omega.X, cfg))  # a dense table given
    assert not shapes
