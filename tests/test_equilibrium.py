"""Dynamics, certificates, and welfare-gap tests.

Oracles: two-member symmetric markets admit closed-form fixed points (the
influencer splits evenly by symmetry; each consumer's split is an
independently solved two- or three-channel water-fill; producers pin to
their own interest when the quality kernel decays faster than the interest
kernel).  Dynamics output is checked against those, and certificates are
checked both for self-consistency and for catching named violations under
controlled perturbations.
"""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_search as ref
from cme import bestresponse, equilibrium
from cme.allocator import WeightedChannels, water_fill
from cme.bestresponse import _CHUNK, GameMode, TopicGrid, TopicSearchParams, grid_best
from cme.equilibrium import (
    DynamicsParams,
    check_nash,
    price_of_influence,
    proxy_equivalence_report,
    run_dynamics,
    run_dynamics_all,
)
from cme.kernels import (
    DelayParams,
    InvalidInputError,
    KernelParams,
    TopicPoint,
    discount,
    discount_deriv,
)
from cme.market import (
    InfluencerAllocation,
    MarketAllocation,
    MarketConfig,
    PeerWeights,
    influencer_followed_match,
    influencer_relayed_match,
    match_matrix,
    social_welfare,
    support_weights,
)
from cme.scenario import _row_seed, parse_scenario, parse_sweep
from markets_util import far_pair, random_allocation, random_config, with_consumer
from oracles import dense_support_weights, run_single_every_round

SEARCH = TopicSearchParams(grid_resolution=64)
FAST = DynamicsParams(restarts=0)
FIELDS = ("lam", "mu_i", "direct", "mu_infl", "X")


def symmetric_pair(m_infl=2.0) -> MarketConfig:
    """Two members at 0.2 / 0.8; quality kernel decays faster than interest,
    so each producer's unique best topic is its own interest."""
    return MarketConfig(
        dim=1,
        interests=(TopicPoint((0.2,)), TopicPoint((0.8,))),
        m=1.0, m_infl=m_infl, r_p=1.0, r_0=1.0, b_0=0.5,
        kernel=KernelParams(a_f=1.0, a_g=3.0),
        delay=DelayParams(beta=1.0),
        seed=7,
    )


def even_line(n: int, seed=11) -> MarketConfig:
    pts = tuple(TopicPoint(((i + 0.5) / n,)) for i in range(n))
    return MarketConfig(dim=1, interests=pts, m=1.0, m_infl=0.5 * n,
                        r_p=1.0, r_0=1.0, b_0=0.5,
                        kernel=KernelParams(a_f=1.0, a_g=3.0),
                        delay=DelayParams(beta=1.0), seed=seed)


def assert_nondecreasing(trace, scale=1.0):
    for a, b in zip(trace, trace[1:]):
        assert b >= a - 1e-9 * max(1.0, scale), f"potential dropped: {a} -> {b}"


# ---------------------------------------------------------------------------
# closed-form fixed points
# ---------------------------------------------------------------------------


def test_symmetric_proxy_matches_scalar_water_fill():
    cfg = symmetric_pair()
    res = run_dynamics(cfg, GameMode.PROXY, params=FAST, search=SEARCH)

    assert res.converged
    assert res.rounds_used <= 3

    # influencer: two symmetric channels -> even split
    np.testing.assert_allclose(res.omega.influencer.mu, cfg.m_infl / 2.0,
                               atol=1e-9)
    # producers: own interest is the unique argmax, held exactly
    assert np.array_equal(res.omega.X, cfg.interest_array())

    # consumers: independent two-channel water-fill against known weights
    b_cross = math.exp(-cfg.kernel.a_f * 0.6)
    s = b_cross * discount(cfg.m_infl / 2.0, cfg.delay)
    expect = water_fill(WeightedChannels(np.array([cfg.r_0 * cfg.b_0,
                                                   cfg.r_p * s]), cfg.m),
                        cfg.delay)
    assert np.all(res.omega.direct == 0.0)
    np.testing.assert_allclose(res.omega.lam, expect.rates[0], rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(res.omega.mu_i, expect.rates[1], rtol=0.0, atol=1e-9)

    assert res.certificate.holds
    assert res.certificate.mode is GameMode.PROXY


def test_symmetric_perfect_certified_and_fast():
    cfg = symmetric_pair()
    res = run_dynamics(cfg, GameMode.PERFECT, params=FAST, search=SEARCH)
    assert res.converged and res.rounds_used <= 5
    assert res.certificate.holds
    assert_nondecreasing(res.potential_trace, scale=abs(res.potential_trace[-1]))
    # all three channel kinds active in this market
    omega = res.omega
    assert omega.lam[0] > 0 and omega.mu_i[0] > 0 and omega.direct[0].any()


def test_symmetric_imperfect_certified():
    cfg = symmetric_pair()
    res = run_dynamics(cfg, GameMode.IMPERFECT, params=FAST, search=SEARCH)
    assert res.converged
    assert res.certificate.holds
    assert np.array_equal(res.omega.X, cfg.interest_array())


# ---------------------------------------------------------------------------
# traces, budgets, welfare bookkeeping
# ---------------------------------------------------------------------------


def test_traces_nondecreasing_perfect_and_proxy():
    rng = np.random.default_rng(3)
    for _ in range(4):
        cfg = random_config(rng, n_max=5, dim=1)
        for mode in (GameMode.PERFECT, GameMode.PROXY):
            res = run_dynamics(cfg, mode, params=FAST, search=SEARCH)
            assert_nondecreasing(res.potential_trace,
                                 scale=abs(res.potential_trace[-1]))


def test_welfare_matches_public_accounting():
    cfg = even_line(4)
    for mode in GameMode:
        res = run_dynamics(cfg, mode, params=FAST, search=SEARCH)
        assert res.welfare == pytest.approx(social_welfare(res.omega, cfg),
                                            abs=1e-9)


def test_budgets_saturated_at_equilibrium():
    cfg = even_line(5)
    for mode in GameMode:
        res = run_dynamics(cfg, mode, params=FAST, search=SEARCH)
        assert float(np.sum(res.omega.influencer.mu)) == pytest.approx(
            cfg.m_infl, abs=1e-9 * cfg.m_infl)
        spent = res.omega.lam + res.omega.mu_i + res.omega.direct.sum(axis=1)
        np.testing.assert_allclose(spent, cfg.m, rtol=0.0, atol=1e-9 * cfg.m)


def test_random_perfect_instances_certify():
    rng = np.random.default_rng(17)
    for _ in range(3):
        cfg = random_config(rng, n_max=5, dim=1)
        res = run_dynamics(cfg, GameMode.PERFECT, params=FAST, search=SEARCH)
        assert res.converged, "perfect dynamics should settle on small markets"
        assert res.certificate.holds, res.certificate.residuals


# ---------------------------------------------------------------------------
# certificate behaviour under perturbation
# ---------------------------------------------------------------------------


def test_perturbed_rates_fail_with_named_condition():
    cfg = symmetric_pair()
    eq = run_dynamics(cfg, GameMode.PERFECT, params=FAST, search=SEARCH).omega
    h = 0.1 * cfg.m
    assert eq.lam[0] > h  # the shift below stays feasible
    bad = with_consumer(eq, 0, lam=eq.lam[0] - h, mu_i=eq.mu_i[0] + h)
    cert = check_nash(bad, cfg, GameMode.PERFECT, search=SEARCH)
    assert not cert.holds
    name, value = cert.worst()
    assert name == "d_influencer_optimal"
    assert value > 1e-2


def test_proxy_certificate_reports_direct_mass():
    cfg = symmetric_pair()
    eq = run_dynamics(cfg, GameMode.PROXY, params=FAST, search=SEARCH).omega
    eps = 1e-3
    bad = with_consumer(eq, 0, lam=eq.lam[0] - eps, direct=np.array([0.0, eps]))
    cert = check_nash(bad, cfg, GameMode.PROXY, search=SEARCH)
    assert not cert.holds
    assert cert.residuals["b_direct_rates_zero"] == pytest.approx(eps, rel=1e-12)


def test_certificate_self_consistent_through_public_types():
    cfg = even_line(3)
    for mode in GameMode:
        res = run_dynamics(cfg, mode, params=FAST, search=SEARCH)
        again = check_nash(res.omega, cfg, mode, search=SEARCH)
        assert again.holds == res.certificate.holds
        for name, val in res.certificate.residuals.items():
            assert again.residuals[name] == pytest.approx(val, abs=1e-12)


def test_certificate_tolerance_scaling():
    cfg = symmetric_pair()
    eq = run_dynamics(cfg, GameMode.PERFECT, params=FAST, search=SEARCH).omega
    tight = check_nash(eq, cfg, GameMode.PERFECT, tol=0.0,
                       producer_tol=0.0, search=SEARCH)
    assert not tight.holds  # rounding leaves residuals above zero tolerance
    assert max(tight.residuals.values()) < 1e-14
    loose = check_nash(eq, cfg, GameMode.PERFECT, tol=1.0, producer_tol=1.0,
                       search=SEARCH)
    assert loose.holds
    assert loose.max_residual <= 1.0


def _dense_direct_residuals(omega, cfg):
    """Conditions c, d and e with every direct marginal in one (N, N)
    table, the self channel masked out."""
    d = cfg.delay
    B = match_matrix(omega.X, cfg)
    m_out = discount_deriv(omega.lam, d) * cfg.r_0 * cfg.b_0
    m_infl = discount_deriv(omega.mu_i, d) * cfg.r_p * influencer_relayed_match(
        discount(omega.mu_infl, d), B)
    m_dir = discount_deriv(omega.direct, d) * cfg.r_p * B.T
    np.fill_diagonal(m_dir, -np.inf)
    m_dir_best = np.max(m_dir, axis=1)
    rival = np.maximum(np.maximum(m_out, m_infl), m_dir_best)
    shortfall = np.maximum(0.0, rival[:, None] - m_dir)[omega.direct > 1e-12 * cfg.m]
    return {
        "c_outside_optimal": float(np.max(np.maximum(
            0.0, np.maximum(m_infl, m_dir_best) - m_out)[omega.lam > 1e-12 * cfg.m])),
        "d_influencer_optimal": float(np.max(np.maximum(
            0.0, np.maximum(m_out, m_dir_best) - m_infl)[omega.mu_i > 1e-12 * cfg.m])),
        "e_direct_optimal": float(np.max(shortfall)) if shortfall.size else 0.0,
    }


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mode", [GameMode.PERFECT, GameMode.IMPERFECT])
def test_direct_marginals_match_the_dense_table(mode, dim):
    # the certificate reads delta'(direct) only on the rows holding a direct
    # rate; every other row's best direct marginal is beta * r_p times its
    # column's off-diagonal max of B: the same floats as the full table
    rng = np.random.default_rng(175 + dim + 2 * list(GameMode).index(mode))
    for keep in (1.0, 0.1, 0.0):
        for _ in range(3):
            cfg = random_config(rng, n_min=6, n_max=30, dim=dim)
            d = random_allocation(rng, cfg)
            direct = d.direct * (rng.uniform(size=(cfg.n, 1)) < keep)
            d = MarketAllocation(d.lam, d.mu_i, direct, d.influencer, d.X)
            got = check_nash(d, cfg, mode, search=_search(dim)).residuals
            for name, value in _dense_direct_residuals(d, cfg).items():
                assert got[name] == value, name


@pytest.mark.parametrize("mode, m", [(GameMode.PROXY, 300.0), (GameMode.PERFECT, 1000.0)])
def test_huge_consumer_budget_certifies(mode, m):
    # consumer multipliers here are 1e-65 and below
    cfg = MarketConfig(
        dim=1, interests=(TopicPoint((0.2,)), TopicPoint((0.8,)), TopicPoint((0.5,))),
        m=m, m_infl=1.0, r_p=1.0, r_0=1.0, b_0=0.5,
        kernel=KernelParams(a_f=1.0, a_g=3.0), delay=DelayParams(beta=1.0), seed=7)
    res = run_dynamics(cfg, mode, params=FAST)
    assert res.certificate.holds, res.certificate.residuals


# ---------------------------------------------------------------------------
# price of influence and proxy equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", list(GameMode))
def test_runs_with_followers_but_no_positive_influencer_weight(mode):
    # both members follow the influencer at the start, yet every weight of
    # its channels is 0: it splits evenly, and the consumers then follow
    # nobody
    cfg = far_pair()
    res = run_dynamics(cfg, mode, params=FAST, search=SEARCH)
    np.testing.assert_array_equal(res.omega.mu_infl, 1.0)
    assert res.certificate.holds and res.degenerate_producers == {0, 1}


def test_certificate_with_followers_but_no_positive_influencer_weight():
    # each producer alone can earn the whole budget at the other's interest,
    # against the even split at the current topics
    cfg = far_pair()
    cert = check_nash(equilibrium.default_init(cfg, GameMode.IMPERFECT), cfg,
                      GameMode.IMPERFECT, search=SEARCH)
    top, even = discount(cfg.m_infl, cfg.delay), discount(cfg.m_infl / 2, cfg.delay)
    assert cert.residuals["a_producer_topic"] == pytest.approx((top - even) / top, rel=1e-12)
    assert cert.residuals["g_influencer_allocation"] == 0.0


def test_price_of_influence_symmetric_market_is_zero():
    cfg = symmetric_pair()
    rec = price_of_influence(cfg, params=FAST, search=SEARCH)
    assert rec.poi == pytest.approx(0.0, abs=1e-8)
    assert rec.poi >= -1e-9
    assert rec.poi == rec.phi_perfect - rec.phi_imperfect
    assert rec.relative_poi == pytest.approx(rec.poi / rec.phi_perfect)
    assert rec.perfect.certificate.holds
    assert rec.imperfect.certificate.holds


def test_price_of_influence_nonnegative_on_random_markets():
    rng = np.random.default_rng(23)
    for _ in range(3):
        cfg = random_config(rng, n_max=4, dim=1)
        rec = price_of_influence(cfg, params=FAST, search=SEARCH)
        assert rec.poi >= -1e-9
        assert rec.phi_perfect >= rec.phi_imperfect - 1e-9


def test_proxy_equivalence_report_fields():
    cfg = symmetric_pair(m_infl=8.0)  # generous influencer starves directs
    rep = proxy_equivalence_report(cfg, params=FAST, search=SEARCH)
    assert rep.proxy.certificate.holds
    assert rep.direct_rate_mass_perfect >= 0.0
    assert rep.perfect_is_proxy == rep.perfect_under_proxy.holds
    if rep.direct_rate_mass_perfect <= 1e-9:
        assert rep.perfect_under_proxy.residuals["b_direct_rates_zero"] <= 1e-9


# ---------------------------------------------------------------------------
# dynamics controls
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", list(GameMode))
def test_restart_count_and_selection(mode):
    cfg = even_line(3)
    params = DynamicsParams(restarts=2)
    results = run_dynamics_all(cfg, mode, params=params, search=SEARCH)
    assert len(results) == 3
    best = run_dynamics(cfg, mode, params=params, search=SEARCH)
    picked = equilibrium._best(results)
    assert best.welfare == picked.welfare
    assert best.certificate == picked.certificate
    if mode is GameMode.PERFECT:
        assert best.welfare == max(r.welfare for r in results)


def _result(welfare, max_residual):
    cert = equilibrium.NashCertificate(
        mode=GameMode.PERFECT, residuals={"b_consumer_budget": max_residual * 1e-6},
        tol=1e-6, producer_tol=1e-3, max_residual=max_residual,
        holds=max_residual <= 1.0)
    return equilibrium.EquilibriumResult(
        omega=None, welfare=welfare, potential_trace=(welfare,), certificate=cert,
        rounds_used=1, converged=True, degenerate_producers=frozenset())


def test_best_selection_rule():
    # a certified run beats an uncertified run with more welfare
    certified, richer = _result(1.0, 0.5), _result(2.0, 3.0)
    assert equilibrium._best([richer, certified]) is certified
    # none certifies: the smallest residual wins
    runs = [_result(3.0, 5.0), _result(1.0, 1.5), _result(2.0, 2.0)]
    assert equilibrium._best(runs) is runs[1]
    # among certified runs, the largest welfare wins
    runs = [_result(1.0, 0.1), _result(2.0, 0.9), _result(3.0, 4.0), _result(1.5, 0.0)]
    assert equilibrium._best(runs) is runs[1]


def test_round_cap_reports_nonconvergence():
    cfg = even_line(4)
    res = run_dynamics(cfg, GameMode.PERFECT,
                       params=DynamicsParams(max_rounds=1, restarts=0),
                       search=SEARCH)
    assert not res.converged
    assert res.rounds_used == 1
    assert len(res.potential_trace) == 2


def test_deterministic_repeat():
    rng = np.random.default_rng(41)
    cfg = random_config(rng, n_max=4, dim=1)
    a = run_dynamics(cfg, GameMode.IMPERFECT,
                     params=DynamicsParams(restarts=1), search=SEARCH)
    b = run_dynamics(cfg, GameMode.IMPERFECT,
                     params=DynamicsParams(restarts=1), search=SEARCH)
    assert a.potential_trace == b.potential_trace
    for f in FIELDS:
        assert np.array_equal(getattr(a.omega, f), getattr(b.omega, f))


def test_params_validation():
    with pytest.raises(InvalidInputError):
        DynamicsParams(max_rounds=0)
    with pytest.raises(InvalidInputError):
        DynamicsParams(restarts=-1)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_random_init_matches_the_per_row_fill(n):
    cfg = even_line(n)
    for mode in GameMode:
        new = equilibrium.random_init(cfg, mode, np.random.default_rng(n))
        rng = np.random.default_rng(n)
        split = rng.dirichlet(np.ones(2 if mode is GameMode.PROXY else n + 1), size=n) * cfg.m
        direct = np.zeros((n, n))
        if mode is not GameMode.PROXY:
            for y in range(n):
                direct[y, :y] = split[y, 2:y + 2]
                direct[y, y + 1:] = split[y, y + 2:]
        assert np.array_equal(new.lam, split[:, 0])
        assert np.array_equal(new.mu_i, split[:, 1])
        assert np.array_equal(new.direct, direct)
        assert np.array_equal(new.mu_infl, rng.dirichlet(np.ones(n)) * cfg.m_infl)
        assert np.array_equal(new.X, rng.uniform(0.0, 1.0, (n, cfg.dim)))


# ---------------------------------------------------------------------------
# the producer block against the per-producer rounds it replaced
# (tests/reference_search.py)
# ---------------------------------------------------------------------------


def _search(dim):
    return SEARCH if dim == 1 else TopicSearchParams(grid_resolution=24)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mode", list(GameMode))
def test_rounds_match_the_per_producer_round(mode, dim):
    rng = np.random.default_rng(80 + 3 * dim + list(GameMode).index(mode))
    compared = 0
    for _ in range(4):
        cfg = random_config(rng, n_min=3, n_max=6, dim=dim)
        grid = TopicGrid(cfg, _search(dim))
        new = old = equilibrium.random_init(cfg, mode, rng)
        for _ in range(3):
            values = []
            old, degenerate_old, _, _ = ref.gauss_seidel_round(old, cfg, mode, grid, values)
            new, degenerate_new, _, _ = equilibrium._one_round(new, cfg, mode, grid,
                                                               match_matrix(new.X, cfg))
            if mode is GameMode.IMPERFECT and any(ref.saturated(v, cfg) for v in values):
                break  # flat exact objective: the topics part by design
            compared += 1
            assert degenerate_new == degenerate_old
            for f in FIELDS:
                np.testing.assert_allclose(getattr(new, f), getattr(old, f), rtol=1e-9,
                                           atol=1e-9 * max(cfg.m, cfg.m_infl))
    assert compared >= 6


def test_imperfect_round_moves_producers_in_order():
    # a producer that moves can push a later one out of the influencer's
    # active set: the per-producer round re-solves the influencer at the
    # current topics, so the block must update each mover's channel weight
    # before it tries the next producer
    rng = np.random.default_rng(100)
    degenerate_rounds = 0
    for _ in range(40):
        cfg = random_config(rng, n_min=3, n_max=6, dim=1)
        grid = TopicGrid(cfg, SEARCH)
        start = equilibrium.random_init(cfg, GameMode.IMPERFECT, rng)
        values = []
        old, degenerate_old, _, _ = ref.gauss_seidel_round(start, cfg, GameMode.IMPERFECT,
                                                           grid, values)
        new, degenerate_new, _, _ = equilibrium._one_round(start, cfg, GameMode.IMPERFECT,
                                                           grid, match_matrix(start.X, cfg))
        if any(ref.saturated(v, cfg) for v in values):
            continue
        assert degenerate_new == degenerate_old
        np.testing.assert_allclose(new.X, old.X, rtol=0.0, atol=1e-9)
        degenerate_rounds += bool(degenerate_old)
    assert degenerate_rounds >= 2


def _producer_weights(omega, cfg, mode):
    if mode is GameMode.IMPERFECT:
        return PeerWeights.rank_one(discount(omega.mu_i, cfg.delay), np.ones(cfg.n))
    return support_weights(omega.mu_i, omega.mu_infl, omega.direct, cfg)


@pytest.mark.parametrize("mode", list(GameMode))
def test_round_returns_the_next_match_matrix_and_potential(mode):
    # each round's B is fed to the next, as _run_single does: the round
    # rebuilds only the rows of the producers that moved, in place.  The
    # second leg restarts from the first's state with every other topic
    # redrawn, so some producers move and some stay
    rng = np.random.default_rng(150 + list(GameMode).index(mode))
    for dim in (1, 2):
        movers = set()
        for _ in range(2):
            cfg = random_config(rng, n_min=3, n_max=8, dim=dim)
            grid = TopicGrid(cfg, _search(dim))
            state = equilibrium.random_init(cfg, mode, rng)
            for rounds in (3, 2):
                B = match_matrix(state.X, cfg)
                for _ in range(rounds):
                    before = state.X
                    state, _, phi, scanned = equilibrium._one_round(state, cfg, mode, grid, B)
                    moved = np.count_nonzero(np.any(state.X != before, axis=1))
                    movers.add("none" if moved == 0 else "some" if moved < cfg.n else "all")
                    assert np.array_equal(B, match_matrix(state.X, cfg))
                    assert phi == social_welfare(state, cfg, B)
                    assert np.array_equal(
                        scanned, grid_best(_producer_weights(state, cfg, mode), grid))
                X = state.X.copy()
                X[::2] = rng.uniform(0.0, 1.0, X[::2].shape)
                state = MarketAllocation(state.lam, state.mu_i, state.direct, state.influencer, X)
        assert {"none", "some"} <= movers, movers


@pytest.mark.parametrize("mode", list(GameMode))
def test_round_builds_one_match_row_per_producer_valued(mode, monkeypatch):
    # the row built to value a producer's best candidate is the row B takes
    # when the producer moves, so a round builds one match row per
    # nondegenerate producer whose best candidate is not its incumbent, and
    # B is still the fresh match matrix.  An imperfect mover found inactive
    # takes its incumbent's row again, one more row
    built, scans, blocks = [], [], []

    def building(X, cfg, producers=None):
        built.append(len(X))
        return match_matrix(X, cfg, producers)

    def scanning(weights, grid, cols):
        best, value = scan(weights, grid, cols)
        scans.append((grid.points[best], value))
        return best, value

    def block_of(*args, **kwargs):
        blocks.append(producer_block(*args, **kwargs))
        return blocks[-1]

    scan, producer_block = bestresponse._scan, bestresponse.producer_block
    for module in (bestresponse, equilibrium):
        monkeypatch.setattr(module, "match_matrix", building)
        monkeypatch.setattr(module, "producer_block", block_of)
    monkeypatch.setattr(bestresponse, "_scan", scanning)
    rng = np.random.default_rng(160 + list(GameMode).index(mode))
    valued = moved = 0
    for dim in (1, 2):
        for _ in range(2):
            cfg = random_config(rng, n_min=3, n_max=8, dim=dim)
            grid = TopicGrid(cfg, _search(dim))
            state = equilibrium.random_init(cfg, mode, rng)
            B = match_matrix(state.X, cfg)
            for _ in range(3):
                built.clear()
                scans.clear()
                blocks.clear()
                before = state.X
                state, *_ = equilibrium._one_round(state, cfg, mode, grid, B)
                ((topics, value),) = scans
                count = np.count_nonzero((value > 0.0) & np.any(topics != before, axis=1))
                (block,) = blocks
                reverted = np.count_nonzero(np.any(block.topics != state.X, axis=1))
                assert mode is GameMode.IMPERFECT or reverted == 0
                assert sum(built) == count + reverted
                assert np.array_equal(B, match_matrix(state.X, cfg))
                valued += count
                moved += np.count_nonzero(np.any(state.X != before, axis=1))
    assert moved > 0 and valued >= moved


@pytest.mark.parametrize("members,a_f,a_g,z", [((0.25, 0.75, 0.5), 8.0, 1e-17, 2),
                                               ((0.25, 0.75, 0.5), 1e-17, 1e-17, 2),
                                               ((0.5, 0.25, 0.75), 8.0, 0.5, 0)])
def test_round_keeps_a_tied_incumbent(members, a_f, a_g, z):
    # producer z at 0.5 between mirror members at 0.25 and 0.75, its
    # incumbent at 0.75; budgets so large that every delta rounds to 1.0,
    # so W is 2.0 off the diagonal.  The candidate 0.25 mirrors the
    # incumbent, so the one formula that values both (``_objective`` and
    # ``producer_values`` on B) adds the same terms, and the incumbent
    # stays.  With z last, each sum adds the two members' terms in swapped
    # order, then z's own: the same floats, and with a_g = 1e-17 the scan
    # reads the same value too.  With z first, the scan's own formula
    # reads 0.25 about 2.2e-16 above the incumbent.  At a_f = 1e-17 every
    # exp rounds to 1.0 as well and every topic ties
    cfg = MarketConfig(dim=1, interests=tuple(TopicPoint((v,)) for v in members),
                       m=100.0, m_infl=100.0, r_p=1.0, r_0=1.0, b_0=0.5,
                       kernel=KernelParams(a_f=a_f, a_g=a_g), delay=DelayParams(beta=10.0))
    X = np.array(members)[:, None]
    X[z] = 0.75
    state = MarketAllocation(np.full(3, 25.0), np.full(3, 25.0), 25.0 * (1.0 - np.eye(3)),
                             InfluencerAllocation(mu=np.full(3, 100.0 / 3)), X)
    grid = TopicGrid(cfg, TopicSearchParams(grid_resolution=9))
    new, degenerate, _, _ = equilibrium._one_round(state, cfg, GameMode.PERFECT, grid,
                                                   match_matrix(state.X, cfg))
    dense = dense_support_weights(new.mu_i, new.mu_infl, new.direct, cfg)
    assert np.all(dense + 2.0 * np.eye(3) == 2.0)
    W = support_weights(new.mu_i, new.mu_infl, new.direct, cfg)
    col = slice(z, z + 1)
    first = grid.points[bestresponse._scan(W, grid, col)[0]]
    assert first[0, 0] < 0.75  # the scan's pick is another topic
    assert (bestresponse._objective(first, W, col, cfg)[0][0]
            == W.producer_values(match_matrix(state.X, cfg))[z])
    assert not degenerate and new.X[z, 0] == 0.75


def test_dim1_solve_imports_no_module_lazily():
    # every fresh sweep worker pays for a module the solve imports on first
    # use (numpy.ma, behind np.unique, costs about 20 ms and 4 MB there);
    # restarts = 0, since random starts load numpy.random by design
    script = (
        "import sys\n"
        "import cme\n"
        "loaded = set(sys.modules)\n"
        "cfg = cme.MarketConfig(dim=1, interests=tuple(cme.TopicPoint((v,)) for v in\n"
        "                       (0.1, 0.4, 0.45, 0.9)), m=1.0, m_infl=2.0, r_p=1.0, r_0=1.0,\n"
        "                       b_0=0.5)\n"
        "cme.price_of_influence(cfg, params=cme.DynamicsParams(restarts=0))\n"
        "print(sorted(set(sys.modules) - loaded))\n")
    src = Path(equilibrium.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_sup_change_reads_every_row_chunk():
    # direct is compared in row chunks of _CHUNK: a change in any row, the
    # first, the first of the second chunk or the last, is the largest
    rng = np.random.default_rng(180)
    cfg = random_config(rng, n_min=2 * _CHUNK + 5, n_max=2 * _CHUNK + 5, dim=1)
    a = random_allocation(rng, cfg)
    for y in (0, _CHUNK, cfg.n - 1):
        direct = a.direct.copy()
        direct[y, (y + 1) % cfg.n] += 0.5
        b = MarketAllocation(a.lam, a.mu_i, direct, a.influencer, a.X)
        assert equilibrium._sup_change(a, b) == float(np.max(np.abs(a.direct - direct)))


def _assert_fresh_certificate(res, cfg, mode, search):
    fresh = check_nash(res.omega, cfg, mode, search=search)
    assert res.certificate.residuals == fresh.residuals
    assert res.certificate == fresh


@pytest.mark.parametrize("dim", [1, 2])
def test_certificates_equal_a_fresh_check_nash(dim):
    # a run certifies from the B and the scan of the round that built its
    # state; check_nash builds both afresh, and every residual must agree
    rng = np.random.default_rng(190 + dim)
    for mode in GameMode:
        cfg = random_config(rng, n_min=3, n_max=7, dim=dim)
        _assert_fresh_certificate(run_dynamics(cfg, mode, params=FAST, search=_search(dim)),
                                  cfg, mode, _search(dim))
    cfg = random_config(rng, n_min=3, n_max=6, dim=dim)
    rec = price_of_influence(cfg, params=FAST, search=_search(dim))
    _assert_fresh_certificate(rec.perfect, cfg, GameMode.PERFECT, _search(dim))
    _assert_fresh_certificate(rec.imperfect, cfg, GameMode.IMPERFECT, _search(dim))


def test_a_capped_run_settles_its_last_topics(monkeypatch):
    # this run reaches its cap of 3 rounds still moving producers: it keeps
    # round 3's topics, settles the rates there (for at most 3 passes) and
    # certifies the settled state as check_nash would from scratch
    states = []
    one_round = equilibrium._one_round
    monkeypatch.setattr(equilibrium, "_one_round",
                        lambda *args: (out := one_round(*args), states.append(out[0]))[0])
    cfg = random_config(np.random.default_rng(306), n_min=3, n_max=6, dim=1)
    res = run_dynamics(cfg, GameMode.IMPERFECT, params=DynamicsParams(max_rounds=3, restarts=0),
                       search=SEARCH)
    assert len(states) == 3 and not res.converged
    assert not np.array_equal(states[1].X, states[2].X)
    assert np.array_equal(res.omega.X, states[2].X)
    B = match_matrix(states[2].X, cfg)
    settled, phi, _ = equilibrium._settle(states[2], cfg, GameMode.IMPERFECT,
                                          TopicGrid(cfg, SEARCH), B, 3)
    for f in FIELDS:
        assert np.array_equal(getattr(res.omega, f), getattr(settled, f)), f
    assert not np.array_equal(res.omega.mu_infl, states[2].mu_infl)
    assert res.welfare == phi == social_welfare(res.omega, cfg, B)
    assert res.welfare >= res.potential_trace[-1]
    _assert_fresh_certificate(res, cfg, GameMode.IMPERFECT, SEARCH)


def test_the_cycling_seed4_row_settles_to_a_certified_state():
    # the imperfect dynamics of this market cycle until the round cap; the
    # state settled at the last round's topics is an equilibrium
    cfg, params, search = _seed4_market()
    res = run_dynamics(cfg, GameMode.IMPERFECT, params=params, search=search)
    assert not res.converged and res.rounds_used == params.max_rounds
    assert res.certificate.holds, res.certificate.worst()
    assert check_nash(res.omega, cfg, GameMode.IMPERFECT, search=search).holds
    assert res.welfare == pytest.approx(4.2097353, rel=0.0, abs=1e-7)


def test_the_capped_seed5_row_settles_to_a_certified_state():
    # seed 5, N = 20, replicate 0 of poi_sweep.swp under the fixed budget
    cfg, params, search = _poi_row(seed=5, n=20, replicate=0, rule="fixed")
    assert cfg.seed == 2912076504 and cfg.m_infl == 5.0
    res = run_dynamics(cfg, GameMode.IMPERFECT, params=params, search=search)
    assert not res.converged
    assert res.certificate.holds, res.certificate.worst()


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(GameMode)),
       dim=st.sampled_from([1, 2]), passes=st.integers(1, 60))
def test_settling_never_lowers_the_potential(seed, mode, dim, passes):
    # with the topics fixed the welfare is an exact potential of the
    # influencer and the consumers in every regime, so no pass lowers it,
    # and a settle that stops before its cap leaves only the producers'
    # condition to fail
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, n_min=2, n_max=6, dim=dim)
    state = equilibrium.random_init(cfg, mode, rng)
    B = match_matrix(state.X, cfg)
    passed = [state]
    rates = equilibrium._rates
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equilibrium, "_rates", lambda *args: (out := rates(*args), passed.append(out))[0])
        settled, phi, scanned = equilibrium._settle(state, cfg, mode, TopicGrid(cfg, _search(dim)),
                                                    B, passes)
    assert settled is passed[-1] and np.array_equal(settled.X, state.X)
    phis = [social_welfare(s, cfg, B) for s in passed]
    assert phi == phis[-1]
    for a, b in zip(phis, phis[1:]):
        assert b >= a - 1e-9 * abs(a), f"potential dropped: {a} -> {b}"
    if len(passed) - 1 < passes:
        cert = equilibrium._certify(settled, cfg, mode, B, scanned)
        rates_ok = {k: v for k, v in cert.residuals.items() if not k.startswith("a_")}
        assert all(v <= cert.tol for v in rates_ok.values()), rates_ok


@pytest.mark.parametrize("mode", list(GameMode))
def test_a_run_builds_b_once_and_scans_once_per_round(mode, monkeypatch):
    # the start builds the one full match matrix, a round rebuilds the
    # movers' rows and scans the candidates once, and the certificate reads
    # the last round's B and scan; a run that reaches its cap settles at
    # that B and scans once more.  Every run certifies once.
    full, scans, certs = [], [], []
    build, scan, certify = equilibrium.match_matrix, bestresponse._scan, equilibrium._certify
    monkeypatch.setattr(equilibrium, "match_matrix", lambda X, cfg, producers=None: (
        full.append(producers is None), build(X, cfg, producers))[1])
    monkeypatch.setattr(bestresponse, "_scan", lambda *args: (scans.append(1), scan(*args))[1])
    monkeypatch.setattr(equilibrium, "_certify",
                        lambda *args: (certs.append(1), certify(*args))[1])
    cfg = random_config(np.random.default_rng(200), n_min=5, n_max=5, dim=1)
    runs = run_dynamics_all(cfg, mode, params=DynamicsParams(restarts=1), search=SEARCH)
    runs += run_dynamics_all(cfg, mode, params=DynamicsParams(max_rounds=1, restarts=0),
                             search=SEARCH)
    assert [r.converged for r in runs] == [True, True, False]
    assert sum(full) == len(certs) == len(runs) == 3
    assert len(scans) == sum(r.rounds_used for r in runs) + 1


def _poi_row(seed=2026, n=20, replicate=0, rule="proportional"):
    """The poi_sweep.swp row at base seed `seed`, size n and `replicate`
    under the budget `rule`, built as ``run_sweep`` builds it: (config,
    dynamics, search).  By default the N = 20, replicate 0 row with its
    proportional influencer budget."""
    spec = parse_sweep(Path(__file__).resolve().parent.parent / "scenarios" / "poi_sweep.swp")
    spec = dataclasses.replace(spec, m_infl_rule=rule)
    cfg = spec.base.build_config(n=n, m_infl=spec.m_infl_for(n),
                                 seed=_row_seed(seed, n, replicate))
    return cfg, spec.base.dynamics, spec.base.search


# The interests of the poi_sweep.swp row at seed 4, N = 5, replicate 0,
# where the imperfect dynamics cycle until the round cap.
SEED4_INTERESTS = (0.29639128389592456, 0.7718888111041159, 0.25694551060030996,
                   0.686539082114556, 0.1550265519247474)


def _seed4_market(max_rounds=500):
    """That row's market with M_infl = 5 and at most `max_rounds` rounds:
    (config, dynamics, search)."""
    cfg, params, search = _poi_row(seed=4, n=5, replicate=0)
    cfg = dataclasses.replace(cfg, interests=tuple(TopicPoint((y,)) for y in SEED4_INTERESTS))
    assert cfg.m_infl == 5.0
    return cfg, dataclasses.replace(params, max_rounds=max_rounds), search


def _repeat_cases():
    """Random markets in both dims, symmetric.scn, the N = 20 sweep row and
    the seed-4 market capped at 40 rounds."""
    rng = np.random.default_rng(400)
    scn = parse_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "symmetric.scn")
    cases = [(random_config(rng, n_min=3, n_max=6, dim=dim), DynamicsParams(restarts=1),
              _search(dim)) for dim in (1, 1, 2, 2)]
    return cases + [(scn.build_config(), scn.dynamics, scn.search), _poi_row(),
                    _seed4_market(max_rounds=40)]


def test_a_round_that_returns_its_input_repeats_bit_for_bit():
    # a round reads only mu_i, X and B; one that hands mu_i and X back
    # unchanged rebuilt no row of B, so the round after it returns the same
    # state, degenerate set, potential and scan
    repeats = 0
    for cfg, params, search in _repeat_cases():
        grid = TopicGrid(cfg, search)
        for mode in GameMode:
            starts = [equilibrium.default_init(cfg, mode)]
            starts += [equilibrium.random_init(cfg, mode, np.random.default_rng([cfg.seed, 1000]))]
            for state in starts:
                B = match_matrix(state.X, cfg)
                for _ in range(40):
                    new, degenerate, phi, scanned = equilibrium._one_round(
                        state, cfg, mode, grid, B)
                    if (np.array_equal(new.X, state.X)
                            and np.array_equal(new.mu_i, state.mu_i)):
                        break
                    state = new
                else:
                    continue
                repeats += 1
                before = B.copy()
                again, degenerate2, phi2, scanned2 = equilibrium._one_round(
                    new, cfg, mode, grid, B)
                for f in FIELDS:
                    assert np.array_equal(getattr(again, f), getattr(new, f)), f
                assert degenerate2 == degenerate
                assert phi2 == phi
                assert np.array_equal(scanned2, scanned)
                assert np.array_equal(B, before)
                assert equilibrium._sup_change(new, again) == 0.0
    assert repeats >= 20


def _assert_same_run(new, old):
    for f in FIELDS:
        assert np.array_equal(getattr(new.omega, f), getattr(old.omega, f)), f
    assert new.welfare == old.welfare
    assert new.potential_trace == old.potential_trace
    assert new.rounds_used == old.rounds_used
    assert new.converged == old.converged
    assert new.degenerate_producers == old.degenerate_producers
    assert new.certificate == old.certificate


def test_runs_equal_the_every_round_loop():
    # taking the repeated round as read changes no returned field, and a
    # capped run ends the same way
    capped = 0
    for cfg, params, search in _repeat_cases():
        for mode in GameMode:
            new = run_dynamics_all(cfg, mode, params=params, search=search)
            capped += sum(not r.converged for r in new)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(equilibrium, "_run_single", run_single_every_round)
                old = run_dynamics_all(cfg, mode, params=params, search=search)
            assert len(new) == len(old)
            for a, b in zip(new, old):
                _assert_same_run(a, b)
        new = price_of_influence(cfg, params=params, search=search)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(equilibrium, "_run_single", run_single_every_round)
            old = price_of_influence(cfg, params=params, search=search)
        _assert_same_run(new.perfect, old.perfect)
        _assert_same_run(new.imperfect, old.imperfect)
        assert (new.poi, new.relative_poi) == (old.poi, old.relative_poi)
    assert capped >= 2


@pytest.mark.parametrize("mode", list(GameMode))
def test_a_converged_run_skips_its_repeated_round(mode, monkeypatch):
    # every run of the N = 20 sweep row ends on a round that can only
    # repeat the one before it; that round computes nothing, so no round,
    # scan or full match matrix is built for it
    rounds, full, scans = [], [], []
    one_round, build, scan = equilibrium._one_round, equilibrium.match_matrix, bestresponse._scan
    monkeypatch.setattr(equilibrium, "_one_round",
                        lambda *args: (rounds.append(1), one_round(*args))[1])
    monkeypatch.setattr(equilibrium, "match_matrix", lambda X, cfg, producers=None: (
        full.append(producers is None), build(X, cfg, producers))[1])
    monkeypatch.setattr(bestresponse, "_scan", lambda *args: (scans.append(1), scan(*args))[1])
    cfg, params, search = _poi_row()
    runs = run_dynamics_all(cfg, mode, params=params, search=search)
    assert len(runs) == 2 and all(r.converged for r in runs)
    assert len(rounds) == len(scans) == sum(r.rounds_used - 1 for r in runs)
    assert sum(full) == len(runs)


def test_perfect_run_peak_memory():
    # A perfect round holds three (N, N) float tables at its peak, in the
    # consumer block: the previous and next direct rates and B, which the
    # round updates in place and the certificate reads.  The rest is the
    # consumer block's row-chunk temporaries.  The peer weights hold
    # delta(direct) only on the rows with a direct rate (none after the
    # first round here) and _sup_change compares direct in row chunks.
    # Measured peak at N = 400: 3.92 tables of 8 * N**2 bytes; 4.14 while
    # each round built the next B beside the previous one, 5.14 while the
    # round built W as an (N, N) table and _sup_change built two (N, N)
    # difference tables.
    n = 400
    cfg = random_config(np.random.default_rng(7), n_min=n, n_max=n, dim=1)
    grid = TopicGrid(cfg, TopicSearchParams(grid_resolution=64))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = equilibrium._run_single(lambda: equilibrium.default_init(cfg, GameMode.PERFECT),
                                      cfg, GameMode.PERFECT, 4, grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.rounds_used >= 2
    assert peak <= 4.0 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} tables of 8 N^2 bytes"


def _reference_run(cfg, mode, params, search):
    """run_dynamics on the per-producer round and certificate; None when the
    exact imperfect objective ever saturated (see reference_search.saturated)."""
    values = []
    grid = TopicGrid(cfg, search)

    def one_round(state, cfg, mode, grid, B):
        new, degenerate, B[...], phi = ref.gauss_seidel_round(state, cfg, mode, grid, values)
        return new, degenerate, phi, None

    certify = equilibrium._certify

    def reference_certify(omega, cfg, mode, B, scanned, *tols):
        # the engine's certificate with condition (a) from the reference gaps
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(equilibrium, "_imperfect_producer_gap",
                          lambda *_: ref.imperfect_gap(omega, cfg, grid))
            inner.setattr(equilibrium, "_support_producer_gap",
                          lambda *_: ref.support_gap(omega, cfg, grid))
            return certify(omega, cfg, mode, B, scanned, *tols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equilibrium, "_one_round", one_round)
        mp.setattr(equilibrium, "_certify", reference_certify)
        res = run_dynamics(cfg, mode, params=params, search=search)
    if mode is GameMode.IMPERFECT and any(ref.saturated(v, cfg) for v in values):
        return None
    return res


@pytest.mark.parametrize("mode", list(GameMode))
def test_runs_match_the_per_producer_dynamics(mode):
    rng = np.random.default_rng(90 + list(GameMode).index(mode))
    scn = parse_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "symmetric.scn")
    cases = [(scn.build_config(), scn.dynamics, scn.search)]
    cases += [(random_config(rng, n_min=3, n_max=5, dim=dim), FAST, _search(dim))
              for dim in (1, 1, 1, 2, 2)]
    compared = 0
    for cfg, params, search in cases:
        old = _reference_run(cfg, mode, params, search)
        if old is None:
            continue
        new = run_dynamics(cfg, mode, params=params, search=search)
        compared += 1
        assert new.welfare == pytest.approx(old.welfare, rel=1e-9, abs=0.0)
        assert new.potential_trace == pytest.approx(old.potential_trace, rel=1e-9, abs=0.0)
        assert new.degenerate_producers == old.degenerate_producers
        assert new.certificate.holds == old.certificate.holds
        np.testing.assert_allclose(new.omega.X, old.omega.X, atol=1e-9)
    assert compared >= 4


@pytest.mark.parametrize("dim", [1, 2])
def test_certificate_gaps_match_the_per_producer_gaps(dim):
    rng = np.random.default_rng(95 + dim)
    for case in range(6):
        cfg = random_config(rng, n_min=3, n_max=7, dim=dim)
        grid = TopicGrid(cfg, _search(dim))
        if case < 2:  # equilibria: gaps at or near zero
            mode = (GameMode.PERFECT, GameMode.IMPERFECT)[case]
            d = run_dynamics(cfg, mode, params=FAST, search=_search(dim)).omega
        else:
            d = random_allocation(rng, cfg)
        mu_i, direct, mu_infl = d.mu_i.copy(), d.direct.copy(), d.mu_infl.copy()
        if case == 3:  # zero-weight channels
            mu_i[::2] = 0.0
            direct[:, 1] = 0.0
            mu_infl[2] = 0.0
        elif case == 4:  # nobody follows the influencer
            mu_i[:] = 0.0
        d = MarketAllocation(d.lam, mu_i, direct, InfluencerAllocation(mu=mu_infl), d.X)
        B = match_matrix(d.X, cfg)
        follow = grid_best(_producer_weights(d, cfg, GameMode.IMPERFECT), grid)
        support = grid_best(_producer_weights(d, cfg, GameMode.PERFECT), grid)
        gamma = cfg.r_p * influencer_followed_match(discount(d.mu_i, cfg.delay), B)
        assert equilibrium._imperfect_producer_gap(gamma, cfg, follow) == pytest.approx(
            ref.imperfect_gap(d, cfg, grid), rel=0.0, abs=1e-12)
        assert equilibrium._support_producer_gap(d, cfg, B, support) == pytest.approx(
            ref.support_gap(d, cfg, grid), rel=0.0, abs=1e-12)


def test_runs_leave_their_inputs_alone():
    # every state a run builds or returns is read-only, so a round that wrote
    # into the state it was handed would raise
    cfg = even_line(4)
    rec = price_of_influence(cfg, params=FAST, search=SEARCH)
    for res in (rec.perfect, rec.imperfect):
        assert not any(getattr(res.omega, f).flags.writeable for f in FIELDS)
    start = random_allocation(np.random.default_rng(5), cfg)
    before = [getattr(start, f).copy() for f in FIELDS]
    runs = run_dynamics_all(cfg, GameMode.PERFECT, params=FAST, search=SEARCH,
                            extra_inits=(start,))
    assert len(runs) == 2
    for f, b in zip(FIELDS, before):
        assert np.array_equal(getattr(start, f), b)
    wide = MarketAllocation(start.lam, start.mu_i, np.zeros((4, 5)), start.influencer, start.X)
    with pytest.raises(InvalidInputError, match="direct has shape"):
        run_dynamics_all(cfg, GameMode.PERFECT, params=FAST, search=SEARCH,
                         extra_inits=(wide,))
