"""Dynamics, certificates, and welfare-gap tests.

Oracles: two-member symmetric markets admit closed-form fixed points (the
influencer splits evenly by symmetry; each consumer's split is an
independently solved two- or three-channel water-fill; producers pin to
their own interest when the quality kernel decays faster than the interest
kernel).  Dynamics output is checked against those, and certificates are
checked both for self-consistency and for catching named violations under
controlled perturbations.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import reference_search as ref
from cme import equilibrium
from cme.allocator import WeightedChannels, water_fill
from cme.bestresponse import GameMode, TopicGrid, TopicSearchParams
from cme.equilibrium import (
    DynamicsParams,
    check_nash,
    price_of_influence,
    proxy_equivalence_report,
    run_dynamics,
    run_dynamics_all,
)
from cme.kernels import DelayParams, InvalidInputError, KernelParams, TopicPoint, discount
from cme.market import InfluencerAllocation, MarketAllocation, MarketConfig, match_matrix, \
    social_welfare
from cme.scenario import parse_scenario
from markets_util import random_allocation, random_config, with_consumer

SEARCH = TopicSearchParams(grid_resolution=64, refine_iters=30)
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
            old, degenerate_old = ref.gauss_seidel_round(old, cfg, mode, grid, values)
            new, degenerate_new = equilibrium._one_round(new, cfg, mode, grid,
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
        old, degenerate_old = ref.gauss_seidel_round(start, cfg, GameMode.IMPERFECT, grid,
                                                     values)
        new, degenerate_new = equilibrium._one_round(start, cfg, GameMode.IMPERFECT, grid,
                                                     match_matrix(start.X, cfg))
        if any(ref.saturated(v, cfg) for v in values):
            continue
        assert degenerate_new == degenerate_old
        np.testing.assert_allclose(new.X, old.X, rtol=0.0, atol=1e-9)
        degenerate_rounds += bool(degenerate_old)
    assert degenerate_rounds >= 2


def _reference_run(cfg, mode, params, search):
    """run_dynamics on the per-producer round and certificate; None when the
    exact imperfect objective ever saturated (see reference_search.saturated)."""
    values = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equilibrium, "_one_round",
                   lambda state, cfg, mode, grid, B: ref.gauss_seidel_round(
                       state, cfg, mode, grid, values))
        mp.setattr(equilibrium, "_imperfect_producer_gap", ref.imperfect_gap)
        mp.setattr(equilibrium, "_support_producer_gap", ref.support_gap)
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
        assert equilibrium._imperfect_producer_gap(d, cfg, grid, B) == pytest.approx(
            ref.imperfect_gap(d, cfg, grid), rel=0.0, abs=1e-12)
        assert equilibrium._support_producer_gap(d, cfg, grid, B) == pytest.approx(
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
