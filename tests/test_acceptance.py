"""Acceptance gate: eight timed, tolerance-pinned criteria that exercise the
whole engine end to end.

Each test is one criterion; its -v line is the pass/fail verdict, and on
success it prints one `ACCEPTANCE k: PASS — ...` summary line (visible with
pytest -s or in captured output).
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np

from cme.allocator import water_fill
from cme.bestresponse import GameMode, TopicSearchParams
from cme.equilibrium import DynamicsParams, proxy_equivalence_report, run_dynamics
from cme.kernels import DelayParams, KernelParams, TopicPoint, discount
from cme.market import (
    InfluencerAllocation,
    MarketAllocation,
    MarketConfig,
    consumer_utilities,
    influencer_utility,
    producer_support,
)
from cme.scenario import InterestSpec, median_relative_poi, parse_sweep, run_sweep
from markets_util import random_allocation, random_config
from oracles import gradient_oracle_batch, kkt_residuals
from test_allocator import random_instance

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"


def test_acceptance_1_potential_identity():
    """1,000 unilateral deviations: welfare change equals the deviator's."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    deviations = 0
    for _ in range(20):
        cfg = random_config(rng, n_max=15, n_min=3)
        n = cfg.n
        omega = random_allocation(rng, cfg)
        for _ in range(50):
            phi0 = float(consumer_utilities(omega, cfg).sum())
            kind = int(rng.integers(0, 3))
            if kind == 0:
                y = int(rng.integers(n))
                u0 = float(consumer_utilities(omega, cfg)[y])
                split = rng.dirichlet(np.ones(n + 1)) * rng.uniform(0.0, 1.0) * cfg.m
                lam, mu_i = omega.lam.copy(), omega.mu_i.copy()
                direct = omega.direct.toarray()
                lam[y], mu_i[y] = split[0], split[1]
                row = np.zeros(n)
                row[:y], row[y + 1:] = split[2:y + 2], split[y + 2:]
                direct[y] = row
                new = MarketAllocation(lam, mu_i, direct, omega.influencer, omega.X)
                u1 = float(consumer_utilities(new, cfg)[y])
                phi1 = float(consumer_utilities(new, cfg).sum())
            elif kind == 1:
                u0 = influencer_utility(omega, cfg)
                mu_infl = rng.dirichlet(np.ones(n)) * rng.uniform(0.0, 1.0) * cfg.m_infl
                new = dataclasses.replace(omega, influencer=InfluencerAllocation(mu=mu_infl))
                u1 = influencer_utility(new, cfg)
                phi1 = float(consumer_utilities(new, cfg).sum())
            else:
                z = int(rng.integers(n))
                u0 = producer_support(z, omega, cfg)
                X = omega.X.copy()
                X[z] = rng.uniform(0.0, 1.0, cfg.dim)
                new = dataclasses.replace(omega, X=X)
                u1 = producer_support(z, new, cfg)
                phi1 = float(consumer_utilities(new, cfg).sum())
            worst = max(worst, abs((phi1 - phi0) - (u1 - u0)))
            deviations += 1
            omega = new  # random-walk the state so deviations compound
    elapsed = time.perf_counter() - t0
    assert deviations == 1000
    assert worst <= 1e-9, f"potential identity violated by {worst:g}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s (budget 10s)"
    print(f"ACCEPTANCE 1: PASS — 1000 deviations on 20 instances, "
          f"max |dPhi - du| = {worst:.2e}, {elapsed:.1f}s")


def test_acceptance_2_water_filling_optimality():
    """Closed-form allocator beats the gradient oracle; KKT residuals tiny."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_gap = -math.inf
    worst_kkt = 0.0
    instances = [random_instance(rng) for _ in range(200)]
    for (ch, d), go in zip(instances, gradient_oracle_batch(instances)):
        wf = water_fill(ch, d)
        worst_gap = max(worst_gap, go.objective - wf.objective)
        worst_kkt = max(worst_kkt, max(kkt_residuals(wf, ch, d).values()))
    elapsed = time.perf_counter() - t0
    assert worst_gap <= 1e-6, f"oracle beat water-fill by {worst_gap:g}"
    assert worst_kkt <= 1e-9, f"KKT residual {worst_kkt:g}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s (budget 30s)"
    print(f"ACCEPTANCE 2: PASS — 200 instances, max oracle-minus-closed-form "
          f"= {worst_gap:.2e}, max KKT residual = {worst_kkt:.2e}, "
          f"{elapsed:.1f}s")


def test_acceptance_3_perfect_mode_convergence_and_certificates():
    """30 random markets: dynamics converge, trace monotone, certificate holds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    search = TopicSearchParams(grid_resolution=128)
    params = DynamicsParams(restarts=0, max_rounds=500)
    rounds = []
    for _ in range(30):
        cfg = random_config(rng, n_max=20, n_min=3)
        res = run_dynamics(cfg, GameMode.PERFECT, params=params, search=search)
        assert res.converged, f"no convergence within 500 rounds (seed {cfg.seed})"
        scale = max(1.0, abs(res.potential_trace[-1]))
        for a, b in zip(res.potential_trace, res.potential_trace[1:]):
            assert b >= a - 1e-9 * scale, f"potential dropped {a} -> {b}"
        assert res.certificate.holds, res.certificate.residuals
        rounds.append(res.rounds_used)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s (budget 120s)"
    print(f"ACCEPTANCE 3: PASS — 30 instances converged "
          f"(max {max(rounds)} rounds), all certificates hold, {elapsed:.1f}s")


def test_acceptance_4_influencer_facing_argmax_matches_topics():
    """At certified imperfect equilibria, the influencer-facing topic score
    peaks within one grid cell of every chosen topic."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    search = TopicSearchParams(grid_resolution=256)
    # the score's own 256-node grid: the engine's dim-1 search has no grid
    axis = np.linspace(0.0, 1.0, 256)
    cell = 1.0 / 255
    params = DynamicsParams(restarts=0)
    certified = 0
    attempts = 0
    checked = 0
    while certified < 20:
        attempts += 1
        assert attempts <= 30, "too many uncertified instances"
        cfg = random_config(rng, n_max=8, n_min=3, dim=1)
        res = run_dynamics(cfg, GameMode.IMPERFECT, params=params, search=search)
        if not res.certificate.holds:
            continue
        certified += 1
        omega = res.omega
        if float(omega.mu_i.sum()) == 0.0:
            continue  # nobody follows: topic choice is unconstrained
        dist = np.abs(axis[:, None] - cfg.interest_array()[:, 0])
        P, Q = np.exp(-cfg.kernel.a_f * dist), np.exp(-cfg.kernel.a_g * dist)
        d_i = discount(omega.mu_i, cfg.delay)
        for z in range(cfg.n):
            if omega.mu_infl[z] <= 1e-12 * cfg.m_infl:
                continue
            d_m = d_i.copy()
            d_m[z] = 0.0
            if float(d_m.sum()) <= 0.0:
                continue  # no follower mass besides z itself
            scores = Q[:, z] * (P @ d_m)
            best = int(np.argmax(scores))
            gap = abs(float(axis[best]) - float(omega.X[z][0]))
            assert gap <= cell + 1e-12, \
                f"argmax {gap:g} away from topic (cell {cell:g})"
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked > 0
    assert elapsed < 180.0, f"took {elapsed:.1f}s (budget 180s)"
    print(f"ACCEPTANCE 4: PASS — {certified} certified equilibria "
          f"({attempts} runs), {checked} producer topics within one grid "
          f"cell, {elapsed:.1f}s")


def test_acceptance_5_price_of_influence_sweep(tmp_path):
    """Bundled sweep: median relative gap decays with community size."""
    t0 = time.perf_counter()
    spec = parse_sweep(FIXTURES / "poi_sweep.swp")
    assert spec.n_values == (5, 10, 20, 40)
    assert spec.replicates == 5
    assert spec.m_infl_rule == "proportional" and spec.k_infl == 1.0
    out = run_sweep(spec, out_dir=tmp_path)
    for r in out.rows:
        assert not r["converged_flags"].startswith("error"), r
        assert r["poi"] >= -1e-9, f"negative gap {r['poi']:g} at N={r['n']}"
    meds = median_relative_poi(out)
    vals = [meds[n] for n in spec.n_values]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-9, f"medians not nonincreasing: {vals}"
    assert vals[-1] <= 0.02, f"relative gap at N=40 is {vals[-1]:g}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"took {elapsed:.1f}s (budget 600s)"
    print(f"ACCEPTANCE 5: PASS — medians "
          + " ".join(f"N={n}:{meds[n]:.4g}" for n in spec.n_values)
          + f", all gaps >= -1e-9, {elapsed:.1f}s")


def test_acceptance_6_proxy_equivalence_at_scale():
    """N=40 with a matching influencer budget: perfect and imperfect
    equilibria satisfy the proxy conditions and carry no direct follows."""
    t0 = time.perf_counter()
    n = 40
    spec = InterestSpec(kind="two_cluster", n=n,
                        centers=(TopicPoint((0.2,)), TopicPoint((0.8,))),
                        spread=0.05)
    pts = spec.sample(n, 1, np.random.default_rng(606))
    cfg = MarketConfig(dim=1, interests=pts, m=1.0, m_infl=40.0,
                       r_p=1.0, r_0=1.0, b_0=0.5,
                       kernel=KernelParams(a_f=3.0, a_g=1.0),
                       delay=DelayParams(beta=1.0), seed=606)
    rep = proxy_equivalence_report(cfg, params=DynamicsParams(restarts=0),
                                   search=TopicSearchParams(grid_resolution=256))
    assert rep.perfect.certificate.holds
    assert rep.imperfect.certificate.holds
    assert rep.proxy.certificate.holds
    assert rep.perfect_is_proxy, rep.perfect_under_proxy.residuals
    assert rep.imperfect_is_proxy, rep.imperfect_under_proxy.residuals
    cap = 1e-6 * cfg.m * cfg.n
    assert rep.direct_rate_mass_perfect <= cap
    assert rep.direct_rate_mass_imperfect <= cap
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s (budget 300s)"
    print(f"ACCEPTANCE 6: PASS — N=40 cross-certificates hold, direct mass "
          f"perfect={rep.direct_rate_mass_perfect:.2e} "
          f"imperfect={rep.direct_rate_mass_imperfect:.2e} "
          f"(cap {cap:.1e}), {elapsed:.1f}s")


def test_acceptance_7_budget_saturation_everywhere():
    """Certified equilibria saturate both budget constraints to 1e-9."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    search = TopicSearchParams(grid_resolution=128)
    params = DynamicsParams(restarts=0)
    certified = 0
    total = 0
    for _ in range(6):
        cfg = random_config(rng, n_max=10, n_min=3)
        for mode in GameMode:
            res = run_dynamics(cfg, mode, params=params, search=search)
            total += 1
            if not res.certificate.holds:
                continue
            certified += 1
            spent_infl = float(np.sum(res.omega.influencer.mu))
            assert abs(spent_infl - cfg.m_infl) <= 1e-9, \
                f"influencer budget off by {spent_infl - cfg.m_infl:g}"
            spent = res.omega.lam + res.omega.mu_i + res.omega.direct.toarray().sum(axis=1)
            off = float(np.max(np.abs(spent - cfg.m)))
            assert off <= 1e-9, f"consumer budget off by {off:g}"
    elapsed = time.perf_counter() - t0
    assert certified >= total - 2, f"only {certified}/{total} certified"
    print(f"ACCEPTANCE 7: PASS — {certified}/{total} equilibria certified, "
          f"all budgets saturated to 1e-9, {elapsed:.1f}s")


def test_acceptance_8_repeat_sweep_is_byte_identical(tmp_path):
    """Same sweep, same seeds, different worker counts: identical bytes."""
    t0 = time.perf_counter()
    spec = parse_sweep(FIXTURES / "determinism.swp")
    a = run_sweep(spec, out_dir=tmp_path / "a", workers=2)
    b = run_sweep(spec, out_dir=tmp_path / "b", workers=1)
    assert a.csv_path.read_bytes() == b.csv_path.read_bytes()
    assert a.dat_path.read_bytes() == b.dat_path.read_bytes()
    assert len(a.row_paths) == len(b.row_paths) == 4
    for pa, pb in zip(a.row_paths, b.row_paths):
        assert pa.name == pb.name
        assert pa.read_bytes() == pb.read_bytes()
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 8: PASS — repeated sweep byte-identical "
          f"(CSV, plot data, {len(a.row_paths)} row files), {elapsed:.1f}s")
