"""Compact copies of the per-agent code that the consumer and producer
blocks replaced.

They are the references of the differential tests in test_bestresponse.py
and test_equilibrium.py:

- ``consumer_br`` and ``consumer_round``: one water-filling solve per
  consumer over its own channels (``consumer_round`` is a drop-in for
  ``bestresponse.consumers_br_dense``);
- ``perfect_search``: one producer's grid scan, golden-section polish on
  the direct objective and incumbent rule on its realized support;
- ``exact_imperfect_search``: one producer's search on the influencer's
  re-solved rate, one water-filling re-solve per candidate topic;
- ``gauss_seidel_round``: a full round with one solve per consumer and one
  search per producer in index order (drop-in for ``equilibrium._one_round``);
- ``imperfect_gap`` and ``support_gap``: certificate condition (a) with a
  (G + 1)-row re-solve and a scalar support evaluation per producer (drop-ins
  for ``equilibrium._imperfect_producer_gap`` / ``_support_producer_gap``).
"""

import math

import numpy as np

from cme.allocator import WeightedChannels, water_fill, water_fill_batch
from cme.bestresponse import GameMode, influencer_br_dense
from cme.kernels import discount, pairwise_distances
from cme.market import InfluencerAllocation, MarketAllocation, match_matrix


def consumer_br(y, delta_infl, B, cfg, mode):
    """(lambda, mu_i, direct row) of consumer y.

    Channels are the outside source (weight r_0*B_0), the influencer (weight
    r_p * sum_{z != y} B[z,y] * delta(mu_infl(z))) and, outside proxy mode,
    one direct channel per other producer with weight r_p * B[z, y].
    """
    n = cfg.n
    w_infl = cfg.r_p * (float(B[:, y] @ delta_infl) - B[y, y] * delta_infl[y])
    direct_row = np.zeros(n)
    if mode is GameMode.PROXY:
        weights = np.array([cfg.r_0 * cfg.b_0, w_infl])
        sol = water_fill(WeightedChannels(weights=weights, budget=cfg.m), cfg.delay)
        return float(sol.rates[0]), float(sol.rates[1]), direct_row
    others = np.arange(n) != y
    weights = np.concatenate(([cfg.r_0 * cfg.b_0, w_infl], cfg.r_p * B[others, y]))
    sol = water_fill(WeightedChannels(weights=weights, budget=cfg.m), cfg.delay)
    direct_row[others] = sol.rates[2:]
    return float(sol.rates[0]), float(sol.rates[1]), direct_row


def consumer_round(delta_infl, B, cfg, mode):
    """Every consumer's best response, one at a time, as (lam, mu_i, direct)."""
    lam, mu_i, rows = zip(*(consumer_br(y, delta_infl, B, cfg, mode) for y in range(cfg.n)))
    return np.array(lam), np.array(mu_i), np.stack(rows)


def golden_max(f, lo, hi, iters):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
            if fc > best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
            if fd > best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def pick_topic(grid, vals, objective, cfg, prev_x):
    """Argmax, polish (dim 1), degenerate rule and incumbent rule."""
    best = int(np.argmax(vals))
    best_val = float(vals[best])
    if best_val <= 0.0:
        keep = grid.points[0] if prev_x is None else np.asarray(prev_x, float)
        return keep.copy(), 0.0, True
    x_best = grid.points[best].copy()
    if cfg.dim == 1 and grid.refine_iters > 0:
        lo = grid.points[max(best - 1, 0), 0]
        hi = grid.points[min(best + 1, len(grid.points) - 1), 0]
        x_ref, val_ref = golden_max(
            lambda t: float(objective(np.array([[t]]))[0]), lo, hi, grid.refine_iters)
        if val_ref > best_val:
            x_best, best_val = np.array([min(max(x_ref, 0.0), 1.0)]), val_ref
    if prev_x is not None:
        prev = np.asarray(prev_x, dtype=float)
        val_prev = float(objective(prev[None, :])[0])
        if val_prev >= best_val:
            return prev.copy(), val_prev, False
    return x_best, best_val, False


def support_objective(z, wv, cfg):
    Y = cfg.interest_array()

    def objective(pts):
        D = pairwise_distances(pts, Y)
        return np.exp(-cfg.kernel.a_g * D[:, z]) * (np.exp(-cfg.kernel.a_f * D) @ wv)

    return objective


def perfect_search(z, d_i, d_infl_z, d_direct_z, grid, cfg, prev_x=None):
    """(topic, r_p * support, degenerate) of producer z, rates held fixed."""
    wv = d_infl_z * d_i + d_direct_z
    wv[z] = 0.0
    vals = grid.Q[:, z] * (grid.P @ wv)
    x, val, degen = pick_topic(grid, vals, support_objective(z, wv, cfg), cfg, prev_x)
    return x, cfg.r_p * val, degen


def exact_imperfect_search(z, mu_i, X, grid, cfg, prev_x=None):
    """(topic, delta of the re-solved rate, degenerate) of producer z."""
    n = cfg.n
    if float(np.sum(mu_i)) == 0.0:
        keep = grid.points[0] if prev_x is None else np.asarray(prev_x, float)
        return keep.copy(), float(discount(cfg.m_infl / n, cfg.delay)), True
    d_i = discount(mu_i, cfg.delay)
    B = match_matrix(X, cfg)
    gamma = cfg.r_p * (B @ d_i - np.diagonal(B) * d_i)
    d_i_masked = d_i.copy()
    d_i_masked[z] = 0.0

    def resolved(gamma_z):
        W = np.tile(gamma, (len(gamma_z), 1))
        W[:, z] = gamma_z
        rates, _ = water_fill_batch(W, cfg.m_infl, cfg.delay)
        return discount(rates[:, z], cfg.delay)

    def scores(pts):
        return resolved(cfg.r_p * support_objective(z, d_i_masked, cfg)(pts))

    vals = resolved(cfg.r_p * grid.Q[:, z] * (grid.P @ d_i_masked))
    return pick_topic(grid, vals, scores, cfg, prev_x)


def saturated(value, cfg):
    """Is the exact imperfect objective flat at its top?

    delta of the re-solved rate is capped at delta(M_infl), reached once z
    is the influencer's only active channel, and rounds to 1.0 once beta
    times the rate passes about 37.  Past either point every candidate
    scores the same, so the exact search keeps the first topic that gets
    there (or the incumbent), while the match-mass search moves on to the
    mass argmax.  Both are best responses; the topics differ by design.
    """
    return value == 1.0 or value >= discount(cfg.m_infl, cfg.delay) * (1.0 - 1e-12)


def gauss_seidel_round(state, cfg, mode, grid, values=None):
    """One round with one producer search at a time, in index order; returns
    (next state, degenerate producers).  `values`, when given, collects each
    producer's objective value."""
    B = match_matrix(state.X, cfg)
    mu_infl = influencer_br_dense(state.mu_i, B, cfg)
    lam, mu_i, direct = consumer_round(discount(mu_infl, cfg.delay), B, cfg, mode)
    X = state.X.copy()
    degenerate = set()
    d_i = discount(mu_i, cfg.delay)
    d_infl = discount(mu_infl, cfg.delay)
    d_direct = discount(direct, cfg.delay)
    for z in range(cfg.n):
        if mode is GameMode.IMPERFECT:
            x, value, degen = exact_imperfect_search(z, mu_i, X, grid, cfg, prev_x=X[z])
        else:
            x, value, degen = perfect_search(z, d_i, float(d_infl[z]), d_direct[:, z],
                                             grid, cfg, prev_x=X[z])
        if values is not None:
            values.append(value)
        X[z] = x
        if degen:
            degenerate.add(z)
    return MarketAllocation(lam, mu_i, direct, InfluencerAllocation(mu_infl), X), degenerate


def imperfect_gap(dense, cfg, grid, B=None):
    if float(np.sum(dense.mu_i)) == 0.0:
        return 0.0
    d_i = discount(dense.mu_i, cfg.delay)
    B = match_matrix(dense.X, cfg)
    gamma = cfg.r_p * (B @ d_i - np.diagonal(B) * d_i)
    worst = 0.0
    for z in range(cfg.n):
        d_i_masked = d_i.copy()
        d_i_masked[z] = 0.0
        cand = cfg.r_p * grid.Q[:, z] * (grid.P @ d_i_masked)
        cur_gamma = cfg.r_p * float(support_objective(z, d_i_masked, cfg)(dense.X[z][None, :])[0])
        W = np.tile(gamma, (len(cand) + 1, 1))
        W[:-1, z] = cand
        W[-1, z] = cur_gamma
        rates, _ = water_fill_batch(W, cfg.m_infl, cfg.delay)
        scores = discount(rates[:, z], cfg.delay)
        best = float(np.max(scores[:-1]))
        if best > 0.0:
            worst = max(worst, max(0.0, best - float(scores[-1])) / best)
    return worst


def support_gap(dense, cfg, grid, B=None):
    d_i = discount(dense.mu_i, cfg.delay)
    d_infl = discount(dense.mu_infl, cfg.delay)
    d_direct = discount(dense.direct, cfg.delay)
    worst = 0.0
    for z in range(cfg.n):
        wv = d_infl[z] * d_i + d_direct[:, z]
        wv[z] = 0.0
        grid_best = float(np.max(grid.Q[:, z] * (grid.P @ wv)))
        if grid_best > 0.0:
            current = float(support_objective(z, wv, cfg)(dense.X[z][None, :])[0])
            worst = max(worst, max(0.0, grid_best - current) / grid_best)
    return worst
