"""Single-agent best responses for the three information regimes.

Perfect information: producer z picks the topic maximizing its realized
support -- direct plus influencer-relayed consumption.  Imperfect
information: producers see only the consumers' rates, so z picks the topic
maximizing the influencer's *re-solved* rate on z.  Proxy: consumers keep
no direct channels and producers compete for the influencer's attention.
Consumers and the influencer face weighted-channel programs and delegate
to the water-filling allocator.

Producers are searched as one block.  Producer z's objective at topic x is
g(d(x, z)) * sum_y f(d(x, y)) * W[y, z], where column z of W holds z's
consumer weights: delta(mu_infl(z)) * delta(mu_i(y)) + delta(mu_direct(y, z))
(perfect/proxy, ``support_weights``) or delta(mu_i(y)) (imperfect,
``follower_weights``).  ``producer_block`` scans the grid for all columns
with (G, N) @ (N, N) products taken in column chunks, polishes each best
cell by golden-section search (dim 1; each column takes the branches a
scalar search would take), and keeps the incumbent unless a candidate is
strictly better.  Exact grid ties go to the lexicographically smallest
node; a column that is zero on the whole grid is degenerate and keeps its
incumbent.  Each objective reads only its own topic, so the block equals N
one-producer searches (Monderer & Shapley, *Potential Games*, 1996).

The imperfect search runs on the match mass: the influencer's re-solved
rate on z is nondecreasing in z's weight (r_p times the mass) and strictly
increasing while z is active, so both share their argmax whenever z earns
attention at its best grid mass.  ``imperfect_producer_round`` re-solves the
influencer once per producer, in order, at that mass: a zero rate makes the
producer degenerate, otherwise it moves and its weight is updated before
the next producer (Gauss-Seidel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .allocator import WeightedChannels, water_fill
from .kernels import InvalidInputError, TopicPoint, discount, pairwise_distances
from .market import (
    ConsumerAllocation,
    ContentAssignment,
    InfluencerAllocation,
    MarketConfig,
    consumer_arrays,
    content_array,
    influencer_followed_match,
    match_matrix,
)


class GameMode(Enum):
    PERFECT = "perfect"
    IMPERFECT = "imperfect"
    PROXY = "proxy"

    @classmethod
    def parse(cls, text: str) -> "GameMode":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise InvalidInputError(
                f"unknown game mode {text!r}; expected perfect, imperfect, or proxy"
            ) from None


@dataclass(frozen=True)
class TopicSearchParams:
    """Grid density per axis and golden-section polish iterations (dim 1)."""

    grid_resolution: int = 256
    refine_iters: int = 40

    def __post_init__(self):
        if self.grid_resolution < 8:
            raise InvalidInputError(
                f"grid_resolution must be at least 8, got {self.grid_resolution}")
        if self.refine_iters < 0:
            raise InvalidInputError("refine_iters must be nonnegative")


class TopicGrid:
    """Candidate topics with precomputed kernel values against all interests.

    points  (G, dim) grid nodes in lexicographic order
    P       (G, N)   interest kernel f at each (node, member) pair
    Q       (G, N)   production kernel g at each (node, member) pair
    cell    per-axis spacing, the resolution quantum of every grid argmax
    """

    def __init__(self, cfg: MarketConfig, search: TopicSearchParams):
        r = search.grid_resolution
        axis = np.linspace(0.0, 1.0, r)
        if cfg.dim == 1:
            pts = axis[:, None]
        else:
            pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        D = pairwise_distances(pts, cfg.interest_array())
        self.points = pts
        self.P = np.exp(-cfg.kernel.a_f * D)
        self.Q = np.exp(-cfg.kernel.a_g * D)
        self.cell = 1.0 / (r - 1)
        self.refine_iters = search.refine_iters


class ProducerChoice(NamedTuple):
    """A producer best response: the topic, its objective value, and whether
    the objective was identically zero (degenerate: any topic is optimal)."""

    topic: TopicPoint
    value: float
    degenerate: bool


class ProducerBlock(NamedTuple):
    """Best responses of a block of k producers.

    topics     (k, dim) chosen topic per producer
    values     (k,)     objective at the chosen topic (0 when degenerate)
    grid_best  (k,)     best objective on the grid; <= 0 means degenerate
    """

    topics: np.ndarray
    values: np.ndarray
    grid_best: np.ndarray

    @property
    def degenerate(self) -> np.ndarray:
        return self.grid_best <= 0.0


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_CHUNK = 64


# ---------------------------------------------------------------------------
# dense cores -- the equilibrium loop calls these directly on its arrays
# ---------------------------------------------------------------------------

def influencer_br_dense(mu_i: np.ndarray, B: np.ndarray, cfg: MarketConfig) -> np.ndarray:
    """Optimal influencer rates given consumer follow rates and topics.

    Channel z is worth r_p * sum_{y != z} delta(mu_i(y)) * B[z, y].  When no
    consumer follows the influencer at all, every weight is zero and the
    uniform split of the budget is the pinned-down fallback.
    """
    n = cfg.n
    if float(np.sum(mu_i)) == 0.0:
        return np.full(n, cfg.m_infl / n)
    gamma = cfg.r_p * influencer_followed_match(discount(mu_i, cfg.delay), B)
    sol = water_fill(WeightedChannels(weights=gamma, budget=cfg.m_infl), cfg.delay)
    return sol.rates


def consumer_br_dense(y: int, delta_infl: np.ndarray, B: np.ndarray,
                      cfg: MarketConfig, mode: GameMode
                      ) -> tuple[float, float, np.ndarray]:
    """Optimal split of consumer y's budget; returns (lambda, mu_i, direct row).

    Channels are the outside source (weight r_0*B_0, always positive), the
    influencer (weight r_p * sum_{z != y} B[z,y] * delta(mu_infl(z))), and --
    outside proxy mode -- one direct channel per other producer with weight
    r_p * B[z, y].  Proxy mode consumers hold no direct channels at all.
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


def support_weights(mu_i: np.ndarray, mu_infl: np.ndarray, direct: np.ndarray,
                    cfg: MarketConfig) -> np.ndarray:
    """Perfect/proxy producer weights, (N, N): column z is
    delta(mu_infl(z)) * delta(mu_i) + delta(direct[:, z]), zero at z."""
    W = discount(direct, cfg.delay)
    W += np.outer(discount(mu_i, cfg.delay), discount(mu_infl, cfg.delay))
    np.fill_diagonal(W, 0.0)
    return W


def follower_weights(d_i: np.ndarray) -> np.ndarray:
    """Imperfect producer weights, (N, N): column z is delta(mu_i), zero at z."""
    W = np.repeat(d_i[:, None], d_i.size, axis=1)
    np.fill_diagonal(W, 0.0)
    return W


def _chunks(k: int) -> list[slice]:
    """Producer chunks of _CHUNK columns: a chunk's (G, c) scan is a small
    level-3 BLAS product, and its (c, N) polish tables stay small too."""
    return [slice(s, s + _CHUNK) for s in range(0, k, _CHUNK)]


def _grid_objective(W: np.ndarray, grid: TopicGrid, cols: np.ndarray) -> np.ndarray:
    """(G, k) objective of producers `cols` (weight columns W) at every grid node."""
    vals = grid.P @ W
    vals *= grid.Q[:, cols]
    return vals


def grid_best(W: np.ndarray, grid: TopicGrid) -> np.ndarray:
    """Best grid objective of every producer, weight columns W (N, N)."""
    cols = np.arange(W.shape[1])
    return np.concatenate([_grid_objective(W[:, sl], grid, cols[sl]).max(axis=0)
                           for sl in _chunks(cols.size)])


def _objective(T: np.ndarray, W: np.ndarray, cols: np.ndarray,
               cfg: MarketConfig) -> np.ndarray:
    """Objective of producer cols[j] at topic T[j] against weight column W[:, j]."""
    D = pairwise_distances(T, cfg.interest_array())
    q = np.exp(-cfg.kernel.a_g * D[np.arange(len(cols)), cols])
    D *= -cfg.kernel.a_f
    np.exp(D, out=D)
    return q * np.einsum("jy,yj->j", D, W)


def _golden_block(f, lo: np.ndarray, hi: np.ndarray, iters: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maximization of f on each [lo[j], hi[j]] in lockstep.

    Each element takes exactly the branches a scalar golden-section search
    would take on its own; returns the best point seen and its value.
    """
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    left = fc >= fd
    best_x, best_f = np.where(left, c, d), np.where(left, fc, fd)
    for _ in range(iters):
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        t = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        ft = f(t)
        c, d = np.where(left, t, d), np.where(left, c, t)
        fc, fd = np.where(left, ft, fd), np.where(left, fc, ft)
        up = ft > best_f
        best_x, best_f = np.where(up, t, best_x), np.where(up, ft, best_f)
    return best_x, best_f


def producer_block(W: np.ndarray, grid: TopicGrid, cfg: MarketConfig,
                   prev: np.ndarray | None = None, cols=None) -> ProducerBlock:
    """Best topics of producers `cols` (default: all N) against weight columns W.

    Column j of W (N, k) weighs producer cols[j]'s consumers and is zero at
    cols[j].  prev (k, dim) holds the incumbent topics: a degenerate
    producer keeps its incumbent (the smallest grid node when prev is None),
    and any other keeps it unless a candidate is strictly better.  Scan,
    polish and incumbent check run in chunks of _CHUNK producers, so the
    temporaries are (G, _CHUNK) and (_CHUNK, N) tables.
    """
    cols = np.arange(cfg.n) if cols is None else np.asarray(cols)
    k = cols.size
    topics = np.empty((k, cfg.dim))
    values, best_on_grid = np.empty(k), np.empty(k)
    refine = grid.refine_iters if cfg.dim == 1 else 0
    last = len(grid.points) - 1
    for sl in _chunks(k):
        vals = _grid_objective(W[:, sl], grid, cols[sl])
        best = np.argmax(vals, axis=0)
        best_on_grid[sl] = vals[best, np.arange(best.size)]
        topics[sl] = grid.points[best]
        values[sl] = best_on_grid[sl]

        def objective(T, sl=sl):
            return _objective(T, W[:, sl], cols[sl], cfg)

        if refine:
            lo = grid.points[np.maximum(best - 1, 0), 0]
            hi = grid.points[np.minimum(best + 1, last), 0]
            x, fx = _golden_block(lambda t: objective(t[:, None]), lo, hi, refine)
            up = fx > values[sl]
            topics[sl][up, 0] = np.clip(x[up], 0.0, 1.0)
            values[sl][up] = fx[up]
        if prev is not None:
            at_prev = objective(prev[sl])
            keep = at_prev >= values[sl]  # move only on strict improvement
            topics[sl][keep] = prev[sl][keep]
            values[sl][keep] = at_prev[keep]
    degen = best_on_grid <= 0.0
    topics[degen] = grid.points[0] if prev is None else prev[degen]
    values[degen] = 0.0
    return ProducerBlock(topics, values, best_on_grid)


def _resolved_rate(gamma: np.ndarray, z: int, weight: float, cfg: MarketConfig) -> float:
    """The influencer's re-solved rate on z once z's channel weight is `weight`."""
    w = gamma.copy()
    w[z] = weight
    return float(water_fill(WeightedChannels(weights=w, budget=cfg.m_infl),
                            cfg.delay).rates[z])


def imperfect_producer_round(mu_i: np.ndarray, X: np.ndarray, grid: TopicGrid,
                             cfg: MarketConfig) -> np.ndarray:
    """One imperfect-regime producer pass, in place on X; returns the
    degenerate mask.

    Producers move in index order, each against the influencer's channel
    weights at the current topics (see the module docstring).  When nobody
    follows the influencer its split is the uniform fallback whatever the
    topics, so every producer is degenerate.
    """
    if float(np.sum(mu_i)) == 0.0:
        return np.ones(cfg.n, dtype=bool)
    d_i = discount(mu_i, cfg.delay)
    block = producer_block(follower_weights(d_i), grid, cfg, prev=X)
    gamma = cfg.r_p * influencer_followed_match(d_i, match_matrix(X, cfg))
    degenerate = block.degenerate.copy()
    for z in np.flatnonzero(~degenerate):
        if _resolved_rate(gamma, z, cfg.r_p * block.grid_best[z], cfg) > 0.0:
            X[z] = block.topics[z]
            gamma[z] = cfg.r_p * block.values[z]
        else:
            degenerate[z] = True
    return degenerate


# ---------------------------------------------------------------------------
# typed wrappers over the dense cores
# ---------------------------------------------------------------------------

def influencer_best_response(lambda_all: Sequence[ConsumerAllocation],
                             x_all: ContentAssignment,
                             cfg: MarketConfig) -> InfluencerAllocation:
    _, mu_i, _ = consumer_arrays(lambda_all, cfg.n)
    B = match_matrix(content_array(x_all), cfg)
    return InfluencerAllocation(mu=influencer_br_dense(mu_i, B, cfg))


def consumer_best_response(y: int, mu_infl: InfluencerAllocation,
                           x_all: ContentAssignment, cfg: MarketConfig,
                           mode: GameMode) -> ConsumerAllocation:
    B = match_matrix(content_array(x_all), cfg)
    delta_infl = discount(mu_infl.mu, cfg.delay)
    lam, mu_i, direct_row = consumer_br_dense(y, delta_infl, B, cfg, mode)
    direct = {z: float(r) for z, r in enumerate(direct_row) if r > 0.0}
    return ConsumerAllocation(lambda_out=lam, mu_infl_follow=mu_i, mu_direct=direct)


def _one_producer(z: int, W: np.ndarray, cfg: MarketConfig, search: TopicSearchParams,
                  prev: TopicPoint | None) -> ProducerBlock:
    """The block restricted to producer z, with weight column W[:, z]."""
    return producer_block(W[:, [z]], TopicGrid(cfg, search), cfg, cols=[z],
                          prev=None if prev is None else prev.as_array()[None, :])


def _choice(x: np.ndarray, val: float, degen: bool) -> ProducerChoice:
    return ProducerChoice(topic=TopicPoint(tuple(x)), value=float(val), degenerate=bool(degen))


def _support_choice(block: ProducerBlock, cfg: MarketConfig) -> ProducerChoice:
    return _choice(block.topics[0], cfg.r_p * block.values[0], block.degenerate[0])


def producer_best_response_perfect(z: int, mu_infl: InfluencerAllocation,
                                   lambda_all: Sequence[ConsumerAllocation],
                                   cfg: MarketConfig, search: TopicSearchParams,
                                   prev: TopicPoint | None = None) -> ProducerChoice:
    _, mu_i, direct = consumer_arrays(lambda_all, cfg.n)
    W = support_weights(mu_i, mu_infl.mu, direct, cfg)
    return _support_choice(_one_producer(z, W, cfg, search, prev), cfg)


def producer_best_response_imperfect(z: int, lambda_all: Sequence[ConsumerAllocation],
                                     x_all: ContentAssignment, cfg: MarketConfig,
                                     search: TopicSearchParams,
                                     prev: TopicPoint | None = None) -> ProducerChoice:
    """Topic maximizing the influencer's re-solved rate on z, the others at
    `x_all`, found on the match mass; the value is delta of that rate.  A
    zero rate at the best grid mass is degenerate, and so is the Assumption-4
    fallback (nobody follows the influencer), which scores every topic alike.
    """
    _, mu_i, _ = consumer_arrays(lambda_all, cfg.n)
    d_i = discount(mu_i, cfg.delay)
    block = _one_producer(z, follower_weights(d_i), cfg, search, prev)
    if float(np.sum(mu_i)) == 0.0:
        return _choice(block.topics[0], discount(cfg.m_infl / cfg.n, cfg.delay), True)
    gamma = cfg.r_p * influencer_followed_match(d_i, match_matrix(content_array(x_all), cfg))
    if block.degenerate[0] or \
            _resolved_rate(gamma, z, cfg.r_p * block.grid_best[0], cfg) == 0.0:
        keep = np.zeros(cfg.dim) if prev is None else prev.as_array()
        return _choice(keep, 0.0, True)
    rate = _resolved_rate(gamma, z, cfg.r_p * block.values[0], cfg)
    return _choice(block.topics[0], discount(rate, cfg.delay), False)


def producer_best_response_surrogate(z: int, lambda_all: Sequence[ConsumerAllocation],
                                     cfg: MarketConfig, search: TopicSearchParams,
                                     prev: TopicPoint | None = None) -> ProducerChoice:
    _, mu_i, _ = consumer_arrays(lambda_all, cfg.n)
    W = follower_weights(discount(mu_i, cfg.delay))
    return _support_choice(_one_producer(z, W, cfg, search, prev), cfg)
