"""Single-agent best responses for the three information regimes.

Perfect information: producer z picks the topic maximizing its realized
support -- direct plus influencer-relayed consumption.  Imperfect
information: producers see only the consumers' rates, so z picks the topic
maximizing the influencer's *re-solved* rate on z.  Proxy: consumers keep
no direct channels and producers compete for the influencer's attention.
Consumers and the influencer face weighted-channel programs and delegate
to the water-filling allocator.

Consumers are solved as one block.  Within a round each consumer's channel
weights depend only on (B, delta(mu_infl)), so ``consumers_br_dense``
builds them for all consumers at once -- the outside source r_0 * B_0, the
influencer r_p * (B^T delta(mu_infl) - diag(B) * delta(mu_infl)), and the
direct channels r_p * B^T with the self channel at weight 0 -- and runs the
allocator's closed form on row chunks of that table.

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

The polish evaluates ``_bracket_objective``.  In dim 1 the interest kernel
exp(-a_f * |t - y|) is semiseparable (Vandebril, Van Barel & Mastronardi,
*Matrix Computations and Semiseparable Matrices*, 2008): the interests
outside a producer's bracket [lo, hi] fold into two virtual interests at
lo and hi, weighted by sums taken once, so a golden step costs O(m) for
the m interests inside the bracket, not O(N).

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
from typing import NamedTuple

import numpy as np

from .allocator import WeightedChannels, _water_fill_rows, water_fill
from .kernels import InvalidInputError, TopicPoint, discount, pairwise_distances
from .market import (
    InfluencerAllocation,
    MarketAllocation,
    MarketConfig,
    influencer_followed_match,
    influencer_relayed_match,
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


def _consumer_rates(ys: np.ndarray, relayed: np.ndarray, B: np.ndarray,
                    cfg: MarketConfig, mode: GameMode) -> np.ndarray:
    """Optimal splits of consumers ys in one closed-form solve, (k, N + 2) rates.

    Columns are the outside source (weight r_0*B_0, always positive, so no
    row is degenerate), the influencer (weight r_p * relayed[y], see
    ``influencer_relayed_match``) and one direct channel per producer z with
    weight r_p * B[z, y], zero on the self channel, which therefore gets
    rate 0 exactly.  Proxy consumers hold no direct channels: (k, 2) rates.
    """
    weights = np.empty((ys.size, 2 if mode is GameMode.PROXY else cfg.n + 2))
    weights[:, 0] = cfg.r_0 * cfg.b_0
    weights[:, 1] = cfg.r_p * relayed[ys]
    if mode is not GameMode.PROXY:
        np.multiply(B[:, ys].T, cfg.r_p, out=weights[:, 2:])
        weights[np.arange(ys.size), 2 + ys] = 0.0
    return _water_fill_rows(weights, cfg.m, cfg.delay.beta)[0]


def consumers_br_dense(delta_infl: np.ndarray, B: np.ndarray, cfg: MarketConfig,
                       mode: GameMode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every consumer's best response as fresh (lam, mu_i, direct) arrays.

    Within a round the consumers depend only on (B, delta(mu_infl)), not on
    each other, so they are solved as one block, in row chunks of _CHUNK
    outside proxy mode: (_CHUNK, N + 2) temporaries keep a round's peak
    memory flat.
    """
    n = cfg.n
    ys = np.arange(n)
    relayed = influencer_relayed_match(delta_infl, B)
    if mode is GameMode.PROXY:
        rates = _consumer_rates(ys, relayed, B, cfg, mode)
        return rates[:, 0].copy(), rates[:, 1].copy(), np.zeros((n, n))
    lam, mu_i, direct = np.empty(n), np.empty(n), np.empty((n, n))
    for sl in _chunks(n):
        rates = _consumer_rates(ys[sl], relayed, B, cfg, mode)
        lam[sl], mu_i[sl] = rates[:, 0], rates[:, 1]
        direct[sl] = rates[:, 2:]
    return lam, mu_i, direct


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
    """Chunks of _CHUNK producers or consumers: a producer chunk's (G, c)
    scan is a small level-3 BLAS product, and its (c, N) polish tables and
    a consumer chunk's (c, N + 2) weights stay small too."""
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


def _bracket_objective(W: np.ndarray, cols: np.ndarray, lo: np.ndarray,
                       hi: np.ndarray, cfg: MarketConfig):
    """``_objective`` in dim 1 for topics t[j] inside [lo[j], hi[j]], at
    O(k * m) per call, m being the most interests strictly inside a bracket.

    The kernel exp(-a_f * |t - y|) is semiseparable: for an interest y <= lo
    it is exp(-a_f * (t - lo)) * exp(-a_f * (lo - y)), and for y >= hi it is
    exp(-a_f * (hi - t)) * exp(-a_f * (y - hi)).  So the interests outside
    a bracket act as two virtual interests at lo and hi, weighted by the
    sums out_l and out_r of their second factors, taken once.  With the
    interests strictly inside, they fill a (k, m + 2) table padded with
    zero weights.  Every exp factor is at most 1, so nothing overflows
    whatever a_f is.
    """
    a_f = cfg.kernel.a_f
    y = cfg.interest_array()[:, 0]

    def outside(gap):  # gap (k, N): how far each interest lies beyond an edge
        K = np.exp(-a_f * np.abs(gap))
        K[gap < 0.0] = 0.0
        return np.einsum("jy,yj->j", K, W)

    order = np.argsort(y)
    ys = y[order]
    first = np.searchsorted(ys, lo, side="right")
    stop = np.searchsorted(ys, hi, side="left")
    idx = first[:, None] + np.arange(int(np.max(stop - first, initial=0)))
    inside = idx < stop[:, None]
    idx = np.minimum(idx, y.size - 1)
    w_in = np.where(inside, W[order[idx], np.arange(cols.size)[:, None]], 0.0)
    y_tab = np.column_stack((lo, hi, ys[idx]))
    w_tab = np.column_stack((outside(lo[:, None] - y), outside(y - hi[:, None]), w_in))
    y_self = y[cols]

    def f(t):
        K = np.abs(t[:, None] - y_tab)
        K *= -a_f
        np.exp(K, out=K)
        return np.exp(-cfg.kernel.a_g * np.abs(t - y_self)) * np.einsum("jm,jm->j", w_tab, K)

    return f


def _golden_block(f, lo: np.ndarray, hi: np.ndarray, iters: int) -> np.ndarray:
    """Golden-section maximization of f on each [lo[j], hi[j]] in lockstep.

    Each element takes exactly the branches a scalar golden-section search
    would take on its own; returns the best point seen.
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
    return best_x


def producer_block(W: np.ndarray, grid: TopicGrid, cfg: MarketConfig,
                   prev: np.ndarray | None = None, cols=None) -> ProducerBlock:
    """Best topics of producers `cols` (default: all N) against weight columns W.

    Column j of W (N, k) weighs producer cols[j]'s consumers and is zero at
    cols[j].  prev (k, dim) holds the incumbent topics: a degenerate
    producer keeps its incumbent (the smallest grid node when prev is None),
    and any other keeps it unless a candidate is strictly better.  Scan,
    polish and incumbent check run in chunks of _CHUNK producers, so the
    temporaries are (G, _CHUNK) and (_CHUNK, N) tables.  The polish searches
    on ``_bracket_objective``; its best point is evaluated once more with
    ``_objective``, the formula every value and comparison here uses.
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
        if refine:
            lo = grid.points[np.maximum(best - 1, 0), 0]
            hi = grid.points[np.minimum(best + 1, last), 0]
            f = _bracket_objective(W[:, sl], cols[sl], lo, hi, cfg)
            x = np.clip(_golden_block(f, lo, hi, refine), 0.0, 1.0)
            fx = _objective(x[:, None], W[:, sl], cols[sl], cfg)
            up = fx > values[sl]
            topics[sl][up, 0] = x[up]
            values[sl][up] = fx[up]
        if prev is not None:
            at_prev = _objective(prev[sl], W[:, sl], cols[sl], cfg)
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
                             cfg: MarketConfig, B: np.ndarray) -> np.ndarray:
    """One imperfect-regime producer pass, in place on X; returns the
    degenerate mask.  B is ``match_matrix(X, cfg)`` on entry.

    Producers move in index order, each against the influencer's channel
    weights at the current topics (see the module docstring).  When nobody
    follows the influencer its split is the uniform fallback whatever the
    topics, so every producer is degenerate.
    """
    if float(np.sum(mu_i)) == 0.0:
        return np.ones(cfg.n, dtype=bool)
    d_i = discount(mu_i, cfg.delay)
    block = producer_block(follower_weights(d_i), grid, cfg, prev=X)
    gamma = cfg.r_p * influencer_followed_match(d_i, B)
    degenerate = block.degenerate.copy()
    for z in np.flatnonzero(~degenerate):
        if _resolved_rate(gamma, z, cfg.r_p * block.grid_best[z], cfg) > 0.0:
            X[z] = block.topics[z]
            gamma[z] = cfg.r_p * block.values[z]
        else:
            degenerate[z] = True
    return degenerate


# ---------------------------------------------------------------------------
# one-agent calls of the blocks, on a MarketAllocation
# ---------------------------------------------------------------------------

def influencer_best_response(omega: MarketAllocation, cfg: MarketConfig
                             ) -> InfluencerAllocation:
    """The influencer's optimal rates against omega's follow rates and topics."""
    return InfluencerAllocation(
        mu=influencer_br_dense(omega.mu_i, match_matrix(omega.X, cfg), cfg))


def consumer_best_response(y: int, omega: MarketAllocation, cfg: MarketConfig,
                           mode: GameMode) -> MarketAllocation:
    """omega with consumer y's rates replaced by its best response to omega's
    influencer rates and topics: the consumer block restricted to y."""
    B = match_matrix(omega.X, cfg)
    relayed = influencer_relayed_match(discount(omega.mu_infl, cfg.delay), B)
    rates = _consumer_rates(np.array([y]), relayed, B, cfg, mode)[0]
    lam, mu_i, direct = omega.lam.copy(), omega.mu_i.copy(), omega.direct.copy()
    lam[y], mu_i[y] = rates[0], rates[1]
    direct[y] = rates[2:] if mode is not GameMode.PROXY else 0.0
    return MarketAllocation(lam, mu_i, direct, omega.influencer, omega.X)


def _one_producer(z: int, W: np.ndarray, cfg: MarketConfig, search: TopicSearchParams,
                  prev: TopicPoint | None) -> ProducerBlock:
    """The block restricted to producer z, with weight column W[:, z]."""
    return producer_block(W[:, [z]], TopicGrid(cfg, search), cfg, cols=[z],
                          prev=None if prev is None else prev.as_array()[None, :])


def _choice(x: np.ndarray, val: float, degen: bool) -> ProducerChoice:
    return ProducerChoice(topic=TopicPoint(tuple(x)), value=float(val), degenerate=bool(degen))


def _support_choice(block: ProducerBlock, cfg: MarketConfig) -> ProducerChoice:
    return _choice(block.topics[0], cfg.r_p * block.values[0], block.degenerate[0])


def producer_best_response_perfect(z: int, omega: MarketAllocation, cfg: MarketConfig,
                                   search: TopicSearchParams,
                                   prev: TopicPoint | None = None) -> ProducerChoice:
    """Topic maximizing z's support under omega's rates; prev is the incumbent."""
    W = support_weights(omega.mu_i, omega.mu_infl, omega.direct, cfg)
    return _support_choice(_one_producer(z, W, cfg, search, prev), cfg)


def producer_best_response_imperfect(z: int, omega: MarketAllocation, cfg: MarketConfig,
                                     search: TopicSearchParams,
                                     prev: TopicPoint | None = None) -> ProducerChoice:
    """Topic maximizing the influencer's re-solved rate on z, the others at
    omega's topics, found on the match mass; the value is delta of that rate.
    A zero rate at the best grid mass is degenerate, and so is the
    Assumption-4 fallback (nobody follows the influencer), which scores
    every topic alike.
    """
    d_i = discount(omega.mu_i, cfg.delay)
    block = _one_producer(z, follower_weights(d_i), cfg, search, prev)
    if float(np.sum(omega.mu_i)) == 0.0:
        return _choice(block.topics[0], discount(cfg.m_infl / cfg.n, cfg.delay), True)
    gamma = cfg.r_p * influencer_followed_match(d_i, match_matrix(omega.X, cfg))
    if block.degenerate[0] or \
            _resolved_rate(gamma, z, cfg.r_p * block.grid_best[0], cfg) == 0.0:
        keep = np.zeros(cfg.dim) if prev is None else prev.as_array()
        return _choice(keep, 0.0, True)
    rate = _resolved_rate(gamma, z, cfg.r_p * block.values[0], cfg)
    return _choice(block.topics[0], discount(rate, cfg.delay), False)


def producer_best_response_surrogate(z: int, omega: MarketAllocation, cfg: MarketConfig,
                                     search: TopicSearchParams,
                                     prev: TopicPoint | None = None) -> ProducerChoice:
    """Topic maximizing z's follower-weighted match mass under omega's follow rates."""
    W = follower_weights(discount(omega.mu_i, cfg.delay))
    return _support_choice(_one_producer(z, W, cfg, search, prev), cfg)
