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
g(d(x, z)) * sum_y f(d(x, y)) * W[y, z], where column z of the
``market.PeerWeights`` W holds z's consumer weights: delta(mu_i(y)) *
delta(mu_infl(z)) + delta(mu_direct(y, z)) (perfect/proxy,
``support_weights``) or delta(mu_i(y)) (imperfect, the rank-one weights
with v = 1).  W is never a table: ``producer_block`` scans the grid in
column chunks as ((P @ u)[g] - P[g, z] * u[z]) * v[z], plus one
(G, r) @ (r, chunk) product over the r consumers holding a direct rate,
times Q -- O(G * N) per scan when nobody holds one; ``market.less_own``
sums the cells that z's own term dominates again without it.  It
polishes each best cell by golden-section search (dim 1; each column
takes the branches a scalar search would take), and keeps the incumbent
unless a candidate is strictly better.  The incumbent's objective is the
caller's: the round reads it from the match matrix B it already holds
(``PeerWeights.producer_values``), the very formula ``_objective``
evaluates.  Exact grid ties go to the lexicographically smallest node; a
column that is zero on the whole grid is degenerate and keeps its
incumbent.  Each objective reads only its own topic, so the block equals N
one-producer searches (Monderer & Shapley, *Potential Games*, 1996).

The polish evaluates ``_bracket_objective``.  In dim 1 the interest kernel
exp(-a_f * |t - y|) is semiseparable (Vandebril, Van Barel & Mastronardi,
*Matrix Computations and Semiseparable Matrices*, 2008): the interests
outside a producer's bracket [lo, hi] fold into two virtual interests at
lo and hi, weighted by sums taken once, so a golden step costs O(m) for
the m interests inside the bracket, not O(N).  Those sums read their
kernel factors from the grid table P, since lo and hi are grid nodes, and
their rank-one part from two per-node sums built once per block.
The golden steps run once per batch of producers, not once per chunk: a
batch holds as many producers, in order, as keep its padded bracket
tables within one chunk's (_CHUNK, N + 2) elements, which is every
producer when the brackets are narrow and _CHUNK of them at worst.

The imperfect search runs on the match mass: the influencer's re-solved
rate on z is nondecreasing in z's weight (r_p times the mass) and strictly
increasing while z is active, so both share their argmax whenever z earns
attention at its best grid mass.  ``imperfect_producer_round`` sorts the
influencer's weights once (``allocator.SortedChannels``) and asks whether
each producer is active at that mass: a few binary searches per producer,
no re-solve.  An inactive producer is degenerate; an active one moves.
Each producer sees the earlier producers' moves (Gauss-Seidel), so the
answers are taken against two bracketing weight sets, and only the
producers on which they disagree are asked again, in order, with the moves
before them written into the sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .allocator import SortedChannels, WeightedChannels, _water_fill_rows, water_fill
from .kernels import InvalidInputError, TopicPoint, discount, pairwise_distances
from .market import (
    InfluencerAllocation,
    MarketAllocation,
    MarketConfig,
    PeerWeights,
    influencer_followed_match,
    influencer_relayed_match,
    less_own,
    match_matrix,
    support_weights,
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
    order   (N,)     interests sorted by first coordinate (the dim-1 polish's)
    y_sorted (N,)    those first coordinates, ascending
    """

    def __init__(self, cfg: MarketConfig, search: TopicSearchParams):
        r = search.grid_resolution
        axis = np.linspace(0.0, 1.0, r)
        if cfg.dim == 1:
            pts = axis[:, None]
        else:
            pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        Y = cfg.interest_array()
        D = pairwise_distances(pts, Y)
        self.points = pts
        self.P = np.exp(-cfg.kernel.a_f * D)
        self.Q = np.exp(-cfg.kernel.a_g * D)
        self.cell = 1.0 / (r - 1)
        self.refine_iters = search.refine_iters
        self.order = np.argsort(Y[:, 0])
        self.y_sorted = Y[self.order, 0]


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

    Channel z is worth r_p * sum_{y != z} delta(mu_i(y)) * B[z, y].  When
    every weight is zero -- nobody follows the influencer, or no follower's
    match with any other producer is above 0 -- the uniform split of the
    budget is the pinned-down fallback.
    """
    gamma = cfg.r_p * influencer_followed_match(discount(mu_i, cfg.delay), B)
    if not np.any(gamma > 0.0):
        return np.full(cfg.n, cfg.m_infl / cfg.n)
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
    for sl in chunks(n):
        rates = _consumer_rates(ys[sl], relayed, B, cfg, mode)
        lam[sl], mu_i[sl] = rates[:, 0], rates[:, 1]
        direct[sl] = rates[:, 2:]
    return lam, mu_i, direct


def chunks(k: int, start: int = 0) -> list[slice]:
    """Chunks of _CHUNK of the k producers or consumers from `start`: a
    producer chunk's (G, c) scan and (c, N) evaluation tables, a consumer
    chunk's (c, N + 2) weights and a row chunk of two direct-rate tables'
    difference stay small."""
    return [slice(s, min(s + _CHUNK, start + k)) for s in range(start, start + k, _CHUNK)]


def _scan_factors(weights: PeerWeights, grid: TopicGrid) -> tuple[np.ndarray, np.ndarray]:
    """The grid scan's per-weights factors: P @ u (G,) and P's columns at
    the weights' rows (G, r)."""
    return grid.P @ weights.u, weights.at_rows(grid.P)


def _grid_objective(weights: PeerWeights, grid: TopicGrid, cols: slice,
                    factors: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(G, k) objective of producers `cols` at every grid node:
    ((P @ u)[g] - P[g, z] * u[z]) * v[z] plus the rows term, times Q[g, z].
    The self term leaves before v scales the sum, as in
    ``PeerWeights.producer_values`` and by ``market.less_own``, so a column
    whose only weight is z's own scans to exactly 0 (degenerate)."""
    Pu, P_rows = factors
    u = weights.u
    z = np.arange(u.size)[cols]
    vals = less_own(Pu[:, None], grid.P[:, cols] * u[cols], lambda g, j: (grid.P[g] * u, z[j]))
    vals *= weights.v[cols]
    if weights.rows.size:
        vals += P_rows @ weights.S[:, cols]
    vals *= grid.Q[:, cols]
    return vals


def grid_best(weights: PeerWeights, grid: TopicGrid) -> np.ndarray:
    """Best grid objective of every producer under `weights`."""
    factors = _scan_factors(weights, grid)
    return np.concatenate([_grid_objective(weights, grid, c, factors).max(axis=0)
                           for c in chunks(weights.u.size)])


def _objective(T: np.ndarray, weights: PeerWeights, cols: slice,
               cfg: MarketConfig) -> np.ndarray:
    """Objective of the j-th producer of `cols` at topic T[j].

    Row j is built as ``match_matrix`` builds B's rows (the quality g times
    f), then ``PeerWeights.producer_values`` weighs it, so at T = X[cols] it
    equals ``weights.producer_values(B)`` bit for bit.
    """
    z = np.arange(cfg.n)[cols]
    D = pairwise_distances(T, cfg.interest_array())
    q = np.exp(-cfg.kernel.a_g * D[np.arange(z.size), z])
    D *= -cfg.kernel.a_f
    np.exp(D, out=D)
    D *= q[:, None]
    return weights.producer_values(D, cols)


def _edge_sums(weights: PeerWeights, grid: TopicGrid,
               cfg: MarketConfig) -> tuple[np.ndarray, np.ndarray]:
    """Two (G,) sums of P[g, y] * u[y], over the interests y <= node g and
    over those >= node g: the rank-one part of every bracket's outside sums."""
    y, x = cfg.interest_array()[:, 0], grid.points[:, 0, None]
    return (np.where(y <= x, grid.P, 0.0) @ weights.u,
            np.where(y >= x, grid.P, 0.0) @ weights.u)


def _bracket_tables(weights: PeerWeights, cols: slice, lo_idx: np.ndarray,
                    hi_idx: np.ndarray, grid: TopicGrid, cfg: MarketConfig,
                    edges: tuple[np.ndarray, np.ndarray]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The (k, m + 2) interest and weight tables of ``_bracket_objective``:
    column 0 is lo with the outside sum out_l, column 1 hi with out_r, then
    the interests strictly inside each bracket, padded with zero weights;
    edges is ``_edge_sums``.

    The kernel exp(-a_f * |t - y|) is semiseparable: for an interest y <= lo
    it is exp(-a_f * (t - lo)) * exp(-a_f * (lo - y)), and for y >= hi it is
    exp(-a_f * (hi - t)) * exp(-a_f * (y - hi)).  So the interests outside
    a bracket act as two virtual interests at lo and hi, weighted by the
    sums out_l and out_r of their second factors times their weights.
    Those factors are grid.P's rows at lo and hi: the rank-one part of each
    sum is v[z] times the node's edge sum less z's own term
    (``market.less_own``), and the rows term is taken in chunks of _CHUNK
    producers.  Every exp factor is at most 1, so nothing overflows
    whatever a_f is.
    """
    y = cfg.interest_array()[:, 0]
    z = np.arange(cfg.n)[cols]
    k = z.size
    lo, hi = grid.points[lo_idx, 0], grid.points[hi_idx, 0]
    u, v_z = weights.u, weights.v[cols]
    out = np.empty((k, 2))
    for s, (idx, edge, beyond) in enumerate(((lo_idx, lo, np.less_equal),
                                             (hi_idx, hi, np.greater_equal))):
        own = np.where(beyond(y[z], edge), grid.P[idx, z] * u[z], 0.0)
        out[:, s] = less_own(edges[s][idx], own, lambda j: (
            np.where(beyond(y, edge[j, None]), grid.P[idx[j]], 0.0) * u, z[j]))
    out *= v_z[:, None]
    rows = weights.rows
    if rows.size:
        y_rows = y[rows]
        for sl, c in zip(chunks(k), chunks(k, z[0])):
            S = weights.S[:, c]
            left = np.where(y_rows <= lo[sl, None], grid.P[np.ix_(lo_idx[sl], rows)], 0.0)
            out[sl, 0] += np.einsum("ji,ij->j", left, S)
            right = np.where(y_rows >= hi[sl, None], grid.P[np.ix_(hi_idx[sl], rows)], 0.0)
            out[sl, 1] += np.einsum("ji,ij->j", right, S)
    first = np.searchsorted(grid.y_sorted, lo, side="right")
    stop = np.searchsorted(grid.y_sorted, hi, side="left")
    idx = first[:, None] + np.arange(int(np.max(stop - first, initial=0)))
    inside = idx < stop[:, None]
    ys = grid.order[np.minimum(idx, y.size - 1)]
    w_in = u[ys] * v_z[:, None]
    if rows.size:
        pos = np.full(y.size, -1)
        pos[rows] = np.arange(rows.size)
        at = pos[ys]
        held = at >= 0
        w_in[held] += weights.S[at[held], np.broadcast_to(z[:, None], ys.shape)[held]]
    w_in[~inside | (ys == z[:, None])] = 0.0
    return np.column_stack((lo, hi, y[ys])), np.column_stack((out, w_in))


def _bracket_objective(weights: PeerWeights, cols: slice, lo_idx: np.ndarray,
                       hi_idx: np.ndarray, grid: TopicGrid, cfg: MarketConfig,
                       edges: tuple[np.ndarray, np.ndarray]):
    """``_objective`` in dim 1 for topics t[j] inside the bracket between
    grid nodes lo_idx[j] < hi_idx[j] of the j-th producer of `cols`, at
    O(k * m) per call on the ``_bracket_tables``, m being the most
    interests strictly inside a bracket."""
    a_f, a_g = cfg.kernel.a_f, cfg.kernel.a_g
    y_tab, w_tab = _bracket_tables(weights, cols, lo_idx, hi_idx, grid, cfg, edges)
    y_self = cfg.interest_array()[cols, 0]

    def f(t):
        K = np.abs(t[:, None] - y_tab)
        K *= -a_f
        np.exp(K, out=K)
        return np.exp(-a_g * np.abs(t - y_self)) * np.einsum("jm,jm->j", w_tab, K)

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


def _polish_batches(grid: TopicGrid, lo: np.ndarray, hi: np.ndarray) -> list[slice]:
    """Consecutive runs of producers whose padded (k, m + 2) bracket tables
    hold at most _CHUNK * (N + 2) elements, m being the most interests
    strictly inside a bracket of the run.  Each run is as long as fits."""
    m = (np.searchsorted(grid.y_sorted, hi, side="left")
         - np.searchsorted(grid.y_sorted, lo, side="right"))
    budget = _CHUNK * (grid.y_sorted.size + 2)
    batches, s = [], 0
    while s < m.size:
        width = np.maximum.accumulate(m[s:]) + 2
        # k * width grows with k, so the runs that fit form a prefix
        e = s + int(np.count_nonzero(np.arange(1, width.size + 1) * width <= budget))
        batches.append(slice(s, e))
        s = e
    return batches


def producer_block(weights: PeerWeights, grid: TopicGrid, cfg: MarketConfig,
                   prev: np.ndarray | None = None, prev_value: np.ndarray | None = None,
                   cols: slice = slice(None)) -> ProducerBlock:
    """Best topics of the producers `cols` (a slice, default all N) under
    the peer weights.

    prev (k, dim) holds the incumbent topics and prev_value (k,) their
    objective values, which the caller supplies (``_objective`` at prev,
    or the same numbers from ``weights.producer_values`` on the match
    matrix at prev): a degenerate producer keeps its incumbent (the
    smallest grid node when prev is None), and any other keeps it unless a
    candidate is strictly better.  The scan and the final evaluation run in
    chunks of _CHUNK producers, so their temporaries are (G, _CHUNK) and
    (_CHUNK, N) tables; the polish runs on ``_bracket_objective`` over
    ``_polish_batches``.  The polish's best point is evaluated once more
    with ``_objective``, the formula every value and comparison here uses.
    """
    start, stop, _ = cols.indices(cfg.n)
    k = stop - start
    parts = list(zip(chunks(k), chunks(k, start)))
    factors = _scan_factors(weights, grid)
    best = np.empty(k, dtype=np.intp)
    best_on_grid = np.empty(k)
    for sl, c in parts:
        vals = _grid_objective(weights, grid, c, factors)
        best[sl] = np.argmax(vals, axis=0)
        best_on_grid[sl] = vals[best[sl], np.arange(vals.shape[1])]
    topics = grid.points[best]
    values = best_on_grid.copy()
    if cfg.dim == 1 and grid.refine_iters:
        lo_idx = np.maximum(best - 1, 0)
        hi_idx = np.minimum(best + 1, len(grid.points) - 1)
        lo, hi = grid.points[lo_idx, 0], grid.points[hi_idx, 0]
        edges = _edge_sums(weights, grid, cfg)
        x = np.empty(k)
        for sl in _polish_batches(grid, lo, hi):
            f = _bracket_objective(weights, slice(start + sl.start, start + sl.stop),
                                   lo_idx[sl], hi_idx[sl], grid, cfg, edges)
            x[sl] = _golden_block(f, lo[sl], hi[sl], grid.refine_iters)
        np.clip(x, 0.0, 1.0, out=x)
        fx = np.concatenate([_objective(x[sl, None], weights, c, cfg) for sl, c in parts])
        up = fx > values
        topics[up, 0] = x[up]
        values[up] = fx[up]
    if prev is not None:
        keep = prev_value >= values  # move only on strict improvement
        topics[keep] = prev[keep]
        values[keep] = prev_value[keep]
    degen = best_on_grid <= 0.0
    topics[degen] = grid.points[0] if prev is None else prev[degen]
    values[degen] = 0.0
    return ProducerBlock(topics, values, best_on_grid)


def imperfect_producer_round(mu_i: np.ndarray, X: np.ndarray, grid: TopicGrid,
                             cfg: MarketConfig, B: np.ndarray) -> np.ndarray:
    """One imperfect-regime producer pass, in place on X; returns the
    degenerate mask.  B is ``match_matrix(X, cfg)`` on entry.

    Producers move in index order, each against the influencer's channel
    weights at the current topics, with the earlier producers' moves in
    them (see the module docstring).  A move only raises a weight, so when
    producer z's turn comes the others' weights lie between the incumbents'
    and those with every candidate move made, and z's rate is nonincreasing
    in them: z is surely active if it is active against the second set and
    surely inactive if it is inactive against the first.  Only the
    producers in between are asked again in order, against the incumbents'
    weights with the moves before them written in.  When nobody follows the
    influencer every producer's mass is 0, so all are degenerate.
    """
    d_i = discount(mu_i, cfg.delay)
    mass = influencer_followed_match(d_i, B)  # each incumbent's objective
    block = producer_block(PeerWeights.rank_one(d_i, np.ones(cfg.n)), grid, cfg,
                           prev=X, prev_value=mass)
    todo = np.flatnonzero(~block.degenerate)
    at_best = cfg.r_p * block.grid_best[todo]
    old, new = cfg.r_p * mass, cfg.r_p * block.values
    channels = SortedChannels(old, cfg.m_infl, cfg.delay)
    active = channels.rates_with(todo, at_best) > 0.0
    moves = new[todo] != old[todo]
    if np.any(moves):
        raised = SortedChannels(np.maximum(old, new), cfg.m_infl, cfg.delay)
        applied = 0
        for i in np.flatnonzero(active & ~(raised.rates_with(todo, at_best) > 0.0)):
            for k in applied + np.flatnonzero(moves[applied:i] & active[applied:i]):
                channels.replace(todo[k], new[todo[k]])
            applied = i
            active[i] = channels.rates_with(todo[i:i + 1], at_best[i:i + 1])[0] > 0.0
    degenerate = block.degenerate.copy()
    degenerate[todo[~active]] = True
    X[todo[active]] = block.topics[todo[active]]
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


def _one_producer(z: int, weights: PeerWeights, cfg: MarketConfig,
                  search: TopicSearchParams, prev: TopicPoint | None) -> ProducerBlock:
    """The block restricted to producer z."""
    cols = slice(z, z + 1)
    grid = TopicGrid(cfg, search)
    if prev is None:
        return producer_block(weights, grid, cfg, cols=cols)
    x = prev.as_array()[None, :]
    return producer_block(weights, grid, cfg, prev=x,
                          prev_value=_objective(x, weights, cols, cfg), cols=cols)


def _choice(x: np.ndarray, val: float, degen: bool) -> ProducerChoice:
    return ProducerChoice(topic=TopicPoint(tuple(x)), value=float(val), degenerate=bool(degen))


def _support_choice(block: ProducerBlock, cfg: MarketConfig) -> ProducerChoice:
    return _choice(block.topics[0], cfg.r_p * block.values[0], block.degenerate[0])


def producer_best_response_perfect(z: int, omega: MarketAllocation, cfg: MarketConfig,
                                   search: TopicSearchParams,
                                   prev: TopicPoint | None = None) -> ProducerChoice:
    """Topic maximizing z's support under omega's rates; prev is the incumbent."""
    weights = support_weights(omega.mu_i, omega.mu_infl, omega.direct, cfg)
    return _support_choice(_one_producer(z, weights, cfg, search, prev), cfg)


def producer_best_response_imperfect(z: int, omega: MarketAllocation, cfg: MarketConfig,
                                     search: TopicSearchParams,
                                     prev: TopicPoint | None = None) -> ProducerChoice:
    """Topic maximizing the influencer's re-solved rate on z, the others at
    omega's topics, found on the match mass; the value is delta of that rate.
    A zero rate at the best grid mass is degenerate, and so is the
    Assumption-4 fallback (every influencer weight zero, z's best mass
    included), which scores every topic alike at delta(M_infl / N).
    """
    d_i = discount(omega.mu_i, cfg.delay)
    block = _one_producer(z, PeerWeights.rank_one(d_i, np.ones(cfg.n)), cfg, search, prev)
    gamma = cfg.r_p * influencer_followed_match(d_i, match_matrix(omega.X, cfg))
    at_best, at_value = SortedChannels(gamma, cfg.m_infl, cfg.delay).rates_with(
        np.array([z, z]), cfg.r_p * np.array([block.grid_best[0], block.values[0]]))
    if block.degenerate[0] or at_best == 0.0:
        keep = np.zeros(cfg.dim) if prev is None else prev.as_array()
        return _choice(keep, discount(at_best, cfg.delay), True)
    return _choice(block.topics[0], discount(at_value, cfg.delay), False)


def producer_best_response_surrogate(z: int, omega: MarketAllocation, cfg: MarketConfig,
                                     search: TopicSearchParams,
                                     prev: TopicPoint | None = None) -> ProducerChoice:
    """Topic maximizing z's follower-weighted match mass under omega's follow rates."""
    weights = PeerWeights.rank_one(discount(omega.mu_i, cfg.delay), np.ones(cfg.n))
    return _support_choice(_one_producer(z, weights, cfg, search, prev), cfg)
