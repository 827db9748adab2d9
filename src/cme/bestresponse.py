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
with v = 1).  W is never a table: ``producer_block`` scans the candidate
topics in tiles of at most _TILE kernel-table entries, each tile's
objective being ((P @ u)[g] - P[g, z] * u[z]) * v[z], plus one
(g, r) @ (r, k) product over the r consumers holding a direct rate, times
Q -- O(G * N) per scan when nobody holds one; ``market.less_own`` sums the
cells that z's own term dominates again without it.  A running argmax with
strict > keeps the first best candidate.  A winner other than the
incumbent is valued once more with ``_objective``, the formula of
``PeerWeights.producer_values``, from which a round reads the incumbent's
value, and the incumbent stays unless the winner is strictly better; the
match row built to value a winner that moves is the row the round writes
into its match matrix.  A winner that is the incumbent keeps the
incumbent's value, which in the perfect/proxy regimes is the same float.
A producer whose objective is zero at every candidate is degenerate and
keeps its incumbent.  Each objective reads only its own topic, so the
block equals N one-producer searches (Monderer & Shapley, *Potential
Games*, 1996).

In dim 1 the candidates are the N + 2 breakpoints {0, 1} and the
interests, and the search is exact.  Between two neighbouring breakpoints
each |x - y| is linear in x, so z's objective there is a sum of terms
c * exp(s * x) with c >= 0 (W >= 0): a convex function, whose maximum
over the segment lies on one of its ends.  A tile's kernel tables are
built from its distances, since stored ones would be (N + 2) x N.  In
dim 2 the candidates are a uniform grid with stored (G, N) tables, built
in place from each axis's squared differences, and the search is exact
only to the grid's resolution.

The imperfect search runs on the match mass: the influencer's re-solved
rate on z is nondecreasing in z's weight (r_p times the mass) and strictly
increasing while z is active, so both share their argmax whenever z earns
attention at its best candidate mass.  ``imperfect_producer_round`` sorts the
influencer's weights once (``allocator.SortedChannels``) and asks whether
each producer is active at that mass: a few binary searches per producer,
no re-solve.  An inactive producer is degenerate; an active one moves.
Each producer sees the earlier producers' moves (Gauss-Seidel), so the
answers are taken against two bracketing weight sets, and only the
producers on which they disagree are asked again, in order, with the moves
before them written into the sort.
"""

from __future__ import annotations

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
    """Nodes per axis of the dim-2 candidate grid.  Neither field has any
    effect in dim 1, where the candidates are the breakpoints (module
    docstring); refine_iters is still validated, and nothing reads it."""

    grid_resolution: int = 256
    refine_iters: int = 40

    def __post_init__(self):
        if self.grid_resolution < 8:
            raise InvalidInputError(
                f"grid_resolution must be at least 8, got {self.grid_resolution}")
        if self.refine_iters < 0:
            raise InvalidInputError("refine_iters must be nonnegative")


class TopicGrid:
    """The candidate topics of the producer search.

    points  (G, dim) candidates in lexicographic order: in dim 1 the N + 2
            breakpoints {0, 1} and the interests, sorted (a repeated
            interest is only a tie); in dim 2 a uniform grid of
            grid_resolution nodes per axis
    P, Q    (G, N) interest kernel f and production kernel g at each
            (candidate, member) pair, stored in dim 2 only; ``tables``
            builds them per tile in dim 1
    """

    def __init__(self, cfg: MarketConfig, search: TopicSearchParams):
        self._cfg = cfg
        self.P = self.Q = None
        if cfg.dim == 1:
            self.points = np.sort(np.concatenate(([0.0, 1.0], cfg.interest_array()[:, 0])))[:, None]
        else:
            axis = np.linspace(0.0, 1.0, search.grid_resolution)
            self.points = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
            self.P, self.Q = self._grid_tables(axis)

    def _grid_tables(self, axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P and Q at the nodes (axis[i], axis[j]) of the dim-2 grid, in
        the order of ``points``.  Each coordinate's squared differences
        (axis - Y[:, k])**2 form an (R, N) table; their broadcast sum fills
        the one (R, R, N) buffer that becomes P, and Q is the only other
        (G, N) array.  ``pairwise_distances`` adds the same squares to a
        zeroed buffer (0 + dx**2 == dx**2), so the floats are its, bit for
        bit."""
        kernel = self._cfg.kernel
        Y = self._cfg.interest_array()
        dx, dy = (np.square(np.subtract.outer(axis, Y[:, k])) for k in range(2))
        D = np.add(dx[:, None, :], dy[None, :, :]).reshape(-1, Y.shape[0])
        np.sqrt(D, out=D)
        Q = np.multiply(D, -kernel.a_g)
        np.exp(Q, out=Q)
        D *= -kernel.a_f
        return np.exp(D, out=D), Q

    def tables(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """P and Q at the candidates `rows`, (g, N) each."""
        if self.P is not None:
            return self.P[rows], self.Q[rows]
        kernel = self._cfg.kernel
        D = pairwise_distances(self.points[rows], self._cfg.interest_array())
        Q = np.exp(-kernel.a_g * D)
        D *= -kernel.a_f
        return np.exp(D, out=D), Q


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
    grid_best  (k,)     best scanned objective over the candidates; <= 0
                        means degenerate
    """

    topics: np.ndarray
    values: np.ndarray
    grid_best: np.ndarray

    @property
    def degenerate(self) -> np.ndarray:
        return self.grid_best <= 0.0


_CHUNK = 64
_TILE = _CHUNK * 256  # kernel-table entries per tile of the candidate scan


# ---------------------------------------------------------------------------
# dense cores -- the equilibrium loop calls these directly on its arrays
# ---------------------------------------------------------------------------

def influencer_br_dense(gamma: np.ndarray, cfg: MarketConfig) -> np.ndarray:
    """Optimal influencer rates given its channel weights gamma, channel z
    worth gamma[z] = r_p * sum_{y != z} delta(mu_i(y)) * B[z, y]
    (``influencer_followed_match``).  When every weight is zero -- nobody
    follows the influencer, or no follower's match with any other producer
    is above 0 -- the uniform split of the budget is the pinned-down
    fallback.
    """
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


def chunks(k: int) -> list[slice]:
    """Chunks of _CHUNK of k producers or consumers: a producer chunk's
    (c, N) evaluation tables, a consumer chunk's (c, N + 2) weights and a
    row chunk of two direct-rate tables' difference stay small."""
    return [slice(s, min(s + _CHUNK, k)) for s in range(0, k, _CHUNK)]


def _tile_objective(weights: PeerWeights, P: np.ndarray, Q: np.ndarray,
                    cols: slice) -> np.ndarray:
    """(g, k) objective of producers `cols` at the g candidates of a tile
    whose kernel tables are P and Q: ((P @ u)[g] - P[g, z] * u[z]) * v[z]
    plus the rows term, times Q[g, z].  The self term leaves before v
    scales the sum, as in ``PeerWeights.producer_values`` and by
    ``market.less_own``, so a column whose only weight is z's own scans to
    exactly 0 (degenerate)."""
    u = weights.u
    z = np.arange(u.size)[cols]
    vals = less_own((P @ u)[:, None], P[:, cols] * u[cols], lambda g, j: (P[g] * u, z[j]))
    vals *= weights.v[cols]
    if weights.rows.size:
        vals += weights.at_rows(P) @ weights.S[:, cols]
    vals *= Q[:, cols]
    return vals


def _scan(weights: PeerWeights, grid: TopicGrid, cols: slice) -> tuple[np.ndarray, np.ndarray]:
    """Index and objective of the best candidate of each producer of
    `cols`: a running argmax over tiles of at most _TILE (g, N) table
    entries, where strict > keeps the first best candidate."""
    k = len(range(*cols.indices(weights.u.size)))
    best, value = np.zeros(k, dtype=np.intp), np.full(k, -np.inf)
    step = max(1, _TILE // weights.u.size)
    for s in range(0, len(grid.points), step):
        vals = _tile_objective(weights, *grid.tables(slice(s, s + step)), cols)
        top = vals.max(axis=0)
        up = np.flatnonzero(top > value)
        best[up] = s + np.argmax(vals[:, up], axis=0)
        value[up] = top[up]
    return best, value


def grid_best(weights: PeerWeights, grid: TopicGrid) -> np.ndarray:
    """Best scanned objective of every producer under `weights`."""
    return _scan(weights, grid, slice(None))[1]


def _objective(T: np.ndarray, weights: PeerWeights, cols: slice | np.ndarray,
               cfg: MarketConfig) -> tuple[np.ndarray, np.ndarray]:
    """Objective of the j-th producer of `cols` (a slice or indices) at
    topic T[j], and the match rows (k, N) it weighs.

    ``match_matrix`` builds row j, then ``PeerWeights.producer_values``
    weighs it, so at T = X[cols] the rows are B[cols] and the values
    ``weights.producer_values(B)``, bit for bit.
    """
    D = match_matrix(T, cfg, np.arange(cfg.n)[cols])
    return weights.producer_values(D, cols), D


def producer_block(weights: PeerWeights, grid: TopicGrid, cfg: MarketConfig,
                   prev: np.ndarray | None = None, prev_value: np.ndarray | None = None,
                   cols: slice = slice(None), B: np.ndarray | None = None) -> ProducerBlock:
    """Best topics of the producers `cols` (a slice, default all N) under
    the peer weights.

    prev (k, dim) holds the incumbent topics and prev_value (k,) their
    objective values, which the caller supplies (``_objective`` at prev,
    or the same numbers from ``weights.producer_values`` on the match
    matrix at prev): a degenerate producer keeps its incumbent (the first
    candidate when prev is None), and any other keeps it unless the best
    candidate is strictly better.  A best candidate other than the
    incumbent is valued with ``_objective``, in chunks of _CHUNK
    producers, so candidate and incumbent are compared by one formula; one
    equal to the incumbent keeps prev_value.  B, when given, is the
    (N, N) match matrix at prev, and the row built to value each producer
    that moves is written into it: B leaves at the returned topics, and no
    table of the movers' rows is held.
    """
    start = cols.indices(cfg.n)[0]
    best, scanned = _scan(weights, grid, cols)
    topics = grid.points[best]
    degen = scanned <= 0.0
    moved = np.zeros(best.size, dtype=bool)
    if prev is None:
        values, valued = np.empty(best.size), np.flatnonzero(~degen)
    else:
        values = prev_value.copy()
        valued = np.flatnonzero(~degen & np.any(topics != prev, axis=1))
    for sl in chunks(valued.size):
        z = valued[sl]
        values[z], D = _objective(topics[z], weights, start + z, cfg)
        # a producer with an incumbent moves only on strict improvement
        moved[z] = True if prev is None else values[z] > prev_value[z]
        if B is not None:
            B[start + z[moved[z]]] = D[moved[z]]
    if prev is not None:
        topics[~moved] = prev[~moved]
        values[~moved] = prev_value[~moved]
    topics[degen] = grid.points[0] if prev is None else prev[degen]
    values[degen] = 0.0
    return ProducerBlock(topics, values, scanned)


def imperfect_producer_round(mu_i: np.ndarray, X: np.ndarray, grid: TopicGrid,
                             cfg: MarketConfig, B: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray]:
    """One imperfect-regime producer pass, in place on X and B; returns
    the degenerate mask and each producer's best scanned match mass (the
    ``grid_best`` of the pass's weights).  B is ``match_matrix(X, cfg)`` on
    entry and on return: the block writes each mover's row into it, and a
    mover found inactive here gets its incumbent's row back.

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
    weights = PeerWeights.rank_one(discount(mu_i, cfg.delay), np.ones(cfg.n))
    mass = weights.producer_values(B)  # each incumbent's objective, as _objective values it
    block = producer_block(weights, grid, cfg, prev=X, prev_value=mass, B=B)
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
    back = np.flatnonzero(np.any(block.topics != X, axis=1))  # movers found inactive
    B[back] = match_matrix(X[back], cfg, back)
    return degenerate, block.grid_best


# ---------------------------------------------------------------------------
# one-agent calls of the blocks, on a MarketAllocation
# ---------------------------------------------------------------------------

def influencer_best_response(omega: MarketAllocation, cfg: MarketConfig
                             ) -> InfluencerAllocation:
    """The influencer's optimal rates against omega's follow rates and topics."""
    gamma = cfg.r_p * influencer_followed_match(discount(omega.mu_i, cfg.delay),
                                                match_matrix(omega.X, cfg))
    return InfluencerAllocation(mu=influencer_br_dense(gamma, cfg))


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
                          prev_value=_objective(x, weights, cols, cfg)[0], cols=cols)


def _choice(x: np.ndarray, val: float, degen: bool) -> ProducerChoice:
    return ProducerChoice(topic=TopicPoint(tuple(x)), value=float(val), degenerate=bool(degen))


def producer_best_response_perfect(z: int, omega: MarketAllocation, cfg: MarketConfig,
                                   search: TopicSearchParams,
                                   prev: TopicPoint | None = None) -> ProducerChoice:
    """Topic maximizing z's support under omega's rates; prev is the incumbent."""
    weights = support_weights(omega.mu_i, omega.mu_infl, omega.direct, cfg)
    block = _one_producer(z, weights, cfg, search, prev)
    return _choice(block.topics[0], cfg.r_p * block.values[0], block.degenerate[0])


def producer_best_response_imperfect(z: int, omega: MarketAllocation, cfg: MarketConfig,
                                     search: TopicSearchParams,
                                     prev: TopicPoint | None = None) -> ProducerChoice:
    """Topic maximizing the influencer's re-solved rate on z, the others at
    omega's topics, found on the match mass; the value is delta of that rate.
    A zero rate at the best candidate mass is degenerate, and so is the
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

