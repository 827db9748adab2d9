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
influencer r_p * (B^T delta(mu_infl) - diag(B) * delta(mu_infl)) (the
match's ``relayed``), and the direct channels r_p * B^T with the self
channel at weight 0, a chunk of B's columns at a time (the match's
``columns``) -- and runs the allocator's closed form on row chunks of
that table.  Only a chunk's candidate channels can be active, so their
rates are the whole answer:
the positive direct ones go straight into a ``market.DirectRates``.  No
entry of B exceeds 1, so no direct weight exceeds r_p, and a consumer
whose candidate floor (``allocator._candidate_floor``) under its outside
and influencer weights lies above r_p has no direct candidate at all.  Its
row's top, candidates and rates are those of those two channels alone, so
it is solved on a row of width 2, and its direct weights are never built:
the same floats.  In the bundled sweep's rows at N = 300 and 1000, whose
influencer budget grows with N, that is every consumer.

Producers are searched as one block.  Producer z's objective at topic x is
g(d(x, z)) * sum_y f(d(x, y)) * W[y, z], where column z of the
``market.PeerWeights`` W holds z's consumer weights: delta(mu_i(y)) *
delta(mu_infl(z)) + delta(mu_direct(y, z)) (perfect/proxy,
``support_weights``) or delta(mu_i(y)) (imperfect, the rank-one weights
with v = 1).  W is never a table, and ``producer_block`` scans the
candidate topics for every producer at once (``_scan``), the first best
candidate winning a tie.  A winner other than the
incumbent is valued once more by the function from which the caller reads
the incumbent's value, the match's ``values_at`` and ``producer_values``,
and the incumbent stays unless the winner is strictly better.  A winner
that is the incumbent keeps the incumbent's value, which in the
perfect/proxy regimes is the same float.  The block only reads the match:
the round that called it moves the producers whose topic changed.  The
one-producer calls run the block on the match that the dynamics would
select (``match_of``), so they return its floats.
A producer whose objective is zero at every candidate is degenerate and
keeps its incumbent.  Each objective reads only its own topic, so the
block equals N one-producer searches (Monderer & Shapley, *Potential
Games*, 1996).

In dim 1 the candidates are the N + 2 breakpoints {0, 1} and the
interests, and the search is exact.  Between two neighbouring breakpoints
each |x - y| is linear in x, so z's objective there is a sum of terms
c * exp(s * x) with c >= 0 (W >= 0): a convex function, whose maximum
over the segment lies on one of its ends.  The scan builds no kernel
table there (``_LineScan``): z's objective at candidate g is
Q[g, z] * (v[z] * (A[g] - P[g, z] * u[z]) + R_z(g)), where the rank-one
sum A and z's direct term R_z are kernel sums along the sorted
candidates, two cumulative sums each (``TopicGrid.kernel_sums``), and
``market.less_own`` sums again without it any pair that z's own term
dominates.  Without a direct term the objective is at most a cone
exp(-a_g |x - y_z|) times the curve A shared by every producer, so
running maxima give each producer a value it surely reaches and the run
of candidates that can reach it (``_LineScan.ranges``), and only those
runs are valued: flat, one after another, with no run padded to another's
length, consecutive producers' runs in chunks of at most _TILE pairs.

In dim 2 the candidates are a uniform grid with stored (G, N) tables,
built in place from each axis's squared differences, and the search is
exact only to the grid's resolution.  The scan walks the tables in tiles
of at most _TILE entries, each tile's objective being ((P @ u)[g] -
P[g, z] * u[z]) * v[z], plus one (g, r) @ (r, k) product over the r
consumers holding a direct rate, with their rows of delta(direct) built
dense once per scan, times Q, and a running argmax whose strict > keeps
the first best candidate.

The imperfect search runs on the match mass: the influencer's re-solved
rate on z is nondecreasing in z's weight (r_p times the mass) and strictly
increasing while z is active, so both share their argmax whenever z earns
attention at its best candidate mass.  ``imperfect_producer_round`` asks
whether each producer is active at that mass with one sort of the
influencer's weights (``allocator.rates_with``): a few binary searches per
producer, no re-solve.  An inactive producer is degenerate; an active one
moves.  Each producer sees the earlier producers' moves (Gauss-Seidel), so
the answers are taken against two bracketing weight sets, and only the
producers on which they disagree are asked again, in order, each against
the weights with the moves before it written in, one more sort apiece.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .allocator import (
    WeightedChannels,
    _candidate_floor,
    _water_fill_sparse,
    rates_with,
    water_fill,
)
from .kernels import InvalidInputError, LineSums, TopicPoint, discount, require_count
from .market import (
    _CHUNK,
    DirectRates,
    InfluencerAllocation,
    MarketAllocation,
    MarketConfig,
    Match,
    PeerWeights,
    chunks,
    less_own,
    match_of,
    require_member,
    support_weights,
)


class GameMode(Enum):
    PERFECT = "perfect"
    IMPERFECT = "imperfect"
    PROXY = "proxy"

    @classmethod
    def parse(cls, text: str) -> "GameMode":
        if not isinstance(text, str):
            raise InvalidInputError(f"game mode must be a string, got {text!r}")
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
        require_count(self.grid_resolution, "grid_resolution", 8)
        require_count(self.refine_iters, "refine_iters", 0)


class TopicGrid:
    """The candidate topics of the producer search.

    points   (G, dim) candidates in lexicographic order: in dim 1 the N + 2
             breakpoints {0, 1} and the interests, sorted (a repeated
             interest is only a tie); in dim 2 a uniform grid of
             grid_resolution nodes per axis
    members  (N,) in dim 1, the candidate at each member's interest (the
             first of equal ones)
    P, Q     (G, N) interest kernel f and production kernel g at each
             (candidate, member) pair, stored in dim 2 only
    """

    def __init__(self, cfg: MarketConfig, search: TopicSearchParams):
        self._cfg = cfg
        self.P = self.Q = None
        if cfg.dim == 1:
            y = cfg.interest_array()[:, 0]
            x = np.sort(np.concatenate(([0.0, 1.0], y)))
            self.points = x[:, None]
            self.members = np.searchsorted(x, y)
            self._line = LineSums(x, cfg.kernel.a_f)
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

    def kernel_sums(self, h: np.ndarray) -> np.ndarray:
        """sum_c h[j, c] * f(|x_g - x_c|) at every candidate g, for each row
        j of h (k, G), nonnegative weights at the dim-1 candidates x; f is
        the interest kernel (``kernels.LineSums``): both sides, less h[g],
        counted in both."""
        left, right = self._line.sides(h)
        left += right
        left -= h
        return left


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


_TILE = _CHUNK * 256  # kernel-table entries per tile, (candidate, producer) pairs per chunk
_SLACK = 1e-9  # relative margin of the dim-1 candidate bounds over rounding


# ---------------------------------------------------------------------------
# dense cores -- the equilibrium loop calls these directly on its arrays
# ---------------------------------------------------------------------------

def influencer_br_dense(gamma: np.ndarray, cfg: MarketConfig) -> np.ndarray:
    """Optimal influencer rates given its channel weights gamma, channel z
    worth gamma[z] = r_p * sum_{y != z} delta(mu_i(y)) * B[z, y]
    (``Match.followed``).  When every weight is zero -- nobody
    follows the influencer, or no follower's match with any other producer
    is above 0 -- the uniform split of the budget is the pinned-down
    fallback.
    """
    if not np.any(gamma > 0.0):
        return np.full(cfg.n, cfg.m_infl / cfg.n)
    sol = water_fill(WeightedChannels(weights=gamma, budget=cfg.m_infl), cfg.delay)
    return sol.rates


def _consumer_rates(ys: np.ndarray, relayed: np.ndarray, match: Match,
                    cfg: MarketConfig, direct: bool
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Optimal splits of consumers ys in one closed-form solve: their
    outside and influencer rates, (k,) each, and their positive direct
    rates as (consumer, producer, rate) in row-major order.

    The channels are the outside source (weight r_0*B_0, always positive,
    so no row is degenerate), the influencer (weight r_p * relayed[y], see
    ``Match.relayed``) and, when ``direct``, one direct channel per
    producer z with weight r_p * B[z, y] (``Match.columns``), zero on the
    self channel, which therefore gets no rate.  Without them each row
    holds the first two channels only.  Only the allocator's candidates
    can be active (``_water_fill_sparse``), so the rates are read off them
    and no (k, N + 2) rate table is built.
    """
    k = ys.size
    weights = np.empty((k, cfg.n + 2 if direct else 2))
    weights[:, 0] = cfg.r_0 * cfg.b_0
    weights[:, 1] = cfg.r_p * relayed[ys]
    if direct:
        np.multiply(match.columns(ys).T, cfg.r_p, out=weights[:, 2:])
        weights[np.arange(k), 2 + ys] = 0.0
    flat, rates, _ = _water_fill_sparse(weights, cfg.m, cfg.delay.beta)
    row, col = np.divmod(flat, weights.shape[1])
    split = np.zeros((k, 2))  # the outside source and the influencer
    own = col < 2
    split[row[own], col[own]] = rates[own]
    held = ~own & (rates > 0.0)
    return split[:, 0], split[:, 1], ys[row[held]], col[held] - 2, rates[held]


def consumers_br_dense(delta_infl: np.ndarray, match: Match, cfg: MarketConfig,
                       mode: GameMode) -> tuple[np.ndarray, np.ndarray, DirectRates]:
    """Every consumer's best response as fresh (lam, mu_i, direct) at the
    match matrix B of ``match``, every entry at most 1.

    Within a round the consumers depend only on (B, delta(mu_infl)), not on
    each other, so they are solved as one block.  A direct weight r_p *
    B[z, y] is at most r_p, so a consumer whose ``_candidate_floor`` under
    its two other weights already lies above r_p has no direct candidate:
    its row's top is the larger of those two weights, and its candidates,
    its split and every float of it are those of its first two channels
    alone.  Those consumers, and every proxy consumer, are solved in one
    call on rows of width 2; the rest in row chunks of _CHUNK, whose
    (_CHUNK, N + 2) temporaries keep a round's peak memory flat, and their
    direct rates are gathered straight into compressed sparse rows.  Only
    the wide rows read B's columns.
    """
    n = cfg.n
    relayed = match.relayed(delta_infl)
    top = np.maximum(cfg.r_0 * cfg.b_0, cfg.r_p * relayed)
    narrow = (mode is GameMode.PROXY) | (_candidate_floor(top, cfg.delay.beta * cfg.m) > cfg.r_p)
    wide = np.flatnonzero(~narrow)
    blocks = [(wide[sl], True) for sl in chunks(wide.size)]
    if narrow.any():
        blocks.append((np.flatnonzero(narrow), False))
    lam, mu_i = np.empty(n), np.empty(n)
    rows, cols, rates = [], [], []
    for ys, full in blocks:
        lam[ys], mu_i[ys], row, col, rate = _consumer_rates(ys, relayed, match, cfg, full)
        rows.append(row)
        cols.append(col)
        rates.append(rate)
    direct = DirectRates.from_entries((n, n), np.concatenate(rows), np.concatenate(cols),
                                      np.concatenate(rates))
    return lam, mu_i, direct


def _tile_objective(weights: PeerWeights, rows: np.ndarray, S: np.ndarray,
                    P: np.ndarray, Q: np.ndarray, cols: slice) -> np.ndarray:
    """(g, k) objective of producers `cols` at the g dim-2 grid nodes of a
    tile whose kernel tables are P and Q: ((P @ u)[g] - P[g, z] * u[z]) *
    v[z] plus the rows term P[:, rows] @ S[:, cols], times Q[g, z], where
    S (r, N) holds the dense rows ``rows`` of ``weights.S``.  The self term
    leaves before v scales the sum, as in ``PeerWeights.producer_values``
    and by ``market.less_own``, so a column whose only weight is z's own
    scans to exactly 0 (degenerate).  Unlike the sums over the match matrix
    (``market.sums_less_own``), both products stay on BLAS: at tile shapes
    ``einsum`` is 2-3 times slower (2.6 ms against 0.24 ms for the rows
    term at 16 x 500 x 1000)."""
    u = weights.u
    z = np.arange(u.size)[cols]
    vals = less_own((P @ u)[:, None], P[:, cols] * u[cols], lambda g, j: (P[g] * u, z[j]))
    vals *= weights.v[cols]
    if rows.size:
        vals += P[:, rows] @ S[:, cols]
    vals *= Q[:, cols]
    return vals


class _LineScan:
    """The dim-1 objectives of producers z under the peer weights:
    Q[g, z] * (v[z] * (A[g] - P[g, z] * u[z]) + R_z(g)) at candidate g, with
    P and Q the kernels f and g at (x_g, y_z), A = sum_y u[y] f(|x_g - y|)
    and R_z = sum_i S[i, z] f(|x_g - y_i|), both ``TopicGrid.kernel_sums``.
    A is summed once, at every candidate, and R_z from z's stored weights,
    kept by producer, for a chunk of producers at a time."""

    def __init__(self, weights: PeerWeights, grid: TopicGrid, z: np.ndarray):
        cfg = grid._cfg
        self.weights, self.grid, self.z = weights, grid, z
        self.x, self.y = grid.points[:, 0], cfg.interest_array()[:, 0]
        self.a_f, self.a_g = cfg.kernel.a_f, cfg.kernel.a_g
        h = np.bincount(grid.members, weights.u, minlength=self.x.size)
        self.A = grid.kernel_sums(h[None])[0]
        S = weights.S
        self.count = np.bincount(S.cols, minlength=weights.u.size)  # stored weights a producer
        if S.nnz:
            order = np.argsort(S.cols, kind="stable")
            self.held, self.rates = grid.members[S.row_ids()[order]], S.rates[order]
            self.start = np.cumsum(self.count) - self.count

    def values(self, j: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The objectives of producers z[j] (c,) at their runs of candidates
        lo to hi, flat: the runs one after another, (sum(hi - lo + 1),).
        Each pair's value is elementwise, so a run's floats do not depend
        on the runs valued with it."""
        u, v, a_f = self.weights.u, self.weights.v, self.a_f
        z, width = self.z[j], hi - lo + 1
        starts = np.cumsum(width) - width
        k = np.repeat(np.arange(j.size), width)  # each pair's producer, by place in j
        g = np.repeat(lo - starts, width)
        g += np.arange(g.size)  # each pair's candidate
        d = self.x[g]
        d -= self.y[z][k]
        np.abs(d, out=d)
        own = np.multiply(d, -a_f)
        np.exp(own, out=own)
        own *= u[z][k]
        vals = less_own(self.A[g], own, lambda p: (
            np.exp(-a_f * np.abs(self.x[g[p]][:, None] - self.y)) * u, z[k[p]]))
        del g
        vals *= v[z][k]
        del k
        rated = np.flatnonzero(self.count[z])
        if rated.size:  # R_z on the run of each producer holding a stored weight
            for R, p in zip(self._direct(z[rated]), rated):
                vals[starts[p]:starts[p] + width[p]] += R[lo[p]:hi[p] + 1]
        vals *= np.exp(np.multiply(d, -self.a_g, out=d), out=d)
        return vals

    def _direct(self, z: np.ndarray) -> np.ndarray:
        """R_z at every candidate, (c, G): z's stored weights at their
        members' candidates, and the kernel sums."""
        G, count = self.x.size, self.count[z]
        row = np.repeat(np.arange(z.size), count)
        at = np.arange(row.size) + np.repeat(self.start[z] - (np.cumsum(count) - count), count)
        h = np.bincount(row * G + self.held[at], self.rates[at], minlength=z.size * G)
        return self.grid.kernel_sums(h.reshape(z.size, G))

    def best_in(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index and objective of the first best candidate of each producer
        among candidates lo to hi.  Consecutive producers are valued
        together, their runs flat, in chunks of at most _TILE pairs (one
        producer at least)."""
        best, value = np.empty(lo.size, dtype=np.intp), np.empty(lo.size)
        ends = np.cumsum(hi - lo + 1)  # the pairs up to each producer's last
        s = 0
        while s < lo.size:
            e = max(s + 1, int(np.searchsorted(ends, (ends[s - 1] if s else 0) + _TILE,
                                               side="right")))
            j = np.arange(s, e)
            vals = self.values(j, lo[j], hi[j])
            width = hi[j] - lo[j] + 1
            starts = np.cumsum(width) - width
            top = np.maximum.reduceat(vals, starts)
            hits = np.flatnonzero(vals == np.repeat(top, width))
            first = hits[np.searchsorted(hits, starts)]
            best[j], value[j] = lo[j] + first - starts, vals[first]
            s = e
        return best, value

    def ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """Each producer's candidates lo to hi, which hold every candidate
        whose objective can reach a value already found.

        Without a direct term z's objective is at most v[z] * exp(-a_g |x_g
        - y_z|) * A[g], a cone times a curve shared by every producer.  Left
        of y_z that is v[z] exp(-a_g y_z) exp(log A + a_g x), right of it
        v[z] exp(a_g y_z) exp(log A - a_g x), so a running maximum of each
        log from its end gives every producer's largest bound on either
        side, and where it is reached, in O(G + N) (Piyavskii 1972, Shubert
        1972).  The objective there is a value L reached, and the running
        maxima are monotone, so one ``searchsorted`` a side gives the
        candidates past which no bound reaches L.  The threshold gives up
        _SLACK times (1 + a_f + a_g) in logs to rounding.  A producer with
        v[z] = 0 or A = 0 has an objective of 0 everywhere and keeps the
        first candidate.  A producer holding any stored weight keeps every
        candidate: at a fixed budget a bound from the rows' largest weights
        left 99-100% of them."""
        G, a, k = self.x.size, self.a_g, self.z.size
        me, y, v = self.grid.members[self.z], self.y[self.z], self.weights.v[self.z]
        with np.errstate(divide="ignore"):
            west, east = np.log(self.A) + a * self.x, (np.log(self.A) - a * self.x)[::-1]
        left, right = np.maximum.accumulate(west), np.maximum.accumulate(east)
        at_left = np.maximum.accumulate(np.where(west == left, np.arange(G), 0))
        at_right = G - 1 - np.maximum.accumulate(np.where(east == right, np.arange(G), 0))
        on_left = left[me] - a * y >= right[G - 1 - me] + a * y
        seed = np.where(on_left, at_left[me], at_right[G - 1 - me])
        rated = self.count[self.z] > 0
        live = np.flatnonzero((v > 0.0) & np.isfinite(left[-1]) & ~rated)
        reached = np.empty(live.size)
        for s in range(0, live.size, _TILE):
            j = live[s:s + _TILE]
            reached[s:s + _TILE] = self.values(j, seed[j], seed[j])
        with np.errstate(divide="ignore"):
            t = np.log(reached) - np.log(v[live]) - _SLACK * (1.0 + self.a_f + a)
        lo, hi = np.zeros(k, dtype=np.intp), np.zeros(k, dtype=np.intp)
        lo[live] = np.minimum(np.searchsorted(left, t + a * y[live]), me[live])
        hi[live] = np.maximum(G - 1 - np.searchsorted(right, t - a * y[live]), me[live])
        lo[rated], hi[rated] = 0, G - 1
        return lo, hi


def _scan(weights: PeerWeights, grid: TopicGrid, cols: slice) -> tuple[np.ndarray, np.ndarray]:
    """Index and objective of the first best candidate of each producer of
    `cols`.  In dim 1 (``_LineScan``) each producer's objective is valued
    on its ``ranges`` only, or on every candidate when there are at most
    _TILE (candidate, producer) pairs in all.  In dim 2 it is a running
    argmax over tiles of at most _TILE (g, N) entries of the stored tables,
    where strict > keeps the first best candidate; the rated rows of
    ``weights.S`` are built dense once, for the tiles' products."""
    z = np.arange(weights.u.size)[cols]
    if grid.P is None:
        line = _LineScan(weights, grid, z)
        G = len(grid.points)
        if G * z.size <= _TILE:
            return line.best_in(np.zeros(z.size, dtype=np.intp), np.full(z.size, G - 1))
        return line.best_in(*line.ranges())
    best, value = np.zeros(z.size, dtype=np.intp), np.full(z.size, -np.inf)
    rows = weights.S.rated_rows()
    S = weights.S.dense_rows(rows)
    step = max(1, _TILE // weights.u.size)
    for s in range(0, len(grid.points), step):
        tile = slice(s, s + step)
        vals = _tile_objective(weights, rows, S, grid.P[tile], grid.Q[tile], cols)
        top = vals.max(axis=0)
        up = np.flatnonzero(top > value)
        best[up] = s + np.argmax(vals[:, up], axis=0)
        value[up] = top[up]
    return best, value


def grid_best(weights: PeerWeights, grid: TopicGrid) -> np.ndarray:
    """Best scanned objective of every producer under `weights`."""
    return _scan(weights, grid, slice(None))[1]


def producer_block(weights: PeerWeights, grid: TopicGrid, cfg: MarketConfig, match: Match,
                   prev: np.ndarray | None = None, prev_value: np.ndarray | None = None,
                   cols: slice = slice(None)) -> ProducerBlock:
    """Best topics of the producers `cols` (a slice, default all N) under
    the peer weights, ``match`` being the match at the incumbents.

    prev (k, dim) holds the incumbent topics and prev_value (k,) their
    objective values, which the caller reads from ``match.producer_values``:
    a degenerate producer keeps its incumbent (the first candidate when
    prev is None), and any other keeps it unless the best candidate is
    strictly better.  A best candidate other than the incumbent is valued
    in chunks of _CHUNK producers with ``match.values_at``, the same
    function, so candidate and incumbent are compared by one formula.  One
    equal to the incumbent keeps prev_value.  ``match`` is only read.
    """
    start = cols.indices(cfg.n)[0]
    best, scanned = _scan(weights, grid, cols)
    topics = grid.points[best]
    degen = scanned <= 0.0
    if prev is None:
        values, valued = np.empty(best.size), np.flatnonzero(~degen)
    else:
        values = prev_value.copy()
        valued = np.flatnonzero(~degen & np.any(topics != prev, axis=1))
    for sl in chunks(valued.size):
        z = valued[sl]
        values[z] = match.values_at(weights, topics[z], start + z)
    if prev is not None:  # a producer with an incumbent moves only on strict improvement
        stay = ~(values > prev_value)
        topics[stay] = prev[stay]
        values[stay] = prev_value[stay]
    topics[degen] = grid.points[0] if prev is None else prev[degen]
    values[degen] = 0.0
    return ProducerBlock(topics, values, scanned)


def imperfect_producer_round(mu_i: np.ndarray, X: np.ndarray, grid: TopicGrid,
                             cfg: MarketConfig, match: Match
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One imperfect-regime producer pass from the topics X, ``match``
    being the match at X; returns the new topics, the degenerate mask and
    each producer's best scanned match mass (the ``grid_best`` of the
    pass's weights).  It reads X and the match and writes neither.

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
    mass = match.producer_values(weights)  # each incumbent's objective, as values_at values it
    block = producer_block(weights, grid, cfg, match, prev=X, prev_value=mass)
    todo = np.flatnonzero(~block.degenerate)
    at_best = cfg.r_p * block.grid_best[todo]
    old, new = cfg.r_p * mass, cfg.r_p * block.values
    M, beta = cfg.m_infl, cfg.delay.beta
    active = rates_with(old, M, beta, todo, at_best) > 0.0
    moves = new[todo] != old[todo]
    if np.any(moves):
        raised = rates_with(np.maximum(old, new), M, beta, todo, at_best) > 0.0
        current = old.copy()
        for i in np.flatnonzero(active & ~raised):
            done = todo[:i][moves[:i] & active[:i]]
            current[done] = new[done]
            active[i] = rates_with(current, M, beta, todo[i:i + 1], at_best[i:i + 1])[0] > 0.0
    degenerate = block.degenerate.copy()
    degenerate[todo[~active]] = True
    return np.where(degenerate[:, None], X, block.topics), degenerate, block.grid_best


# ---------------------------------------------------------------------------
# one-agent calls of the blocks, on a MarketAllocation
# ---------------------------------------------------------------------------

def influencer_best_response(omega: MarketAllocation, cfg: MarketConfig
                             ) -> InfluencerAllocation:
    """The influencer's optimal rates against omega's follow rates and topics."""
    gamma = cfg.r_p * match_of(omega.X, cfg).followed(discount(omega.mu_i, cfg.delay))
    return InfluencerAllocation(mu=influencer_br_dense(gamma, cfg))


def consumer_best_response(y: int, omega: MarketAllocation, cfg: MarketConfig,
                           mode: GameMode) -> MarketAllocation:
    """omega with consumer y's rates replaced by its best response to omega's
    influencer rates and topics: the consumer block restricted to y."""
    require_member(y, cfg, "consumer")
    match = match_of(omega.X, cfg)
    relayed = match.relayed(discount(omega.mu_infl, cfg.delay))
    lam_y, mu_i_y, _, cols, rates = _consumer_rates(np.array([y]), relayed, match, cfg,
                                                    mode is not GameMode.PROXY)
    lam, mu_i = omega.lam.copy(), omega.mu_i.copy()
    lam[y], mu_i[y] = lam_y[0], mu_i_y[0]
    return MarketAllocation(lam, mu_i, omega.direct.with_row(y, cols, rates),
                            omega.influencer, omega.X)


def _one_producer(z: int, weights: PeerWeights, match: Match, search: TopicSearchParams,
                  prev: TopicPoint | None) -> ProducerBlock:
    """The block restricted to producer z, on the match at omega's topics,
    with z moved to its incumbent prev when one is given."""
    cfg, cols = match.cfg, slice(z, z + 1)
    grid = TopicGrid(cfg, search)
    if prev is None:
        return producer_block(weights, grid, cfg, match, cols=cols)
    x = prev.as_array()[None, :]
    match.move(np.array([z]), x)
    return producer_block(weights, grid, cfg, match, prev=x,
                          prev_value=match.producer_values(weights, cols), cols=cols)


def _choice(x: np.ndarray, val: float, degen: bool) -> ProducerChoice:
    return ProducerChoice(topic=TopicPoint(tuple(x)), value=float(val), degenerate=bool(degen))


def producer_best_response_perfect(z: int, omega: MarketAllocation, cfg: MarketConfig,
                                   search: TopicSearchParams,
                                   prev: TopicPoint | None = None) -> ProducerChoice:
    """Topic maximizing z's support under omega's rates; prev is the incumbent."""
    require_member(z, cfg, "producer")
    weights = support_weights(omega.mu_i, omega.mu_infl, omega.direct, cfg)
    block = _one_producer(z, weights, match_of(omega.X, cfg), search, prev)
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
    require_member(z, cfg, "producer")
    d_i = discount(omega.mu_i, cfg.delay)
    match = match_of(omega.X, cfg)
    gamma = cfg.r_p * match.followed(d_i)
    block = _one_producer(z, PeerWeights.rank_one(d_i, np.ones(cfg.n)), match, search, prev)
    at_best, at_value = rates_with(gamma, cfg.m_infl, cfg.delay.beta, np.array([z, z]),
                                   cfg.r_p * np.array([block.grid_best[0], block.values[0]]))
    if block.degenerate[0] or at_best == 0.0:
        keep = np.zeros(cfg.dim) if prev is None else prev.as_array()
        return _choice(keep, discount(at_best, cfg.delay), True)
    return _choice(block.topics[0], discount(at_value, cfg.delay), False)

