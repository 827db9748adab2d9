"""Market state: who produces what, who listens at which rate, and the payoffs.

A community of N members sits in the topic space; each member is both a
producer (it picks one content topic X[z]) and a consumer (it splits an
attention budget M over channels).  A consumer y's channels are: an
outside source of fixed quality B_0 at rate lam[y], the influencer at
rate mu_i[y], and each other producer z directly at rate direct[y, z].
The influencer splits its own budget M_infl over the producers, at rate
mu_infl[z] on producer z, and relays their content to its followers.
``MarketAllocation`` holds these arrays.

Consumer utility adds three terms: content relayed by the influencer
(discounted twice -- once for the influencer's production rate on z,
once for the consumer's rate on the influencer), content consumed
directly, and the outside source:

    U_c(y) = r_p * sum_{z != y} B[z, y] * delta(mu_infl[z]) * delta(mu_i[y])
           + r_p * sum_{z != y} B[z, y] * delta(direct[y, z])
           + r_0 * B_0 * delta(lam[y])

with B[z, y] = g(d(X[z], z)) * f(d(X[z], y)), the ``match_matrix``.  The
two peer terms share the ``support_weights``
W[y, z] = delta(mu_i[y]) * delta(mu_infl[z]) + delta(direct[y, z]), zero
at z = y, so

    U_c(y) = r_p * sum_{z != y} B[z, y] * W[y, z] + r_0 * B_0 * delta(lam[y]).

W is a rank-one matrix u v^T (u = delta(mu_i), v = delta(mu_infl)) plus
delta(direct), which is zero on the row of every consumer holding no
direct rate.  ``PeerWeights`` keeps exactly that: u, v, the rows holding
a direct rate and delta(direct) on those rows, never the (N, N) table.  A
product with W is a product with u or v, minus the self term at z = y,
plus one product over those rows; at full density it costs what the dense
table did.  Where the self term is most of a sum, ``less_own`` sums that
entry again without it, so no entry is left as rounding noise.  The same
structure with v = 1 and no rows is the imperfect producers' weights,
delta(mu_i[y]) for every producer z != y.
``consumer_utilities`` and the perfect/proxy producers read one
``support_weights`` per state: a producer's objective at topic x is its
column of W weighted by the match of x.

The social welfare sum_y U_c(y) is an exact potential for unilateral
deviations (Monderer & Shapley, *Potential Games*, 1996): whichever single
agent (consumer, producer, or influencer) changes its strategy, the
welfare moves by exactly that agent's own objective change.  That identity
is what the equilibrium search and the certificates lean on, and it is
pinned by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import (
    DelayParams,
    InvalidInputError,
    KernelParams,
    TopicPoint,
    discount,
    pairwise_distances,
    require_finite_nonnegative,
)

# Absolute slack allowed on every budget constraint check.
BUDGET_TOL = 1e-9


@dataclass(frozen=True)
class MarketConfig:
    """Immutable description of one market instance."""

    dim: int
    interests: tuple[TopicPoint, ...]
    m: float                      # per-member attention budget
    m_infl: float                 # influencer attention budget
    r_p: float                    # value of peer-produced content
    r_0: float                    # value of the outside source
    b_0: float                    # outside source match quality, in (0, 1]
    kernel: KernelParams = field(default_factory=KernelParams)
    delay: DelayParams = field(default_factory=DelayParams)
    seed: int = 0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InvalidInputError(f"dim must be 1 or 2, got {self.dim}")
        interests = tuple(self.interests)
        if len(interests) < 2:
            raise InvalidInputError("a market needs at least two members")
        for p in interests:
            if p.dim != self.dim:
                raise InvalidInputError(
                    f"interest {p.coords} has dimension {p.dim}, expected {self.dim}")
        for name in ("m", "m_infl", "r_p", "r_0"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise InvalidInputError(f"{name} must be positive, got {v}")
        if not (0.0 < self.b_0 <= 1.0):
            raise InvalidInputError(f"b_0 must lie in (0, 1], got {self.b_0}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise InvalidInputError(f"seed must be a nonnegative integer, got {self.seed}")
        object.__setattr__(self, "interests", interests)
        Y = np.array([p.coords for p in interests], dtype=float)
        Y.setflags(write=False)
        object.__setattr__(self, "_interest_array", Y)

    @property
    def n(self) -> int:
        return len(self.interests)

    def interest_array(self) -> np.ndarray:
        """The (N, dim) interests, built once per config and read-only."""
        return self._interest_array


@dataclass(frozen=True)
class InfluencerAllocation:
    """The influencer's production rates, one per community member."""

    mu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1:
            raise InvalidInputError("influencer rates must be a 1-D array")
        require_finite_nonnegative(mu, "influencer rates")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class MarketAllocation:
    """Full market state as arrays; every array is read-only.

    lam         (N,)      consumer y's rate on the outside source
    mu_i        (N,)      consumer y's rate on the influencer
    direct      (N, N)    direct[y, z] is consumer y's rate on producer z
    influencer            the influencer's rates, ``influencer.mu`` (N,)
    X           (N, dim)  X[z] is producer z's content topic

    Construction only converts; ``validate`` checks a state against a
    config (shapes, signs, the zero diagonal of direct, topics in the unit
    box, budgets).
    """

    lam: np.ndarray
    mu_i: np.ndarray
    direct: np.ndarray
    influencer: InfluencerAllocation
    X: np.ndarray

    def __post_init__(self):
        for name in ("lam", "mu_i", "direct", "X"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def mu_infl(self) -> np.ndarray:
        """The influencer's rates, ``influencer.mu``."""
        return self.influencer.mu

    def validate(self, cfg: MarketConfig) -> None:
        """Raise InvalidInputError naming the field of the first violated invariant."""
        n = cfg.n
        for name, a, shape in (("lam", self.lam, (n,)), ("mu_i", self.mu_i, (n,)),
                               ("direct", self.direct, (n, n)),
                               ("influencer.mu", self.mu_infl, (n,)),
                               ("X", self.X, (n, cfg.dim))):
            if a.shape != shape:
                raise InvalidInputError(f"{name} has shape {a.shape}, expected {shape}")
            ok = (a >= 0.0) & ((a <= 1.0) if name == "X" else (a < math.inf))
            if not ok.all():
                at = tuple(int(i) for i in np.argwhere(~ok)[0])
                what = "outside the unit box [0, 1]" if name == "X" else "negative or not finite"
                raise InvalidInputError(
                    f"{name}[{', '.join(map(str, at))}] = {float(a[at])!r} is {what}")
        self_rated = np.flatnonzero(np.diagonal(self.direct))
        if self_rated.size:
            y = self_rated[0]
            raise InvalidInputError(
                f"direct[{y}, {y}] = {float(self.direct[y, y])!r}: "
                f"consumer {y} holds a direct rate on itself")
        spent = self.lam + self.mu_i + self.direct.sum(axis=1)
        over = np.flatnonzero(spent > cfg.m + BUDGET_TOL)
        if over.size:
            y = over[0]
            raise InvalidInputError(
                f"consumer {y} spends {spent[y]:.12g} > budget {cfg.m:.12g}")
        spent_infl = float(self.mu_infl.sum())
        if spent_infl > cfg.m_infl + BUDGET_TOL:
            raise InvalidInputError(
                f"influencer spends {spent_infl:.12g} > budget {cfg.m_infl:.12g}")


def match_matrix(X: np.ndarray, cfg: MarketConfig,
                 producers: np.ndarray | None = None) -> np.ndarray:
    """B[z, y] = g(d(x(z), z)) * f(d(x(z), y)): producer rows, consumer
    columns, built in place in the one (N, N) distance buffer.  With
    ``producers`` (k,) given, X holds only their topics and the result only
    their k rows: every entry reads one topic and one interest, so those
    rows are the full table's bit for bit."""
    B = pairwise_distances(np.asarray(X, dtype=float), cfg.interest_array())
    own = np.diagonal(B) if producers is None else B[np.arange(B.shape[0]), producers]
    quality = np.exp(-cfg.kernel.a_g * own)
    B *= -cfg.kernel.a_f
    np.exp(B, out=B)
    B *= quality[:, None]
    return B


def less_own(total: np.ndarray, own: np.ndarray, terms) -> np.ndarray:
    """total - own, where total sums the terms of a row and own is its term
    at one column z; own is overwritten with the result.

    Where own is more than half of total, the difference would keep little
    but rounding noise (a member whose own weight dominates the sum, as
    under a sharply peaked kernel), so those entries are summed again
    without it: ``terms(*idx)`` gives their (f, N) terms and the (f,)
    columns z, idx being ``np.nonzero`` of the entries.  Each entry reads
    only its own row, so any chunking of the rows gives the same floats.
    """
    redo = own > 0.5 * total
    out = np.subtract(total, own, out=own)
    if redo.any():
        redo = np.nonzero(redo)
        T, z = terms(*redo)
        T[np.arange(z.size), z] = 0.0
        out[redo] = T.sum(axis=1)
    return out


def rated_rows(direct: np.ndarray) -> np.ndarray:
    """The consumers holding any direct rate, ascending."""
    return np.flatnonzero(direct.any(axis=1))


def take_rows(A: np.ndarray, rows: np.ndarray, axis: int = 0) -> np.ndarray:
    """A's entries at ``rows`` along ``axis``; A itself, not a copy, when
    rows holds every one of them."""
    return A if rows.size == A.shape[axis] else np.take(A, rows, axis=axis)


@dataclass(frozen=True)
class PeerWeights:
    """Peer weights W[y, z] = u[y] * v[z] + S[i, z] where y = rows[i] (the
    S term is absent on every other row), zero at z = y; never built as a
    table.

    u     (N,)     the consumer factor of the rank-one term
    v     (N,)     the producer factor of the rank-one term
    rows  (r,)     the consumers the S term applies to, ascending
    S     (r, N)   their extra weights, zero at their own column
    """

    u: np.ndarray
    v: np.ndarray
    rows: np.ndarray
    S: np.ndarray

    @classmethod
    def rank_one(cls, u: np.ndarray, v: np.ndarray) -> "PeerWeights":
        """W[y, z] = u[y] * v[z], zero at z = y."""
        return cls(u, v, np.empty(0, dtype=np.intp), np.empty((0, u.size)))

    def at_rows(self, A: np.ndarray) -> np.ndarray:
        """A's columns at ``rows``."""
        return take_rows(A, self.rows, axis=1)

    def producer_values(self, D: np.ndarray, cols: slice = slice(None)) -> np.ndarray:
        """sum_y D[j, y] * W[y, z_j] for the producers z_j of ``cols``, D
        (k, N) holding their match rows: each producer's objective at its
        topic, and with D = B every incumbent's.  Row j depends only on D[j],
        so any chunking of the producers gives the same floats."""
        z = np.arange(self.u.size)[cols]
        vals = less_own(np.einsum("zy,y->z", D, self.u), D[np.arange(z.size), z] * self.u[z],
                        lambda j: (D[j] * self.u, z[j]))
        vals *= self.v[cols]
        if self.rows.size:
            vals += np.einsum("zi,iz->z", self.at_rows(D), self.S[:, cols])
        return vals

    def consumer_values(self, B: np.ndarray) -> np.ndarray:
        """sum_z B[z, y] * W[y, z] for every consumer y, B being the
        (N, N) match matrix: the transpose twin of ``producer_values``."""
        vals = influencer_relayed_match(self.v, B)
        vals *= self.u
        if self.rows.size:
            vals[self.rows] += np.einsum("zi,iz->i", self.at_rows(B), self.S)
        return vals


def support_weights(mu_i: np.ndarray, mu_infl: np.ndarray, direct: np.ndarray,
                    cfg: MarketConfig) -> PeerWeights:
    """The peer weights W of the welfare and of the perfect/proxy producers:
    W[y, z] = delta(mu_i[y]) * delta(mu_infl[z]) + delta(direct[y, z]),
    zero at z = y, with delta(direct) kept on the rows holding a rate."""
    rows = rated_rows(direct)
    d = cfg.delay
    return PeerWeights(discount(mu_i, d), discount(mu_infl, d), rows,
                       discount(take_rows(direct, rows), d))


def consumer_utilities(omega: MarketAllocation, cfg: MarketConfig,
                       B: np.ndarray | None = None) -> np.ndarray:
    """All N consumer utilities at once; B defaults to ``match_matrix(omega.X, cfg)``."""
    if B is None:
        B = match_matrix(omega.X, cfg)
    weights = support_weights(omega.mu_i, omega.mu_infl, omega.direct, cfg)
    return _utilities(B, weights, omega.lam, cfg)


def _utilities(B: np.ndarray, weights: PeerWeights, lam: np.ndarray,
               cfg: MarketConfig) -> np.ndarray:
    """r_p * sum_z B[z, y] * W[y, z] + r_0 * B_0 * delta(lam[y]) for every y,
    W being ``support_weights`` of the same state."""
    return (cfg.r_p * weights.consumer_values(B)
            + cfg.r_0 * cfg.b_0 * discount(lam, cfg.delay))


def social_welfare(omega: MarketAllocation, cfg: MarketConfig,
                   B: np.ndarray | None = None) -> float:
    """Total consumer utility; exact potential for unilateral deviations."""
    return float(consumer_utilities(omega, cfg, B).sum())


def influencer_relayed_match(d_infl: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Per consumer y: sum over z != y of delta(mu_infl(z)) * B[z, y].

    This is the influencer channel's value to each consumer without the r_p
    scale; the transpose twin of ``influencer_followed_match``.
    """
    return less_own(B.T @ d_infl, np.diagonal(B) * d_infl, lambda y: (B[:, y].T * d_infl, y))


def influencer_followed_match(d_i: np.ndarray, B: np.ndarray) -> np.ndarray:
    """gamma(z)/r_p without the r_p scale: sum over y != z of delta(mu_i(y)) * B[z, y].

    This is each producer's follower-weighted match mass as seen from the
    influencer's chair; r_p * this vector is the influencer's channel weights.
    """
    return less_own(B @ d_i, np.diagonal(B) * d_i, lambda z: (B[z] * d_i, z))


def influencer_utility(omega: MarketAllocation, cfg: MarketConfig,
                       B: np.ndarray | None = None) -> float:
    """The influencer's objective: total relayed consumption it mediates."""
    if B is None:
        B = match_matrix(omega.X, cfg)
    d = cfg.delay
    return cfg.r_p * float(np.dot(discount(omega.mu_infl, d),
                                  influencer_followed_match(discount(omega.mu_i, d), B)))


def producer_support(z: int, omega: MarketAllocation, cfg: MarketConfig,
                     B: np.ndarray | None = None) -> float:
    """Producer z's objective: consumption of z's content via both routes."""
    if B is None:
        B = match_matrix(omega.X, cfg)
    d = cfg.delay
    terms = B[z] * (discount(float(omega.mu_infl[z]), d) * discount(omega.mu_i, d)
                    + discount(omega.direct[:, z], d))
    terms[z] = 0.0  # z's own term, zeroed rather than subtracted (see less_own)
    return cfg.r_p * float(terms.sum())

