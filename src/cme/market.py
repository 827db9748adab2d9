"""Market state: who produces what, who listens at which rate, and the payoffs.

A community of N members sits in the topic space; each member is both a
producer (it picks one content topic x(z)) and a consumer (it splits an
attention budget M over channels).  A consumer y's channels are: an
outside source of fixed quality B_0 at rate lambda_out, the influencer
at rate mu_infl_follow, and each other producer z directly at rate
mu_direct[z].  The influencer splits its own budget M_infl over the
producers and relays their content to its followers.

Consumer utility adds three terms: content relayed by the influencer
(discounted twice -- once for the influencer's production rate on z,
once for the consumer's rate on the influencer), content consumed
directly, and the outside source:

    U_c(y) = r_p * sum_{z != y} B(z|y) * delta(mu_infl(z)) * delta(mu_infl_follow(y))
           + r_p * sum_{z != y} B(z|y) * delta(mu_direct(y, z))
           + r_0 * B_0 * delta(lambda_out(y))

The social welfare sum_y U_c(y) is an exact potential for unilateral
deviations: whichever single agent (consumer, producer, or influencer)
changes its strategy, the welfare moves by exactly that agent's own
objective change.  That identity is what the equilibrium search and the
certificates lean on, and it is pinned by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .kernels import (
    DelayParams,
    InvalidInputError,
    KernelParams,
    TopicPoint,
    discount,
    pairwise_distances,
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
class ConsumerAllocation:
    """One consumer's attention split; mu_direct maps producer index -> rate."""

    lambda_out: float
    mu_infl_follow: float
    mu_direct: Mapping[int, float]

    def __post_init__(self):
        if self.lambda_out < 0.0 or self.mu_infl_follow < 0.0:
            raise InvalidInputError("attention rates must be nonnegative")
        direct = {int(z): float(r) for z, r in dict(self.mu_direct).items()}
        for z, r in direct.items():
            if r < 0.0 or not math.isfinite(r):
                raise InvalidInputError(f"direct rate on producer {z} is {r}")
        object.__setattr__(self, "mu_direct", direct)

    def total(self) -> float:
        return self.lambda_out + self.mu_infl_follow + sum(self.mu_direct.values())


@dataclass(frozen=True)
class InfluencerAllocation:
    """The influencer's production rates, one per community member."""

    mu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1:
            raise InvalidInputError("influencer rates must be a 1-D array")
        if np.any(mu < 0.0) or not np.all(np.isfinite(mu)):
            raise InvalidInputError("influencer rates must be finite and nonnegative")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class ContentAssignment:
    """Topic choice x(z) of every producer."""

    x: tuple[TopicPoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))


@dataclass(frozen=True)
class MarketAllocation:
    """Full market state: all consumers, the influencer, and all topics."""

    consumers: tuple[ConsumerAllocation, ...]
    influencer: InfluencerAllocation
    content: ContentAssignment

    def __post_init__(self):
        object.__setattr__(self, "consumers", tuple(self.consumers))

    def validate(self, cfg: MarketConfig) -> None:
        """Raise InvalidInputError naming the first violated invariant."""
        n = cfg.n
        if len(self.consumers) != n:
            raise InvalidInputError(
                f"expected {n} consumer allocations, got {len(self.consumers)}")
        if self.influencer.mu.size != n:
            raise InvalidInputError(
                f"expected {n} influencer rates, got {self.influencer.mu.size}")
        if len(self.content.x) != n:
            raise InvalidInputError(
                f"expected {n} content topics, got {len(self.content.x)}")
        for z, p in enumerate(self.content.x):
            if p.dim != cfg.dim:
                raise InvalidInputError(
                    f"content topic of producer {z} has dimension {p.dim}, expected {cfg.dim}")
        for y, c in enumerate(self.consumers):
            if y in c.mu_direct:
                raise InvalidInputError(f"consumer {y} holds a direct rate on itself")
            for z in c.mu_direct:
                if not (0 <= z < n):
                    raise InvalidInputError(f"consumer {y} rates unknown producer {z}")
            if c.total() > cfg.m + BUDGET_TOL:
                raise InvalidInputError(
                    f"consumer {y} spends {c.total():.12g} > budget {cfg.m:.12g}")
        spent = float(self.influencer.mu.sum())
        if spent > cfg.m_infl + BUDGET_TOL:
            raise InvalidInputError(
                f"influencer spends {spent:.12g} > budget {cfg.m_infl:.12g}")


class DenseAllocation(NamedTuple):
    """Array view of a MarketAllocation used by all the numerics.

    direct[y, z] is consumer y's rate on producer z (zero diagonal);
    X stacks the content topics as an (N, dim) array.
    """

    lam: np.ndarray
    mu_i: np.ndarray
    direct: np.ndarray
    mu_infl: np.ndarray
    X: np.ndarray


def consumer_arrays(consumers, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambda_out, mu_infl_follow, direct) of N consumer allocations as fresh arrays."""
    lam = np.array([c.lambda_out for c in consumers], dtype=float)
    mu_i = np.array([c.mu_infl_follow for c in consumers], dtype=float)
    direct = np.zeros((n, n))
    for y, c in enumerate(consumers):
        for z, r in c.mu_direct.items():
            direct[y, z] = r
    return lam, mu_i, direct


def content_array(content: ContentAssignment) -> np.ndarray:
    return np.array([p.coords for p in content.x], dtype=float)


def dense_from_allocation(omega: MarketAllocation, cfg: MarketConfig) -> DenseAllocation:
    """Fresh arrays: the result shares no memory with `omega`."""
    lam, mu_i, direct = consumer_arrays(omega.consumers, cfg.n)
    return DenseAllocation(lam, mu_i, direct, np.array(omega.influencer.mu),
                           content_array(omega.content))


def allocation_from_dense(dense: DenseAllocation, cfg: MarketConfig) -> MarketAllocation:
    consumers = []
    for y, row in enumerate(dense.direct):
        nz = np.flatnonzero(row > 0.0)
        nz = nz[nz != y]
        direct = dict(zip(nz.tolist(), row[nz].tolist()))
        consumers.append(ConsumerAllocation(
            lambda_out=float(dense.lam[y]),
            mu_infl_follow=float(dense.mu_i[y]),
            mu_direct=direct))
    content = ContentAssignment(x=tuple(TopicPoint(tuple(row)) for row in dense.X))
    return MarketAllocation(consumers=tuple(consumers),
                            influencer=InfluencerAllocation(mu=dense.mu_infl.copy()),
                            content=content)


def match_matrix(X: np.ndarray, cfg: MarketConfig) -> np.ndarray:
    """B[z, y] = g(d(x(z), z)) * f(d(x(z), y)): producer rows, consumer columns."""
    Y = cfg.interest_array()
    D = pairwise_distances(np.asarray(X, dtype=float), Y)
    quality = np.exp(-cfg.kernel.a_g * np.diagonal(D))
    return quality[:, None] * np.exp(-cfg.kernel.a_f * D)


def consumer_utilities(dense: DenseAllocation, cfg: MarketConfig,
                       B: np.ndarray | None = None) -> np.ndarray:
    """All N consumer utilities at once."""
    if B is None:
        B = match_matrix(dense.X, cfg)
    d = cfg.delay
    d_infl = discount(dense.mu_infl, d)
    d_i = discount(dense.mu_i, d)
    d_dir = discount(dense.direct, d)
    # per consumer y: sum over z != y of B[z,y] * delta(mu_infl(z))
    via_infl = B.T @ d_infl - np.diagonal(B) * d_infl
    direct = np.sum(B.T * d_dir, axis=1)  # diagonal contributes 0: direct[y,y] == 0
    return cfg.r_p * (d_i * via_infl + direct) + cfg.r_0 * cfg.b_0 * discount(dense.lam, d)


def influencer_followed_match(d_i: np.ndarray, B: np.ndarray) -> np.ndarray:
    """gamma(z)/r_p without the r_p scale: sum over y != z of delta(mu_i(y)) * B[z, y].

    This is each producer's follower-weighted match mass as seen from the
    influencer's chair; r_p * this vector is the influencer's channel weights.
    """
    return B @ d_i - np.diagonal(B) * d_i


def influencer_utility_dense(dense: DenseAllocation, cfg: MarketConfig,
                             B: np.ndarray | None = None) -> float:
    d_infl = discount(dense.mu_infl, cfg.delay)
    if B is None:
        B = match_matrix(dense.X, cfg)
    d_i = discount(dense.mu_i, cfg.delay)
    return cfg.r_p * float(np.dot(d_infl, influencer_followed_match(d_i, B)))


def producer_support_dense(z: int, dense: DenseAllocation, cfg: MarketConfig,
                           B: np.ndarray | None = None) -> float:
    if B is None:
        B = match_matrix(dense.X, cfg)
    d = cfg.delay
    d_i = discount(dense.mu_i, d)
    d_infl_z = discount(float(dense.mu_infl[z]), d)
    d_dir_z = discount(dense.direct[:, z], d)
    terms = B[z] * (d_infl_z * d_i + d_dir_z)
    return cfg.r_p * float(terms.sum() - terms[z])


def producer_support_via_influencer_dense(z: int, dense: DenseAllocation,
                                          cfg: MarketConfig,
                                          B: np.ndarray | None = None) -> float:
    if B is None:
        B = match_matrix(dense.X, cfg)
    d = cfg.delay
    d_i = discount(dense.mu_i, d)
    d_infl_z = discount(float(dense.mu_infl[z]), d)
    terms = B[z] * d_i
    return cfg.r_p * d_infl_z * float(terms.sum() - terms[z])


def consumer_utility(y: int, omega: MarketAllocation, cfg: MarketConfig) -> float:
    """Consumer y's expected utility under the full allocation."""
    return float(consumer_utilities(dense_from_allocation(omega, cfg), cfg)[y])


def influencer_utility(omega: MarketAllocation, cfg: MarketConfig) -> float:
    """The influencer's objective: total relayed consumption it mediates."""
    return influencer_utility_dense(dense_from_allocation(omega, cfg), cfg)


def producer_support(z: int, omega: MarketAllocation, cfg: MarketConfig) -> float:
    """Producer z's objective: consumption of z's content via both routes."""
    return producer_support_dense(z, dense_from_allocation(omega, cfg), cfg)


def producer_support_via_influencer(z: int, omega: MarketAllocation,
                                    cfg: MarketConfig) -> float:
    """The influencer-mediated share of producer z's support."""
    return producer_support_via_influencer_dense(z, dense_from_allocation(omega, cfg), cfg)


def social_welfare(omega: MarketAllocation, cfg: MarketConfig) -> float:
    """Total consumer utility; exact potential for unilateral deviations."""
    return float(consumer_utilities(dense_from_allocation(omega, cfg), cfg).sum())
