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

with B[z, y] = g(d(X[z], z)) * f(d(X[z], y)), the ``match_matrix``.

The social welfare sum_y U_c(y) is an exact potential for unilateral
deviations: whichever single agent (consumer, producer, or influencer)
changes its strategy, the welfare moves by exactly that agent's own
objective change.  That identity is what the equilibrium search and the
certificates lean on, and it is pinned by tests.
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
        if np.any(mu < 0.0) or not np.all(np.isfinite(mu)):
            raise InvalidInputError("influencer rates must be finite and nonnegative")
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


def match_matrix(X: np.ndarray, cfg: MarketConfig) -> np.ndarray:
    """B[z, y] = g(d(x(z), z)) * f(d(x(z), y)): producer rows, consumer columns."""
    Y = cfg.interest_array()
    D = pairwise_distances(np.asarray(X, dtype=float), Y)
    quality = np.exp(-cfg.kernel.a_g * np.diagonal(D))
    return quality[:, None] * np.exp(-cfg.kernel.a_f * D)


def consumer_utilities(omega: MarketAllocation, cfg: MarketConfig,
                       B: np.ndarray | None = None) -> np.ndarray:
    """All N consumer utilities at once; B defaults to ``match_matrix(omega.X, cfg)``."""
    if B is None:
        B = match_matrix(omega.X, cfg)
    d = cfg.delay
    via_infl = influencer_relayed_match(discount(omega.mu_infl, d), B)
    direct = np.sum(B.T * discount(omega.direct, d), axis=1)  # direct[y, y] == 0
    return (cfg.r_p * (discount(omega.mu_i, d) * via_infl + direct)
            + cfg.r_0 * cfg.b_0 * discount(omega.lam, d))


def social_welfare(omega: MarketAllocation, cfg: MarketConfig,
                   B: np.ndarray | None = None) -> float:
    """Total consumer utility; exact potential for unilateral deviations."""
    return float(consumer_utilities(omega, cfg, B).sum())


def influencer_relayed_match(d_infl: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Per consumer y: sum over z != y of delta(mu_infl(z)) * B[z, y].

    This is the influencer channel's value to each consumer without the r_p
    scale; the transpose twin of ``influencer_followed_match``.
    """
    return B.T @ d_infl - np.diagonal(B) * d_infl


def influencer_followed_match(d_i: np.ndarray, B: np.ndarray) -> np.ndarray:
    """gamma(z)/r_p without the r_p scale: sum over y != z of delta(mu_i(y)) * B[z, y].

    This is each producer's follower-weighted match mass as seen from the
    influencer's chair; r_p * this vector is the influencer's channel weights.
    """
    return B @ d_i - np.diagonal(B) * d_i


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
    return cfg.r_p * float(terms.sum() - terms[z])


def producer_support_via_influencer(z: int, omega: MarketAllocation, cfg: MarketConfig,
                                    B: np.ndarray | None = None) -> float:
    """The influencer-mediated share of producer z's support."""
    if B is None:
        B = match_matrix(omega.X, cfg)
    d = cfg.delay
    terms = B[z] * discount(omega.mu_i, d)
    return cfg.r_p * discount(float(omega.mu_infl[z]), d) * float(terms.sum() - terms[z])
