"""Optimal attention allocation over weighted channels.

Every agent in the market ultimately solves the same concave program:
split a fixed attention budget M over n channels so that

    sum_i  w_i * delta(mu_i)     is maximal subject to   sum_i mu_i <= M,
                                                         mu_i >= 0,

where delta(mu) = 1 - exp(-beta*mu) and w_i >= 0 is the value of channel
i.  Because delta is strictly concave with delta'(0) = beta, the solution
is a water-filling: there is a multiplier nu > 0 such that every active
channel satisfies w_i * delta'(mu_i) = nu, i.e.

    mu_i = max(0, log(beta * w_i / nu) / beta),

and nu is pinned down by the budget, which always binds (delta' > 0, so
leftover attention is never optimal once any channel has positive value).

For a fixed active set the budget equation is linear in log nu, so nu has
a closed form (Boyd & Vandenberghe, *Convex Optimization*, section 5.5.3).
With a_1 >= a_2 >= ... the values log(beta * w_i) sorted in descending
order and the top k channels active,

    log nu = level_k = (a_1 + ... + a_k - beta*M) / k,

and the optimal active set is the largest k with a_k > level_k.  One sort
and one prefix sum find it -- the same trick as the Euclidean projection
onto the simplex (Duchi et al., ICML 2008).  ``_water_fill_rows`` runs it
on a stack of channel sets at once, one per row; ``water_fill`` is its
one-row call, and every full split the engine solves goes through it.

With C_k = a_1 + ... + a_k the test a_k > level_k reads

    key_k = C_k - k * a_k  <  beta * M,

and key_k is nondecreasing in k (key_{k+1} - key_k = k * (a_k - a_{k+1})).
The rates sum to M, so a_1 - log nu <= sum over the active channels of
(a_i - log nu) = beta * M: log nu >= a_1 - beta * M, and only a channel
with w_i > max(w) * exp(-beta * M) can be active.  ``_water_fill_rows``
sorts only those candidates, in a large community a handful of each
consumer's N + 2 channels.  They are each row's top weights, so the
sorted prefix a_1, a_2, ... up to the last candidate, its sums C_k and
its levels are the floats a full sort gives; past it a full sort's test
fails (key_k >= a_1 - a_k > beta * M), so both find the same active set
and the same log nu.

The active count is also a binary search on key_k.  ``SortedChannels``
keeps one sort, its prefix sums, key_k and key_up_k = C_k - (k + 1) * a_k,
and finds channel z's rate once its weight alone is replaced by w' with
lookups.  Let
a' = log(beta * w') and count z as active.  The channel at sorted position
j != z is then active iff key_up_j < beta * M - a' when j lies ahead of z's
old entry, and iff key_j < beta * M - a' + a_z behind it (its prefix sum
loses a_z); both tests are monotone in j.  With m other channels active and
S their sum of a, z's rate is

    (beta * M + m * a' - S) / ((m + 1) * beta),

positive exactly when a' lies above the water level of the other channels,
i.e. when z is active after the replacement, and then it is z's rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import DelayParams, InvalidInputError, require_finite_nonnegative


class DegenerateWeightsError(ValueError):
    """Every channel has zero weight; any feasible split is (trivially) optimal."""


@dataclass(frozen=True)
class WeightedChannels:
    """Channel weights w_i >= 0 and the attention budget to split over them."""

    weights: np.ndarray
    budget: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InvalidInputError("weights must be a nonempty 1-D array")
        require_finite_nonnegative(w, "channel weights")
        if not (self.budget > 0.0 and math.isfinite(self.budget)):
            raise InvalidInputError(f"budget must be positive, got {self.budget}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class AllocationSolution:
    """Optimal rates, the shared multiplier nu, and the attained objective.
    log nu is kept too: nu underflows to 0.0 once beta*M per channel passes ~745."""

    rates: np.ndarray
    multiplier: float
    objective: float
    log_multiplier: float


def _objective(rates: np.ndarray, weights: np.ndarray, beta: float) -> float:
    return float(np.dot(weights, -np.expm1(-beta * rates)))


def _candidates(W: np.ndarray, top: np.ndarray, bm: float) -> np.ndarray:
    """Mask of the channels of each row of W that can be active at
    beta * M = bm: w_i > max(w) * exp(-bm) (module docstring), top (n,)
    holding each row's max(w), the bound lowered by a relative 1e-9 so that
    rounding never drops a channel.  Once exp(-bm) underflows, every
    positive weight is a candidate.  A normal max(w) always lies above its
    bound, so it stays a candidate; a subnormal one can round the bound up
    to itself (``_normal_rows``)."""
    return W > top[:, None] * (math.exp(-bm) * (1.0 - 1e-9))


def _normal_rows(W: np.ndarray, beta: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """W with every row whose max(w) or beta * max(w) is not a normal float
    (its bound in ``_candidates`` could drop it, beta * w could lose bits
    or underflow to 0) scaled by the exact power of two 2**s that brings
    beta * max(w) into [1/4, 1), each row's max(w) as scaled, and each
    row's s (0 on the other rows); (W, max(w), None) when no row needs it.
    A scaled row has the same split, its log nu shifted by s * log 2."""
    top = W.max(axis=1)
    small = min(beta, 1.0) * top < np.finfo(float).tiny
    if not np.any(small):
        return W, top, None
    s = np.zeros(W.shape[0], dtype=int)
    s[small] = -(np.frexp(top[small])[1] + np.frexp(beta)[1])
    W = W.copy()
    W[small] = np.ldexp(W[small], s[small, None])
    top[small] = np.ldexp(top[small], s[small])
    return W, top, s


def _water_fill_rows(W: np.ndarray, budget: float, beta: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Closed form of the module docstring, row by row; returns (rates, log nu).

    Every row must hold a positive weight.  A row of tiny weights is
    solved scaled (``_normal_rows``).  Only each row's candidates
    (``_candidates``) are sorted: they are gathered into an (n, K) table,
    K the largest candidate count, padded with zero weights, which enter
    as log(0) = -inf, sort last and never become active.  The rates are
    scattered back into zeroed (n, N) rows.
    """
    n, N = W.shape
    W, top, shift = _normal_rows(W, beta)
    flat = np.flatnonzero(_candidates(W, top, beta * budget))
    count = np.bincount(flat // N, minlength=n)
    # row i's candidates, in channel order, fill the first count[i] slots
    # of its table row
    slots = np.arange(count.max()) < count[:, None]
    K = slots.shape[1]
    a = np.zeros((n, K))
    a[slots] = W.take(flat)
    a *= beta
    with np.errstate(divide="ignore"):
        np.log(a, out=a)
    desc = np.sort(a, axis=1)[:, ::-1]
    level = np.cumsum(desc, axis=1)
    level -= beta * budget
    level /= np.arange(1, K + 1)
    k_star = K - 1 - np.argmax((desc > level)[:, ::-1], axis=1)
    log_nu = level[np.arange(n), k_star]
    a -= log_nu[:, None]
    np.maximum(a, 0.0, out=a)
    a /= beta
    rates = np.zeros(n * N)
    rates[flat] = a[slots]
    if shift is not None:
        log_nu -= shift * math.log(2.0)
    return rates.reshape(n, N), log_nu


def water_fill(ch: WeightedChannels, d: DelayParams) -> AllocationSolution:
    """Exact budget split in closed form, no iteration.

    Sorts a_i = log(beta * w_i) over the channels that can be active,
    reads log nu off the prefix sums for the largest consistent active set
    (Boyd & Vandenberghe, *Convex Optimization*, section 5.5.3; derivation
    in the module docstring) and returns mu_i = max(0, a_i - log nu) / beta,
    so zero-weight channels get exactly 0.
    """
    w = ch.weights
    if not np.any(w > 0.0):
        raise DegenerateWeightsError("all channel weights are zero")
    rates, log_nu = _water_fill_rows(w[None, :], ch.budget, d.beta)
    log_nu = float(log_nu[0])
    return AllocationSolution(rates=rates[0], multiplier=float(np.exp(log_nu)),
                              objective=_objective(rates[0], w, d.beta),
                              log_multiplier=log_nu)


class SortedChannels:
    """One channel set in one descending sort of a = log(beta * w), kept so
    that a single weight can be replaced by lookups (module docstring).

    weights  (n,)    the current weights w
    a        (n,)    log(beta * w), -inf for a zero weight
    s        (n,)    a sorted in descending order; zero weights sort last
    order    (n,)    the channel at each sorted position; pos is its inverse
    C        (n + 1) prefix sums of s, C[0] = 0, held at C[f] past the f
                     positive weights
    key      (n,)    C_k - k * s_k at position k - 1 (the full set's test)
    key_up   (n,)    C_k - (k + 1) * s_k (the test with a channel added ahead)

    Both keys are +inf past the f positive weights, which are never active.
    It answers only one-weight replacements (``rates_with``, ``replace``);
    the full split over the current weights is ``water_fill``'s.  When a
    replacement leaves no positive weight, the rate is the uniform split,
    the fallback the influencer takes when nobody's attention is worth
    anything to it (``bestresponse.influencer_br_dense``).
    """

    def __init__(self, weights: np.ndarray, budget: float, d: DelayParams):
        self.weights = np.array(weights, dtype=float)
        self.budget, self.beta = budget, d.beta
        self._bm = d.beta * budget
        with np.errstate(divide="ignore"):
            self.a = np.log(d.beta * self.weights)
        n = self.a.size
        self.order = np.argsort(-self.a)
        self.s = self.a[self.order]
        self.pos = np.empty(n, dtype=np.intp)
        self.pos[self.order] = np.arange(n)
        self.f = int(np.count_nonzero(self.weights > 0.0))
        self.C = np.zeros(n + 1)
        self.key = np.empty(n)
        self.key_up = np.empty(n)
        self._rebuild(0)

    def _rebuild(self, start: int) -> None:
        """Prefix sums and keys from sorted position `start` on, summed in
        the order a fresh build sums them."""
        s, C, f = self.s, self.C, self.f
        if start < f:
            run = s[start:f].copy()
            run[0] += C[start]
            np.cumsum(run, out=C[start + 1:f + 1])
        C[f + 1:] = C[f]
        k = np.arange(start + 1, f + 1)
        self.key[start:f] = C[start + 1:f + 1] - k * s[start:f]
        self.key_up[start:f] = C[start + 1:f + 1] - (k + 1) * s[start:f]
        self.key[max(start, f):] = np.inf
        self.key_up[max(start, f):] = np.inf

    def rates_with(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Rate of channel z[j] in the optimal split once its weight alone is
        w[j], for every j at once; the other weights stay as they are."""
        z, w = np.asarray(z), np.asarray(w, dtype=float)
        p = self.pos[z]
        sp = self.s[p]
        zero = w <= 0.0
        a = np.log(self.beta * np.where(zero, 1.0, w))
        t = self._bm - a
        # m other channels active with z counted in: those ahead of z's old
        # position by key_up, then any behind it by key (module docstring)
        ahead = np.searchsorted(self.key_up, t)
        behind = np.searchsorted(self.key, t + sp)
        m = np.where(behind > p + 1, behind - 1, np.minimum(ahead, p))
        S = np.where(m <= p, self.C[m], self.C[m + 1] - sp)
        rate = np.maximum((self._bm + m * a - S) / ((m + 1) * self.beta), 0.0)
        rate[zero] = 0.0
        rate[zero & (self.f - np.isfinite(sp) == 0)] = self.budget / self.a.size
        return rate

    def replace(self, z: int, w: float) -> None:
        """Set channel z's weight to w: one deletion and one insertion in the
        sort, then the sums and keys from the first changed position."""
        p = int(self.pos[z])
        a_new = float(np.log(self.beta * w)) if w > 0.0 else -math.inf
        n = self.a.size
        above = n - int(np.searchsorted(self.s[::-1], a_new, side="right"))
        q = above - (p < above)  # z's position among the other channels
        s, order = self.s, self.order
        if q <= p:
            s[q + 1:p + 1], order[q + 1:p + 1] = s[q:p], order[q:p]
        else:
            s[p:q], order[p:q] = s[p + 1:q + 1], order[p + 1:q + 1]
        s[q], order[q] = a_new, z
        lo, hi = min(p, q), max(p, q) + 1
        self.pos[order[lo:hi]] = np.arange(lo, hi)
        self.f += int(w > 0.0) - int(self.weights[z] > 0.0)
        self.weights[z], self.a[z] = w, a_new
        self._rebuild(lo)

