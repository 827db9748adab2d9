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
onto the simplex (Duchi et al., ICML 2008).  ``_water_fill_sparse`` runs it
on a stack of channel sets at once, one per row; ``water_fill`` is its
one-row call, and every full split the engine solves goes through it.
It takes each a_i relative to a_1, which shifts every level by a_1 and
leaves the active set and the rates as they are, but keeps the sums at the
scale of beta * M rather than of |log(beta * w)|.

With C_k = a_1 + ... + a_k the test a_k > level_k reads

    key_k = C_k - k * a_k  <  beta * M,

and key_k is nondecreasing in k (key_{k+1} - key_k = k * (a_k - a_{k+1})).
The rates sum to M, so a_1 - log nu <= sum over the active channels of
(a_i - log nu) = beta * M: log nu >= a_1 - beta * M, and only a channel
with w_i > max(w) * exp(-beta * M) can be active.  ``_water_fill_sparse``
sorts only those candidates, in a large community a handful of each
consumer's N + 2 channels.  They are each row's top weights, so the
sorted prefix a_1, a_2, ... up to the last candidate, its sums C_k and
its levels are the floats a full sort gives; past it a full sort's test
fails (key_k >= a_1 - a_k > beta * M), so both find the same active set
and the same log nu.

The active count is also a binary search on key_k.  ``rates_with`` finds
channel z's rate once its weight alone is replaced by w', for a batch of
such questions, from one sort of the weights, its prefix sums, key_k and
key_up_k = C_k - (k + 1) * a_k.  Its logs are centred as the water fill's
are, on the largest weight.  Let a' be the log of w' so centred and count
z as active.  The channel at sorted position
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

_TINY = np.finfo(float).tiny  # the smallest normal float
_LEAST = np.finfo(float).smallest_subnormal  # the smallest positive float


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


def _candidate_floor(top: np.ndarray, bm: float) -> np.ndarray:
    """The least weight that can be active at beta * M = bm in a row whose
    largest weight is top: max(w) * exp(-bm) (module docstring), lowered by
    a relative 1e-9 so that rounding never drops a channel, and never below
    the smallest positive float.  The floor never exceeds a positive top,
    so each row's top stays a candidate, even a subnormal one, and a zero
    weight never is one, even once top * exp(-bm) underflows to 0.  A
    caller that knows a bound on some of a row's weights can tell from it,
    before building the row, that none of them is a candidate."""
    return np.maximum(top * (math.exp(-bm) * (1.0 - 1e-9)), _LEAST)


def _candidates(W: np.ndarray, top: np.ndarray, bm: float) -> np.ndarray:
    """Mask of the channels of each row of W that can be active at
    beta * M = bm, top (n,) holding each row's max(w): the weights at or
    above the row's ``_candidate_floor``."""
    return W >= _candidate_floor(top, bm)[:, None]


def _water_fill_sparse(W: np.ndarray, budget: float, beta: float
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed form of the module docstring, row by row, on each row's
    candidates only; returns (flat, rates, log nu): the ascending flat
    indices into W of every row's candidates (``_candidates``), their
    rates, zero for a candidate found inactive, and each row's log nu.
    Every other channel's rate is zero.

    Every row must hold a positive weight.  The candidates are gathered
    into an (n, K) table, K the largest candidate count, padded with -inf,
    the log of a zero weight, which sorts last and never becomes active.

    The logs are centred on the row's top, a_i - a_1 = log(w_i / max(w)),
    so the top channel's is exactly 0 and every candidate's lies within
    about beta * M of it (``_centred_logs``).  The level and the rates are
    then sums of numbers of the size of beta * M, and the rates keep the
    budget however small beta * M is against |log(beta * w)|; a row with
    one active channel gives it exactly M.  An exact power-of-two scale of
    a row leaves every w_i / max(w), and so its split, as it is, and log
    nu = level + (log beta + log max(w)) needs no product beta * max(w):
    a row of tiny weights, even subnormal ones, is solved as it stands.
    """
    n, N = W.shape
    top = W.max(axis=1)
    bm = beta * budget
    flat = np.flatnonzero(_candidates(W, top, bm))
    count = np.bincount(flat // N, minlength=n)
    # row i's candidates, in channel order, fill the first count[i] slots
    # of its table row
    slots = np.arange(count.max()) < count[:, None]
    K = slots.shape[1]
    a = np.full((n, K), -np.inf)
    a[slots] = _centred_logs(W.take(flat), top[flat // N])
    desc = np.sort(a, axis=1)[:, ::-1]
    level = np.cumsum(desc, axis=1)
    level -= bm
    level /= np.arange(1, K + 1)
    k_star = K - 1 - np.argmax((desc > level)[:, ::-1], axis=1)
    level = level[np.arange(n), k_star]
    a -= level[:, None]
    np.maximum(a, 0.0, out=a)
    a /= bm
    a *= budget
    return flat, a[slots], level + (math.log(beta) + np.log(top))


def _centred_logs(w: np.ndarray, top: np.ndarray) -> np.ndarray:
    """log(w / top) for weights 0 <= w <= top, top > 0: exact 0 at w = top,
    and off by at most the ratio's rounding, 1.1e-16, where that ratio is
    a normal float.  Below it, where only beta * M > 708 can
    make the channel active, log w - log top; a zero weight gives -inf."""
    c = w / top
    deep = c < _TINY
    if not deep.any():
        return np.log(c, out=c)
    with np.errstate(divide="ignore"):
        np.log(c, out=c)
        c[deep] = np.log(w[deep]) - np.log(top[deep])
    return c


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
    flat, active, log_nu = _water_fill_sparse(w[None, :], ch.budget, d.beta)
    rates = np.zeros(w.size)
    rates[flat] = active
    log_nu = float(log_nu[0])
    return AllocationSolution(rates=rates, multiplier=float(np.exp(log_nu)),
                              objective=_objective(rates, w, d.beta),
                              log_multiplier=log_nu)


def rates_with(weights: np.ndarray, budget: float, beta: float,
               z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rate of channel z[j] in the optimal split of budget over weights once
    its weight alone is w[j], for every j; the other weights stay as they
    are.  One sort of the weights answers every j by binary searches
    (module docstring), and nothing is kept between calls.

    The logs are centred on the largest weight, as the water fill centres
    each row's (``_centred_logs``), so the sums stay at the size of
    beta * M, and tiny weights need no scaling.  The centre does not depend
    on the replacements, so each answer depends on its own question only.
    When a replacement leaves no positive weight, the rate is the uniform
    split, the fallback the influencer takes when nobody's attention is
    worth anything to it (``bestresponse.influencer_br_dense``).
    """
    n = weights.size
    top = weights.max()
    if top == 0.0:  # z's new weight is the only positive one, or none is
        return np.where(w > 0.0, budget, budget / n)
    logs = _centred_logs(weights, np.full(n, top))
    order = np.argsort(-logs)  # descending, zero weights (log -inf) last
    s = logs[order]
    f = int(np.count_nonzero(weights > 0.0))
    # prefix sums held at C_f past the f positive weights, so that both keys
    # are +inf there
    C = np.cumsum(np.concatenate(([0.0], s[:f], np.zeros(n - f))))
    key = C[1:] - np.arange(1, n + 1) * s
    key_up = key - s
    # each question: z's sorted position p, its old log sp, and its new log
    # a from the ratio of the smaller to the larger of w and top, which
    # cannot overflow; a zero weight's answer is set below
    p = np.empty(n, dtype=np.intp)
    p[order] = np.arange(n)
    p = p[z]
    sp = s[p]
    zero = w <= 0.0
    a = _centred_logs(np.minimum(w, top), np.maximum(w, top))
    a = np.where(zero, 0.0, np.where(w > top, -a, a))
    bm = beta * budget
    t = bm - a
    # m other channels active with z counted in: those ahead of z's old
    # position by key_up, then any behind it by key (module docstring)
    ahead = np.searchsorted(key_up, t)
    behind = np.searchsorted(key, t + sp)
    m = np.where(behind > p + 1, behind - 1, np.minimum(ahead, p))
    S = np.where(m <= p, C[m], C[m + 1] - sp)
    rate = np.maximum((bm + m * a - S) / ((m + 1) * bm), 0.0) * budget
    rate[zero] = 0.0
    rate[zero & (f - np.isfinite(sp) == 0)] = budget / n
    return rate
