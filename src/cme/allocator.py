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
onto the simplex (Duchi et al., ICML 2008).  ``water_fill`` (one channel
set) and ``water_fill_batch`` (one solve per row) share that solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import DelayParams, InvalidInputError


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
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise InvalidInputError("channel weights must be finite and nonnegative")
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


def _water_fill_rows(W: np.ndarray, budget: float, beta: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Closed form of the module docstring, row by row; returns (rates, log nu).

    Every row must hold a positive weight.  Zero weights enter as
    log(0) = -inf, sort last and never become active.
    """
    a = beta * W
    with np.errstate(divide="ignore"):
        np.log(a, out=a)
    desc = np.sort(a, axis=1)[:, ::-1]
    level = np.cumsum(desc, axis=1)
    level -= beta * budget
    level /= np.arange(1, W.shape[1] + 1)
    k_star = W.shape[1] - 1 - np.argmax((desc > level)[:, ::-1], axis=1)
    log_nu = level[np.arange(W.shape[0]), k_star]
    a -= log_nu[:, None]
    np.maximum(a, 0.0, out=a)
    a /= beta
    return a, log_nu


def water_fill(ch: WeightedChannels, d: DelayParams) -> AllocationSolution:
    """Exact budget split in closed form, no iteration.

    Sorts a_i = log(beta * w_i), reads log nu off the prefix sums for the
    largest consistent active set (Boyd & Vandenberghe, *Convex
    Optimization*, section 5.5.3; derivation in the module docstring) and
    returns mu_i = max(0, a_i - log nu) / beta, so zero-weight channels get
    exactly 0.
    """
    w = ch.weights
    if not np.any(w > 0.0):
        raise DegenerateWeightsError("all channel weights are zero")
    rates, log_nu = _water_fill_rows(w[None, :], ch.budget, d.beta)
    log_nu = float(log_nu[0])
    return AllocationSolution(rates=rates[0], multiplier=float(np.exp(log_nu)),
                              objective=_objective(rates[0], w, d.beta),
                              log_multiplier=log_nu)


def water_fill_batch(weight_rows: np.ndarray, budget: float, d: DelayParams
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise water filling: one independent solve per row of (k, n) weights.

    The same closed form as ``water_fill``, run on all rows at once.  Exists
    because inner re-solves of the influencer's split (one per candidate
    topic) dominate the imperfect-information runtime.  Returns (rates, nu).
    """
    W = np.asarray(weight_rows, dtype=float)
    if W.ndim != 2 or W.size == 0:
        raise InvalidInputError("expected a nonempty (k, n) weight matrix")
    if np.any(W < 0.0) or not np.all(np.isfinite(W)):
        raise InvalidInputError("channel weights must be finite and nonnegative")
    if not np.all(np.max(W, axis=1) > 0.0):
        raise DegenerateWeightsError("a row has all channel weights zero")
    rates, log_nu = _water_fill_rows(W, budget, d.beta)
    return rates, np.exp(log_nu)


def kkt_residuals(sol: AllocationSolution, ch: WeightedChannels,
                  d: DelayParams) -> dict[str, float]:
    """Named first-order optimality residuals of a candidate solution.

    stationarity          |w_i * delta'(mu_i) - nu| on active channels
    dual_feasibility      max(0, w_i * delta'(mu_i) - nu) everywhere
    complementary_slack   mu_i * max(0, nu - w_i * delta'(mu_i))
    primal_feasibility    |sum mu_i - budget| and any negative rate
    """
    w, beta = ch.weights, d.beta
    mu = np.asarray(sol.rates, dtype=float)
    grad = w * beta * np.exp(-beta * mu)
    active = mu > 0.0
    stationarity = float(np.max(np.abs(grad[active] - sol.multiplier))) if np.any(active) else 0.0
    dual = float(np.max(np.maximum(0.0, grad - sol.multiplier)))
    comp = float(np.max(mu * np.maximum(0.0, sol.multiplier - grad)))
    primal = abs(float(np.sum(mu)) - ch.budget) + max(0.0, -float(np.min(mu)))
    return {
        "stationarity": stationarity,
        "dual_feasibility": dual,
        "complementary_slack": comp,
        "primal_feasibility": primal,
    }
