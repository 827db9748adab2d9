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
and one prefix sum find it -- the same trick as the simplex projection in
``project_budget_box`` (Duchi et al., ICML 2008).  ``water_fill`` (one
channel set) and ``water_fill_batch`` (one solve per row) share that
solver.  ``gradient_oracle`` solves the same program by an unrelated route
-- accelerated projected gradient ascent in the primal -- and exists so the
two can certify each other; ``gradient_oracle_batch`` runs it on many
instances at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


def project_budget_box(v: np.ndarray, budget) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) <= budget}, row by row.

    v is one vector or a (k, n) stack; budget is a scalar or one per row.
    """
    v = np.asarray(v, dtype=float)
    rows = v.reshape(-1, v.shape[-1])
    budget = np.broadcast_to(np.asarray(budget, dtype=float), rows.shape[:1])
    clipped = np.maximum(rows, 0.0)
    # rows over budget go onto the simplex {x >= 0, sum(x) = budget}: sort,
    # find the largest prefix whose shifted values stay positive, shift, clip
    u = np.sort(rows, axis=1)[:, ::-1]
    excess = np.cumsum(u, axis=1)
    excess -= budget[:, None]
    n = rows.shape[1]
    rho = n - 1 - np.argmax((u - excess / np.arange(1, n + 1) > 0.0)[:, ::-1], axis=1)
    theta = excess[np.arange(rows.shape[0]), rho] / (rho + 1.0)
    over = clipped.sum(axis=1) > budget
    out = np.where(over[:, None], np.maximum(rows - theta[:, None], 0.0), clipped)
    return out.reshape(v.shape)


def gradient_oracle(ch: WeightedChannels, d: DelayParams,
                    iters: int = 4000) -> AllocationSolution:
    """Independent check on ``water_fill``: accelerated projected gradient ascent.

    Runs Nesterov-accelerated ascent with fixed step 1/L (L = beta^2 * max w,
    the gradient's Lipschitz constant) from the zero allocation, keeping the
    best feasible iterate seen.  Shares no machinery with the closed form,
    so agreement between the two certifies both.  The reported multiplier is
    the largest marginal value w_i * delta'(mu_i) on active channels.
    """
    return gradient_oracle_batch([(ch, d)], iters)[0]


def gradient_oracle_batch(instances: Sequence[tuple[WeightedChannels, DelayParams]],
                          iters: int = 4000) -> list[AllocationSolution]:
    """``gradient_oracle`` on many (channels, delay) instances in lockstep.

    The weights are stacked into one (k, n) array, padded with zero weights;
    each row takes its own step, budget and beta.  A padded channel's
    gradient is exactly 0, so its rate stays exactly 0 and the row's
    iterates are those of its own unpadded run, up to rounding.
    """
    if not instances:
        raise InvalidInputError("expected at least one instance")
    W = np.zeros((len(instances), max(ch.n for ch, _ in instances)))
    for row, (ch, _) in zip(W, instances):
        if not np.any(ch.weights > 0.0):
            raise DegenerateWeightsError("all channel weights are zero")
        row[:ch.n] = ch.weights
    budget = np.array([ch.budget for ch, _ in instances])
    beta = np.array([[d.beta] for _, d in instances])
    step = 1.0 / (beta * beta * np.max(W, axis=1, keepdims=True))
    w_beta = W * beta

    def objective(x):
        return np.einsum("ij,ij->i", W, -np.expm1(-beta * x))

    x = np.zeros_like(W)
    y = x.copy()
    best_x, best_f = x, objective(x)
    t = 1.0
    for _ in range(iters):
        grad = w_beta * np.exp(-beta * y)  # y may dip outside the box; exp is fine
        x_new = project_budget_box(y + step * grad, budget)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
        f = objective(x)
        up = f > best_f
        best_x, best_f = np.where(up[:, None], x, best_x), np.where(up, f, best_f)

    solutions = []
    for (ch, d), rates, obj in zip(instances, best_x, best_f):
        rates = rates[:ch.n].copy()
        active = rates > 1e-12 * ch.budget
        grad = ch.weights * d.beta * np.exp(-d.beta * rates)
        nu = float(np.max(grad[active])) if np.any(active) else d.beta * float(np.max(ch.weights))
        solutions.append(AllocationSolution(
            rates=rates, multiplier=nu, objective=float(obj),
            log_multiplier=math.log(nu) if nu > 0.0 else -math.inf))
    return solutions
