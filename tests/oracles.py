"""Independent scalar and iterative references that only the tests use.

- ``distance``, ``interest_prob``, ``production_quality`` and
  ``match_prob``: the topic-space kernels one pair of points at a time, the
  oracles of ``cme.kernels.pairwise_distances`` and ``cme.market.match_matrix``;
- ``deriv_inverse``: the rate at which delta' takes a given value, the
  scalar form of the water-filling rate rule, and ``DomainError``, which
  it raises outside delta's range;
- ``dense_support_weights``, ``dense_weights`` and ``dense_objective``: the
  peer weights W as the (N, N) table, from the rates or from a
  ``cme.market.PeerWeights``, and a producer objective read from a column
  of it, the oracles of every product with ``PeerWeights``;
- ``dense_tables``: the kernel tables P and Q at a stack of candidate
  topics, built whole, the oracle of the producer scan's tiles;
- ``tiled_scan``: the dim-1 producer scan as it was before it read kernel
  sums and pruned candidates, every candidate of every producer valued on
  tiles of kernel tables with ``cme.bestresponse._tile_objective``, the
  reference of ``cme.bestresponse._scan``;
- ``project_budget_box``, ``gradient_oracle`` and ``gradient_oracle_batch``:
  accelerated projected gradient ascent on the allocation program, a route
  that shares no machinery with ``cme.allocator``'s closed form, so
  agreement between the two certifies both;
- ``kkt_residuals``: the named first-order optimality residuals of a
  candidate split;
- ``water_fill_rows``: ``cme.allocator._water_fill_sparse``, the
  engine's closed form on each row's candidates, with its rates scattered
  into full (n, N) rows;
- ``water_fill_rows_sorted``: the closed form with every channel of every
  row sorted, the reference that ``water_fill_rows``, which sorts only the
  channels that can be active, must equal bit for bit;
- ``water_fill_batch``: the engine's closed form, ``water_fill_rows``,
  behind input checks, one independent solve per
  row, the reference for the one-weight-replaced rates of
  ``cme.allocator.rates_with`` and for one influencer re-solve per
  candidate in ``reference_search``;
- ``consumers_dense``: the consumer block as it was before the direct
  rates became sparse, every consumer's full (N + 2)-channel split written
  into an (N, N) table, the reference that
  ``cme.bestresponse.consumers_br_dense`` must equal bit for bit;
- ``relayed_match_blas`` and ``followed_match_blas``: the two match
  reductions as BLAS computes them, ``B.T @ d`` and ``B @ d``, the
  references of ``cme.market.DenseMatch``'s ``einsum`` contraction of B;
- ``producer_support_via_influencer``: the influencer-relayed share of a
  producer's support, the other half of ``cme.market.producer_support``;
- ``run_single_every_round``: the dynamics loop that computes every round,
  the repeated last one too, and settles a run that reaches its round cap
  as the engine does, the reference that ``cme.equilibrium._run_single``,
  which takes a round that can only repeat the one before it as read, must
  equal bit for bit.
"""

import math
from typing import Sequence

import numpy as np

from cme import equilibrium
from cme.allocator import (
    AllocationSolution,
    DegenerateWeightsError,
    WeightedChannels,
    _centred_logs,
    _water_fill_sparse,
)
from cme.bestresponse import _TILE, GameMode, _tile_objective, chunks
from cme.kernels import (
    DelayParams,
    InvalidInputError,
    KernelParams,
    TopicPoint,
    discount,
    pairwise_distances,
)
from cme.market import less_own, match_matrix, match_of


class DomainError(ValueError):
    """A scalar argument lies outside the mathematical domain of the map."""


def distance(x: TopicPoint, y: TopicPoint) -> float:
    """Euclidean distance between two topic points of equal dimension."""
    if x.dim != y.dim:
        raise InvalidInputError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return math.dist(x.coords, y.coords)


def interest_prob(x: TopicPoint, y: TopicPoint, k: KernelParams) -> float:
    """Probability f(d(x, y)) that a consumer with interest y likes topic x."""
    return math.exp(-k.a_f * distance(x, y))


def production_quality(x: TopicPoint, z: TopicPoint, k: KernelParams) -> float:
    """Probability g(d(x, z)) that a producer with interest z does topic x well."""
    return math.exp(-k.a_g * distance(x, z))


def match_prob(x: TopicPoint, z: TopicPoint, y: TopicPoint, k: KernelParams) -> float:
    """Chance that z's content on topic x is good *and* appeals to consumer y."""
    return production_quality(x, z, k) * interest_prob(x, y, k)


def deriv_inverse(b: float, p: DelayParams) -> float:
    """Rate mu with delta'(mu) = b, defined for 0 < b <= beta.

    Values outside the domain are hard errors by design: callers that
    water-fill must themselves clamp channels whose marginal value at
    rate zero is already below the target (those channels get rate 0).
    """
    if not (0.0 < b <= p.beta):
        raise DomainError(
            f"delta' takes values in (0, beta={p.beta}]; no rate has delta'(mu) = {b}"
        )
    return math.log(p.beta / b) / p.beta


def dense_support_weights(mu_i, mu_infl, direct, cfg) -> np.ndarray:
    """W[y, z] = delta(mu_i[y]) * delta(mu_infl[z]) + delta(direct[y, z]),
    zero at z = y, as one (N, N) table."""
    W = discount(direct, cfg.delay)
    W += np.outer(discount(mu_i, cfg.delay), discount(mu_infl, cfg.delay))
    np.fill_diagonal(W, 0.0)
    return W


def dense_weights(weights) -> np.ndarray:
    """The (N, N) table of a ``PeerWeights``: u v^T plus S's table, zero
    on the diagonal."""
    W = np.outer(weights.u, weights.v)
    W += weights.S.toarray()
    np.fill_diagonal(W, 0.0)
    return W


def dense_objective(T, W, z, cfg) -> np.ndarray:
    """Objective of producer z[j] at topic T[j] against column z[j] of the
    table W: g(d(T[j], z[j])) * sum_y f(d(T[j], y)) * W[y, z[j]]."""
    D = pairwise_distances(T, cfg.interest_array())
    q = np.exp(-cfg.kernel.a_g * D[np.arange(len(z)), z])
    return q * np.einsum("jy,yj->j", np.exp(-cfg.kernel.a_f * D), W[:, z])


def dense_tables(points, cfg) -> tuple[np.ndarray, np.ndarray]:
    """(G, N) tables of f and g at each (point, member) pair: the objective
    of every producer at every point is Q * (P @ W) for the table W."""
    D = pairwise_distances(points, cfg.interest_array())
    return np.exp(-cfg.kernel.a_f * D), np.exp(-cfg.kernel.a_g * D)


def tiled_scan(weights, grid, cfg, cols=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Index and objective of the best candidate of each producer of `cols`:
    a running argmax over tiles of at most _TILE (g, N) entries of
    ``dense_tables``, valued by ``_tile_objective`` with the rated rows of
    ``weights.S`` built dense once; strict > keeps the first best
    candidate."""
    k = len(range(*cols.indices(weights.u.size)))
    best, value = np.zeros(k, dtype=np.intp), np.full(k, -np.inf)
    rows = weights.S.rated_rows()
    S = weights.S.dense_rows(rows)
    step = max(1, _TILE // weights.u.size)
    for s in range(0, len(grid.points), step):
        P, Q = dense_tables(grid.points[s:s + step], cfg)
        vals = _tile_objective(weights, rows, S, P, Q, cols)
        top = vals.max(axis=0)
        up = np.flatnonzero(top > value)
        best[up] = s + np.argmax(vals[:, up], axis=0)
        value[up] = top[up]
    return best, value


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


def water_fill_rows(W: np.ndarray, budget: float, beta: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The engine's split of every row of W, (rates, log nu), rates (n, N)."""
    flat, active, log_nu = _water_fill_sparse(W, budget, beta)
    rates = np.zeros(W.size)
    rates[flat] = active
    return rates.reshape(W.shape), log_nu


def water_fill_rows_sorted(W: np.ndarray, budget: float, beta: float
                           ) -> tuple[np.ndarray, np.ndarray]:
    """The closed form with every channel of every row sorted: the
    reference of ``water_fill_rows``, which sorts only the
    channels that can be active and must return the same floats.  Returns
    (rates, log nu); every row must hold a positive weight.  The logs are
    centred on the row's top and log nu is level + (log beta + log max(w)),
    as the engine's, so a row of tiny weights needs no scaling."""
    top = W.max(axis=1)
    bm = beta * budget
    a = _centred_logs(W, np.broadcast_to(top[:, None], W.shape))
    desc = np.sort(a, axis=1)[:, ::-1]
    level = np.cumsum(desc, axis=1)
    level -= bm
    level /= np.arange(1, W.shape[1] + 1)
    k_star = W.shape[1] - 1 - np.argmax((desc > level)[:, ::-1], axis=1)
    level = level[np.arange(W.shape[0]), k_star]
    a -= level[:, None]
    np.maximum(a, 0.0, out=a)
    a /= bm
    a *= budget
    return a, level + (math.log(beta) + np.log(top))


def water_fill_batch(weight_rows: np.ndarray, budget: float, d: DelayParams
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise water filling: one independent solve per row of (k, n)
    weights, by the engine's closed form.  Returns (rates, nu)."""
    W = np.asarray(weight_rows, dtype=float)
    if W.ndim != 2 or W.size == 0:
        raise InvalidInputError("expected a nonempty (k, n) weight matrix")
    if np.any(W < 0.0) or not np.all(np.isfinite(W)):
        raise InvalidInputError("channel weights must be finite and nonnegative")
    if not np.all(np.max(W, axis=1) > 0.0):
        raise DegenerateWeightsError("a row has all channel weights zero")
    rates, log_nu = water_fill_rows(W, budget, d.beta)
    return rates, np.exp(log_nu)


def consumers_dense(delta_infl, match, cfg, mode, solve=water_fill_rows):
    """Every consumer's best response as (lam, mu_i, direct), direct the
    dense (N, N) table, at the match matrix B of ``match``: each chunk of
    consumers' weights (outside source, influencer, one channel per
    producer with the self channel at 0) split by ``solve`` into full rate
    rows.  Proxy consumers hold only the first two channels."""
    n = cfg.n
    relayed = match.relayed(delta_infl)
    lam, mu_i, direct = np.empty(n), np.empty(n), np.zeros((n, n))
    for sl in chunks(n):
        ys = np.arange(n)[sl]
        weights = np.empty((ys.size, 2 if mode is GameMode.PROXY else n + 2))
        weights[:, 0] = cfg.r_0 * cfg.b_0
        weights[:, 1] = cfg.r_p * relayed[ys]
        if mode is not GameMode.PROXY:
            np.multiply(match.columns(ys).T, cfg.r_p, out=weights[:, 2:])
            weights[np.arange(ys.size), 2 + ys] = 0.0
        rates = solve(weights, cfg.m, cfg.delay.beta)[0]
        lam[sl], mu_i[sl] = rates[:, 0], rates[:, 1]
        if mode is not GameMode.PROXY:
            direct[sl] = rates[:, 2:]
    return lam, mu_i, direct


def relayed_match_blas(d_infl, B) -> np.ndarray:
    """``cme.market.DenseMatch.relayed`` with the sums taken by BLAS,
    B.T @ d_infl."""
    return less_own(B.T @ d_infl, np.diagonal(B) * d_infl, lambda y: (B[:, y].T * d_infl, y))


def followed_match_blas(d_i, B) -> np.ndarray:
    """``cme.market.DenseMatch.followed`` with the sums taken by BLAS,
    B @ d_i."""
    return less_own(B @ d_i, np.diagonal(B) * d_i, lambda z: (B[z] * d_i, z))


def producer_support_via_influencer(z, omega, cfg) -> float:
    """The influencer-mediated share of producer z's support."""
    B = match_matrix(omega.X, cfg)
    d = cfg.delay
    terms = B[z] * discount(omega.mu_i, d)
    terms[z] = 0.0
    return cfg.r_p * discount(float(omega.mu_infl[z]), d) * float(terms.sum())


def match_table(match) -> np.ndarray:
    """The (N, N) table a ``cme.market.Match`` stands for: the B a dense
    match holds, or ``match_matrix`` at the topics of a line match."""
    return match.B.copy() if hasattr(match, "B") else match_matrix(match.X, match.cfg)


def run_single_every_round(start, cfg, mode, max_rounds, grid):
    """``cme.equilibrium._run_single`` computing every round with
    ``_one_round`` and ``_sup_change``, the repeated last round too."""
    rate_tol = 1e-8 * cfg.m

    state = start()
    match = match_of(state.X, cfg)
    phi = equilibrium._welfare(state, cfg, match)
    trace = [phi]
    degenerate = set()
    converged = False

    for rounds_used in range(1, max_rounds + 1):
        new, degenerate, new_phi, scanned = equilibrium._one_round(state, cfg, mode, grid, match)
        change = equilibrium._sup_change(state, new)
        state = new
        dphi = abs(new_phi - phi)
        phi = new_phi
        trace.append(phi)
        if change < rate_tol and (mode is GameMode.IMPERFECT or dphi <= 1e-10 * abs(phi)):
            converged = True
            break

    if not converged:
        state, phi, scanned = equilibrium._settle(state, cfg, mode, grid, match, max_rounds)
    return equilibrium.EquilibriumResult(
        omega=state,
        welfare=phi,
        potential_trace=tuple(trace),
        certificate=equilibrium._certify(state, cfg, mode, match, scanned),
        rounds_used=rounds_used,
        converged=converged,
        degenerate_producers=frozenset(degenerate),
    )
