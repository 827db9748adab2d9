"""Equilibrium computation, certification, and the price of influence.

``run_dynamics`` iterates best responses (influencer, then every consumer,
then every producer) from one or more starting points.  In the perfect and
proxy regimes the social welfare is an exact potential, so every round is
a weak improvement and the trace is nondecreasing; convergence there means
the allocation stopped moving and the potential stalled.  The imperfect
regime is a plain fixed-point iteration with no monotone quantity -- rounds
are capped and the iterate with the smallest certificate residual is kept.

``check_nash`` evaluates the first-order equilibrium conditions of the
requested regime on any admissible allocation and returns one named
residual per condition.  Budget and marginal-utility conditions are exact
KKT statements; producer topic optimality is certified against the search
grid, whose resolution bounds what any grid-based argmax can promise, so
that residual is relative and carries its own tolerance.

``price_of_influence`` compares the best certified welfare of the perfect
and imperfect regimes; ``proxy_equivalence_report`` checks whether those
equilibria satisfy the proxy regime's conditions outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .allocator import water_fill_batch
from .bestresponse import (
    GameMode,
    TopicGrid,
    TopicSearchParams,
    consumers_br_dense,
    follower_weights,
    grid_best,
    imperfect_producer_round,
    influencer_br_dense,
    producer_block,
    support_weights,
)
from .kernels import InvalidInputError, discount, discount_deriv
from .market import (
    DenseAllocation,
    MarketAllocation,
    MarketConfig,
    allocation_from_dense,
    consumer_utilities,
    dense_from_allocation,
    influencer_followed_match,
    match_matrix,
)


@dataclass(frozen=True)
class DynamicsParams:
    """Iteration controls.  eps_alloc defaults to 1e-8 * M; eps_potential
    defaults to the relative rule 1e-10 * |potential| per round."""

    max_rounds: int = 500
    eps_alloc: float | None = None
    eps_potential: float | None = None
    restarts: int = 2

    def __post_init__(self):
        if self.max_rounds < 1:
            raise InvalidInputError("max_rounds must be at least 1")
        if self.eps_alloc is not None and not self.eps_alloc > 0.0:
            raise InvalidInputError("eps_alloc must be positive when given")
        if self.eps_potential is not None and not self.eps_potential > 0.0:
            raise InvalidInputError("eps_potential must be positive when given")
        if self.restarts < 0:
            raise InvalidInputError("restarts must be nonnegative")


def _tol_ratio(value: float, tol: float) -> float:
    if tol > 0.0:
        return value / tol
    return math.inf if value > 0.0 else 0.0


@dataclass(frozen=True)
class NashCertificate:
    """Named residuals, one per lettered condition of the regime's
    equilibrium characterization.  Rate conditions are absolute residuals
    compared against `tol`; the producer topic condition (`a_...`) is a
    relative grid gap compared against `producer_tol`.  `max_residual` is
    the largest residual-to-tolerance ratio, so `holds == (max_residual <= 1)`.
    """

    mode: GameMode
    residuals: dict[str, float]
    tol: float
    producer_tol: float
    max_residual: float
    holds: bool

    def worst(self) -> tuple[str, float]:
        return max(self.residuals.items(),
                   key=lambda kv: _tol_ratio(kv[1], self._tol_for(kv[0])))

    def _tol_for(self, name: str) -> float:
        return self.producer_tol if name.startswith("a_") else self.tol


@dataclass(frozen=True)
class EquilibriumResult:
    """One dynamics run (or the best of several restarts)."""

    omega: MarketAllocation
    welfare: float
    potential_trace: tuple[float, ...]
    certificate: NashCertificate
    rounds_used: int
    converged: bool
    degenerate_producers: frozenset[int]


def default_init(cfg: MarketConfig, mode: GameMode) -> DenseAllocation:
    """Uniform rates over each agent's channels; every producer starts at
    its own interest."""
    n = cfg.n
    if mode is GameMode.PROXY:
        lam = np.full(n, cfg.m / 2.0)
        mu_i = np.full(n, cfg.m / 2.0)
        direct = np.zeros((n, n))
    else:
        share = cfg.m / (n + 1.0)
        lam = np.full(n, share)
        mu_i = np.full(n, share)
        direct = np.full((n, n), share)
        np.fill_diagonal(direct, 0.0)
    mu_infl = np.full(n, cfg.m_infl / n)
    return DenseAllocation(lam, mu_i, direct, mu_infl, cfg.interest_array().copy())


def random_init(cfg: MarketConfig, mode: GameMode, rng: np.random.Generator
                ) -> DenseAllocation:
    n = cfg.n
    direct = np.zeros((n, n))
    if mode is GameMode.PROXY:
        split = rng.dirichlet(np.ones(2), size=n) * cfg.m
        lam, mu_i = split[:, 0].copy(), split[:, 1].copy()
    else:
        split = rng.dirichlet(np.ones(n + 1), size=n) * cfg.m
        lam, mu_i = split[:, 0].copy(), split[:, 1].copy()
        for y in range(n):
            direct[y, :y] = split[y, 2:y + 2]
            direct[y, y + 1:] = split[y, y + 2:]
    mu_infl = rng.dirichlet(np.ones(n)) * cfg.m_infl
    X = rng.uniform(0.0, 1.0, (n, cfg.dim))
    return DenseAllocation(lam, mu_i, direct, mu_infl, X)


def _sup_change(a: DenseAllocation, b: DenseAllocation) -> float:
    return max(float(np.max(np.abs(u - v))) for u, v in zip(a, b))


def _copy(d: DenseAllocation) -> DenseAllocation:
    return DenseAllocation(*(x.copy() for x in d))


def _one_round(state: DenseAllocation, cfg: MarketConfig, mode: GameMode,
               grid: TopicGrid, B: np.ndarray) -> set[int]:
    """Apply one full best-response round in place -- the influencer, then
    the consumers as one block, then the producers as one block; returns the
    indices of producers whose topic objective was degenerate this round.
    B is ``match_matrix(state.X, cfg)`` on entry."""
    state.mu_infl[:] = influencer_br_dense(state.mu_i, B, cfg)
    consumers_br_dense(state, discount(state.mu_infl, cfg.delay), B, cfg, mode)

    if mode is GameMode.IMPERFECT:
        degenerate = imperfect_producer_round(state.mu_i, state.X, grid, cfg, B)
    else:
        W = support_weights(state.mu_i, state.mu_infl, state.direct, cfg)
        block = producer_block(W, grid, cfg, prev=state.X)
        state.X[:] = block.topics
        degenerate = block.degenerate
    return set(np.flatnonzero(degenerate).tolist())


def check_nash(omega: MarketAllocation, cfg: MarketConfig, mode: GameMode,
               tol: float = 1e-6, producer_tol: float = 1e-3,
               search: TopicSearchParams | None = None,
               _grid: TopicGrid | None = None,
               _dense: DenseAllocation | None = None) -> NashCertificate:
    """First-order equilibrium certificate for the requested regime."""
    if tol < 0.0 or producer_tol < 0.0:
        raise InvalidInputError("tolerances must be nonnegative")
    if _dense is None:
        omega.validate(cfg)
        dense = dense_from_allocation(omega, cfg)
    else:
        dense = _dense
    grid = _grid if _grid is not None else TopicGrid(cfg, search or TopicSearchParams())
    res = _residuals(dense, cfg, mode, grid)
    max_ratio = max(
        _tol_ratio(value, producer_tol if name.startswith("a_") else tol)
        for name, value in res.items())
    return NashCertificate(mode=mode, residuals=res, tol=tol,
                           producer_tol=producer_tol, max_residual=max_ratio,
                           holds=max_ratio <= 1.0)


def _residuals(dense: DenseAllocation, cfg: MarketConfig, mode: GameMode,
               grid: TopicGrid) -> dict[str, float]:
    n = cfg.n
    d = cfg.delay
    B = match_matrix(dense.X, cfg)
    d_i = discount(dense.mu_i, d)
    d_infl = discount(dense.mu_infl, d)

    # marginal utilities of the three channel kinds, per consumer
    S = B.T @ d_infl - np.diagonal(B) * d_infl        # follower value ahead of mu_i
    m_out = discount_deriv(dense.lam, d) * cfg.r_0 * cfg.b_0
    m_infl = discount_deriv(dense.mu_i, d) * cfg.r_p * S
    m_dir = discount_deriv(dense.direct, d) * cfg.r_p * B.T
    np.fill_diagonal(m_dir, -np.inf)                  # no self channel
    m_dir_best = np.max(m_dir, axis=1)

    gate_m = 1e-12 * cfg.m
    gate_infl = 1e-12 * cfg.m_infl

    def gated_max(gate_mask, shortfall):
        vals = shortfall[gate_mask]
        return float(np.max(vals)) if vals.size else 0.0

    res: dict[str, float] = {}

    # --- producer topic optimality, certified on the grid ---
    if mode is GameMode.IMPERFECT:
        res["a_producer_topic"] = _imperfect_producer_gap(dense, cfg, grid, B)
    else:
        res["a_producer_topic"] = _support_producer_gap(dense, cfg, grid, B)

    # --- budgets ---
    spent = dense.lam + dense.mu_i + dense.direct.sum(axis=1)
    infl_budget = abs(float(dense.mu_infl.sum()) - cfg.m_infl)
    if mode is GameMode.PROXY:
        res["b_direct_rates_zero"] = float(dense.direct.sum())
        res["c_consumer_budget"] = float(np.max(np.abs(dense.lam + dense.mu_i - cfg.m)))
    else:
        res["b_consumer_budget"] = float(np.max(np.abs(spent - cfg.m)))
    res["f_influencer_budget"] = infl_budget

    # --- consumer channel marginals (KKT comparisons, gated on activity) ---
    if mode is GameMode.PROXY:
        res["d_outside_optimal"] = gated_max(dense.lam > gate_m,
                                             np.maximum(0.0, m_infl - m_out))
        res["e_influencer_optimal"] = gated_max(dense.mu_i > gate_m,
                                                np.maximum(0.0, m_out - m_infl))
    else:
        best_rival_out = np.maximum(m_infl, m_dir_best)
        res["c_outside_optimal"] = gated_max(dense.lam > gate_m,
                                             np.maximum(0.0, best_rival_out - m_out))
        best_rival_infl = np.maximum(m_out, m_dir_best)
        res["d_influencer_optimal"] = gated_max(dense.mu_i > gate_m,
                                                np.maximum(0.0, best_rival_infl - m_infl))
        rival = np.maximum(np.maximum(m_out, m_infl), m_dir_best)
        shortfall = np.maximum(0.0, rival[:, None] - m_dir)
        res["e_direct_optimal"] = gated_max(dense.direct > gate_m, shortfall)

    # --- influencer allocation marginals ---
    gamma = cfg.r_p * influencer_followed_match(d_i, B)
    g_marginal = discount_deriv(dense.mu_infl, d) * gamma
    best = float(np.max(g_marginal)) if n else 0.0
    res["g_influencer_allocation"] = gated_max(dense.mu_infl > gate_infl,
                                               np.maximum(0.0, best - g_marginal))
    return res


def _relative_gap(best: np.ndarray, current: np.ndarray) -> float:
    """Largest max(0, best - current) / best over producers with best > 0."""
    ok = best > 0.0
    if not np.any(ok):
        return 0.0
    return float(np.max(np.maximum(0.0, best[ok] - current[ok]) / best[ok]))


def _support_producer_gap(dense: DenseAllocation, cfg: MarketConfig, grid: TopicGrid,
                          B: np.ndarray) -> float:
    """Perfect/proxy condition (a): relative grid gap of each producer's support."""
    W = support_weights(dense.mu_i, dense.mu_infl, dense.direct, cfg)
    best = grid_best(W, grid)
    # B[z] already holds g(d(x(z), z)) * f(d(x(z), y)) at the current topics
    return _relative_gap(best, np.einsum("zy,yz->z", B, W))


def _imperfect_producer_gap(dense: DenseAllocation, cfg: MarketConfig,
                            grid: TopicGrid, B: np.ndarray) -> float:
    """Imperfect condition (a): for each producer, delta of the influencer's
    re-solved rate at the best grid topic vs. at the current topic.  That
    rate grows with z's match mass, so row z of one batch solve puts z at its
    best grid mass; the last row is the influencer at the current topics."""
    if float(np.sum(dense.mu_i)) == 0.0:
        return 0.0  # uniform fallback: every topic scores the same
    n = cfg.n
    d_i = discount(dense.mu_i, cfg.delay)
    rows = np.tile(cfg.r_p * influencer_followed_match(d_i, B), (n + 1, 1))
    diag = np.arange(n)
    rows[diag, diag] = cfg.r_p * grid_best(follower_weights(d_i), grid)
    rates, _ = water_fill_batch(rows, cfg.m_infl, cfg.delay)
    return _relative_gap(discount(rates[diag, diag], cfg.delay),
                         discount(rates[n], cfg.delay))


def run_dynamics_all(cfg: MarketConfig, mode: GameMode,
                     init: MarketAllocation | None = None,
                     params: DynamicsParams | None = None,
                     search: TopicSearchParams | None = None,
                     extra_inits: Sequence[MarketAllocation] = ()
                     ) -> list[EquilibriumResult]:
    """Run the dynamics once per starting point and return every result.

    Starting points are: `init` (or the uniform default), then
    `params.restarts` seeded random allocations, then any `extra_inits`.
    """
    params = params or DynamicsParams()
    search = search or TopicSearchParams()
    grid = TopicGrid(cfg, search)

    starts: list[DenseAllocation] = []
    if init is not None:
        init.validate(cfg)
        starts.append(dense_from_allocation(init, cfg))
    else:
        starts.append(default_init(cfg, mode))
    for k in range(params.restarts):
        rng = np.random.default_rng([cfg.seed, 1000 + k])
        starts.append(random_init(cfg, mode, rng))
    for omega in extra_inits:
        omega.validate(cfg)
        starts.append(dense_from_allocation(omega, cfg))

    return [_run_single(start, cfg, mode, params, grid) for start in starts]


def _run_single(state: DenseAllocation, cfg: MarketConfig, mode: GameMode,
                params: DynamicsParams, grid: TopicGrid) -> EquilibriumResult:
    eps_alloc = params.eps_alloc if params.eps_alloc is not None else 1e-8 * cfg.m
    cert_window = max(1e-3 * max(cfg.m, cfg.m_infl), eps_alloc)

    B = match_matrix(state.X, cfg)
    phi = float(consumer_utilities(state, cfg, B).sum())
    trace = [phi]
    degenerate: set[int] = set()
    converged = False
    rounds_used = 0
    best_cert: NashCertificate | None = None
    best_state: DenseAllocation | None = None
    best_phi = phi

    for rnd in range(1, params.max_rounds + 1):
        before = _copy(state)
        degenerate = _one_round(state, cfg, mode, grid, B)
        rounds_used = rnd
        change = _sup_change(before, state)
        del before

        B = match_matrix(state.X, cfg)
        new_phi = float(consumer_utilities(state, cfg, B).sum())
        dphi = abs(new_phi - phi)
        phi = new_phi
        trace.append(phi)

        if mode is GameMode.IMPERFECT:
            near_cap = rnd >= params.max_rounds - 25
            if change < cert_window or near_cap:
                cert = check_nash(None, cfg, mode, _grid=grid, _dense=state)
                if best_cert is None or cert.max_residual < best_cert.max_residual:
                    best_cert, best_state, best_phi = cert, _copy(state), phi
            if change < eps_alloc:
                converged = True
                break
        else:
            if params.eps_potential is not None:
                pot_ok = dphi <= params.eps_potential
            else:
                pot_ok = dphi <= 1e-10 * abs(phi)
            if change < eps_alloc and pot_ok:
                converged = True
                break

    del B  # dead past the last round: free it before the certificate's tables
    if mode is GameMode.IMPERFECT and best_cert is not None:
        cert, final, welfare = best_cert, best_state, best_phi
    else:
        final, welfare = state, phi  # phi is already the welfare at state
        cert = check_nash(None, cfg, mode, _grid=grid, _dense=final)
    return EquilibriumResult(
        omega=allocation_from_dense(final, cfg),
        welfare=welfare,
        potential_trace=tuple(trace),
        certificate=cert,
        rounds_used=rounds_used,
        converged=converged,
        degenerate_producers=frozenset(degenerate),
    )


def run_dynamics(cfg: MarketConfig, mode: GameMode,
                 init: MarketAllocation | None = None,
                 params: DynamicsParams | None = None,
                 search: TopicSearchParams | None = None) -> EquilibriumResult:
    """Best-response dynamics with restarts; returns the best run.

    Perfect/proxy runs are ranked by welfare (the potential).  Imperfect
    runs that certify are ranked by welfare too; if none certifies, the run
    with the smallest certificate residual is reported (honest failure).
    """
    results = run_dynamics_all(cfg, mode, init=init, params=params, search=search)
    if mode is GameMode.IMPERFECT:
        certified = [r for r in results if r.certificate.holds]
        if certified:
            return max(certified, key=lambda r: r.welfare)
        return min(results, key=lambda r: r.certificate.max_residual)
    return max(results, key=lambda r: r.welfare)


def _best_certified(results: Sequence[EquilibriumResult]) -> EquilibriumResult:
    certified = [r for r in results if r.certificate.holds]
    pool = certified if certified else list(results)
    return max(pool, key=lambda r: r.welfare)


@dataclass(frozen=True)
class PriceOfInfluence:
    """Welfare gap between the perfect and imperfect information regimes."""

    phi_perfect: float
    phi_imperfect: float
    poi: float
    relative_poi: float
    perfect: EquilibriumResult
    imperfect: EquilibriumResult


def price_of_influence(cfg: MarketConfig, params: DynamicsParams | None = None,
                       search: TopicSearchParams | None = None) -> PriceOfInfluence:
    """Welfare of the best certified perfect equilibrium minus imperfect.

    The imperfect solve runs first and its best allocation seeds one extra
    perfect-mode start; since perfect-mode dynamics never lower the
    potential, the reported gap cannot go meaningfully negative.  A gap
    below -1e-9 is therefore a solver failure and raises.
    """
    imperfect = _best_certified(
        run_dynamics_all(cfg, GameMode.IMPERFECT, params=params, search=search))
    perfect = _best_certified(
        run_dynamics_all(cfg, GameMode.PERFECT, params=params, search=search,
                         extra_inits=(imperfect.omega,)))
    poi = perfect.welfare - imperfect.welfare
    if poi < -1e-9:
        raise ArithmeticError(
            f"imperfect welfare exceeds perfect by {-poi:g}; dynamics failed")
    rel = poi / perfect.welfare if perfect.welfare > 0.0 else 0.0
    return PriceOfInfluence(phi_perfect=perfect.welfare,
                            phi_imperfect=imperfect.welfare,
                            poi=poi, relative_poi=rel,
                            perfect=perfect, imperfect=imperfect)


@dataclass(frozen=True)
class ProxyEquivalenceReport:
    """Do the perfect/imperfect equilibria satisfy the proxy conditions?"""

    perfect: EquilibriumResult
    imperfect: EquilibriumResult
    proxy: EquilibriumResult
    perfect_under_proxy: NashCertificate
    imperfect_under_proxy: NashCertificate
    direct_rate_mass_perfect: float
    direct_rate_mass_imperfect: float

    @property
    def perfect_is_proxy(self) -> bool:
        return self.perfect_under_proxy.holds

    @property
    def imperfect_is_proxy(self) -> bool:
        return self.imperfect_under_proxy.holds


def proxy_equivalence_report(cfg: MarketConfig, params: DynamicsParams | None = None,
                             search: TopicSearchParams | None = None,
                             tol: float = 1e-6, producer_tol: float = 1e-3
                             ) -> ProxyEquivalenceReport:
    """Solve all three regimes and cross-certify against the proxy conditions."""
    perfect = run_dynamics(cfg, GameMode.PERFECT, params=params, search=search)
    imperfect = run_dynamics(cfg, GameMode.IMPERFECT, params=params, search=search)
    proxy = run_dynamics(cfg, GameMode.PROXY, params=params, search=search)

    def direct_mass(result: EquilibriumResult) -> float:
        return float(sum(sum(c.mu_direct.values()) for c in result.omega.consumers))

    return ProxyEquivalenceReport(
        perfect=perfect, imperfect=imperfect, proxy=proxy,
        perfect_under_proxy=check_nash(perfect.omega, cfg, GameMode.PROXY,
                                       tol=tol, producer_tol=producer_tol, search=search),
        imperfect_under_proxy=check_nash(imperfect.omega, cfg, GameMode.PROXY,
                                         tol=tol, producer_tol=producer_tol, search=search),
        direct_rate_mass_perfect=direct_mass(perfect),
        direct_rate_mass_imperfect=direct_mass(imperfect),
    )
