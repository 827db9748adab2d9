"""Equilibrium computation, certification, and the price of influence.

``run_dynamics`` iterates best responses (influencer, then every consumer,
then every producer) from one or more starting points.  In the perfect and
proxy regimes the social welfare is an exact potential, so every round is
a weak improvement and the trace is nondecreasing; convergence there means
the allocation stopped moving and the potential stalled.  The imperfect
regime is a plain fixed-point iteration with no monotone quantity -- rounds
are capped and the iterate with the smallest certificate residual is kept.
Each round returns a new ``MarketAllocation``; states are read-only, so a
run never writes into an array it was handed, and ``price_of_influence``
starts one perfect run from the imperfect result itself.
Of several runs, ``run_dynamics`` and ``price_of_influence`` report the one
``_best`` picks: the certified run with the largest welfare, or, when none
certifies, the run with the smallest certificate residual.

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
from typing import Callable, Sequence

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
    InfluencerAllocation,
    MarketAllocation,
    MarketConfig,
    influencer_followed_match,
    influencer_relayed_match,
    match_matrix,
    social_welfare,
)

# Default certificate tolerances: absolute for the rate conditions, relative
# for the producer grid gaps (`a_...`).
TOL = 1e-6
PRODUCER_TOL = 1e-3


@dataclass(frozen=True)
class DynamicsParams:
    """Iteration controls.  A run stops once no rate moves by 1e-8 * M in a
    round and, in perfect/proxy mode, the potential moves by at most
    1e-10 * |potential|."""

    max_rounds: int = 500
    restarts: int = 2

    def __post_init__(self):
        if self.max_rounds < 1:
            raise InvalidInputError("max_rounds must be at least 1")
        if self.restarts < 0:
            raise InvalidInputError("restarts must be nonnegative")


def _tol_ratio(name: str, value: float, tol: float, producer_tol: float) -> float:
    """Residual-to-tolerance ratio: `a_...` residuals are compared against
    producer_tol, the rest against tol."""
    t = producer_tol if name.startswith("a_") else tol
    if t > 0.0:
        return value / t
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
                   key=lambda kv: _tol_ratio(*kv, self.tol, self.producer_tol))


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


def default_init(cfg: MarketConfig, mode: GameMode) -> MarketAllocation:
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
    return MarketAllocation(lam, mu_i, direct, InfluencerAllocation(mu_infl),
                            cfg.interest_array())


def random_init(cfg: MarketConfig, mode: GameMode, rng: np.random.Generator
                ) -> MarketAllocation:
    n = cfg.n
    direct = np.zeros((n, n))
    split = rng.dirichlet(np.ones(2 if mode is GameMode.PROXY else n + 1), size=n) * cfg.m
    lam, mu_i = split[:, 0].copy(), split[:, 1].copy()
    if mode is not GameMode.PROXY:
        # row-major off-diagonal order: row y's entries skip column y
        direct[~np.eye(n, dtype=bool)] = split[:, 2:].ravel()
    mu_infl = rng.dirichlet(np.ones(n)) * cfg.m_infl
    X = rng.uniform(0.0, 1.0, (n, cfg.dim))
    return MarketAllocation(lam, mu_i, direct, InfluencerAllocation(mu_infl), X)


def _sup_change(a: MarketAllocation, b: MarketAllocation) -> float:
    return max(float(np.max(np.abs(getattr(a, f) - getattr(b, f))))
               for f in ("lam", "mu_i", "direct", "mu_infl", "X"))


def _one_round(state: MarketAllocation, cfg: MarketConfig, mode: GameMode,
               grid: TopicGrid, B: np.ndarray) -> tuple[MarketAllocation, set[int]]:
    """One full best-response round -- the influencer, then the consumers as
    one block, then the producers as one block.  Returns the next state and
    the indices of producers whose topic objective was degenerate this round.
    B is ``match_matrix(state.X, cfg)``."""
    mu_infl = influencer_br_dense(state.mu_i, B, cfg)
    lam, mu_i, direct = consumers_br_dense(discount(mu_infl, cfg.delay), B, cfg, mode)

    if mode is GameMode.IMPERFECT:
        X = state.X.copy()
        degenerate = imperfect_producer_round(mu_i, X, grid, cfg, B)
    else:
        W = support_weights(mu_i, mu_infl, direct, cfg)
        block = producer_block(W, grid, cfg, prev=state.X)
        X, degenerate = block.topics, block.degenerate
    return (MarketAllocation(lam, mu_i, direct, InfluencerAllocation(mu_infl), X),
            set(np.flatnonzero(degenerate).tolist()))


def check_nash(omega: MarketAllocation, cfg: MarketConfig, mode: GameMode,
               tol: float = TOL, producer_tol: float = PRODUCER_TOL,
               search: TopicSearchParams | None = None) -> NashCertificate:
    """First-order equilibrium certificate for the requested regime."""
    if tol < 0.0 or producer_tol < 0.0:
        raise InvalidInputError("tolerances must be nonnegative")
    omega.validate(cfg)
    return _certify(omega, cfg, mode, TopicGrid(cfg, search or TopicSearchParams()),
                    tol, producer_tol)


def _certify(omega: MarketAllocation, cfg: MarketConfig, mode: GameMode,
             grid: TopicGrid, tol: float = TOL, producer_tol: float = PRODUCER_TOL
             ) -> NashCertificate:
    res = _residuals(omega, cfg, mode, grid)
    max_ratio = max(_tol_ratio(name, value, tol, producer_tol)
                    for name, value in res.items())
    return NashCertificate(mode=mode, residuals=res, tol=tol,
                           producer_tol=producer_tol, max_residual=max_ratio,
                           holds=max_ratio <= 1.0)


def _residuals(omega: MarketAllocation, cfg: MarketConfig, mode: GameMode,
               grid: TopicGrid) -> dict[str, float]:
    n = cfg.n
    d = cfg.delay
    B = match_matrix(omega.X, cfg)
    d_i = discount(omega.mu_i, d)
    d_infl = discount(omega.mu_infl, d)

    # marginal utilities of the three channel kinds, per consumer
    S = influencer_relayed_match(d_infl, B)           # follower value ahead of mu_i
    m_out = discount_deriv(omega.lam, d) * cfg.r_0 * cfg.b_0
    m_infl = discount_deriv(omega.mu_i, d) * cfg.r_p * S
    m_dir = discount_deriv(omega.direct, d) * cfg.r_p * B.T
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
        res["a_producer_topic"] = _imperfect_producer_gap(omega, cfg, grid, B)
    else:
        res["a_producer_topic"] = _support_producer_gap(omega, cfg, grid, B)

    # --- budgets ---
    spent = omega.lam + omega.mu_i + omega.direct.sum(axis=1)
    infl_budget = abs(float(omega.mu_infl.sum()) - cfg.m_infl)
    if mode is GameMode.PROXY:
        res["b_direct_rates_zero"] = float(omega.direct.sum())
        res["c_consumer_budget"] = float(np.max(np.abs(omega.lam + omega.mu_i - cfg.m)))
    else:
        res["b_consumer_budget"] = float(np.max(np.abs(spent - cfg.m)))
    res["f_influencer_budget"] = infl_budget

    # --- consumer channel marginals (KKT comparisons, gated on activity) ---
    if mode is GameMode.PROXY:
        res["d_outside_optimal"] = gated_max(omega.lam > gate_m,
                                             np.maximum(0.0, m_infl - m_out))
        res["e_influencer_optimal"] = gated_max(omega.mu_i > gate_m,
                                                np.maximum(0.0, m_out - m_infl))
    else:
        best_rival_out = np.maximum(m_infl, m_dir_best)
        res["c_outside_optimal"] = gated_max(omega.lam > gate_m,
                                             np.maximum(0.0, best_rival_out - m_out))
        best_rival_infl = np.maximum(m_out, m_dir_best)
        res["d_influencer_optimal"] = gated_max(omega.mu_i > gate_m,
                                                np.maximum(0.0, best_rival_infl - m_infl))
        rival = np.maximum(np.maximum(m_out, m_infl), m_dir_best)
        shortfall = np.maximum(0.0, rival[:, None] - m_dir)
        res["e_direct_optimal"] = gated_max(omega.direct > gate_m, shortfall)

    # --- influencer allocation marginals ---
    gamma = cfg.r_p * influencer_followed_match(d_i, B)
    g_marginal = discount_deriv(omega.mu_infl, d) * gamma
    best = float(np.max(g_marginal)) if n else 0.0
    res["g_influencer_allocation"] = gated_max(omega.mu_infl > gate_infl,
                                               np.maximum(0.0, best - g_marginal))
    return res


def _relative_gap(best: np.ndarray, current: np.ndarray) -> float:
    """Largest max(0, best - current) / best over producers with best > 0."""
    ok = best > 0.0
    if not np.any(ok):
        return 0.0
    return float(np.max(np.maximum(0.0, best[ok] - current[ok]) / best[ok]))


def _support_producer_gap(omega: MarketAllocation, cfg: MarketConfig, grid: TopicGrid,
                          B: np.ndarray) -> float:
    """Perfect/proxy condition (a): relative grid gap of each producer's support."""
    W = support_weights(omega.mu_i, omega.mu_infl, omega.direct, cfg)
    best = grid_best(W, grid)
    # B[z] already holds g(d(x(z), z)) * f(d(x(z), y)) at the current topics
    return _relative_gap(best, np.einsum("zy,yz->z", B, W))


def _imperfect_producer_gap(omega: MarketAllocation, cfg: MarketConfig,
                            grid: TopicGrid, B: np.ndarray) -> float:
    """Imperfect condition (a): for each producer, delta of the influencer's
    re-solved rate at the best grid topic vs. at the current topic.  That
    rate grows with z's match mass, so row z of one batch solve puts z at its
    best grid mass; the last row is the influencer at the current topics."""
    if float(np.sum(omega.mu_i)) == 0.0:
        return 0.0  # uniform fallback: every topic scores the same
    n = cfg.n
    d_i = discount(omega.mu_i, cfg.delay)
    rows = np.tile(cfg.r_p * influencer_followed_match(d_i, B), (n + 1, 1))
    diag = np.arange(n)
    rows[diag, diag] = cfg.r_p * grid_best(follower_weights(d_i), grid)
    rates, _ = water_fill_batch(rows, cfg.m_infl, cfg.delay)
    return _relative_gap(discount(rates[diag, diag], cfg.delay),
                         discount(rates[n], cfg.delay))


def run_dynamics_all(cfg: MarketConfig, mode: GameMode,
                     params: DynamicsParams | None = None,
                     search: TopicSearchParams | None = None,
                     extra_inits: Sequence[MarketAllocation] = ()
                     ) -> list[EquilibriumResult]:
    """Run the dynamics once per starting point and return every result.

    Starting points are: the uniform default, then `params.restarts` seeded
    random allocations, then any `extra_inits`.  Each start is built when
    its run begins, so no start outlives its run's first round.
    """
    params = params or DynamicsParams()
    grid = TopicGrid(cfg, search or TopicSearchParams())
    for omega in extra_inits:
        omega.validate(cfg)

    starts: list[Callable[[], MarketAllocation]] = [lambda: default_init(cfg, mode)]
    starts += [lambda k=k: random_init(cfg, mode, np.random.default_rng([cfg.seed, 1000 + k]))
               for k in range(params.restarts)]
    starts += [lambda omega=omega: omega for omega in extra_inits]
    return [_run_single(start, cfg, mode, params.max_rounds, grid) for start in starts]


def _run_single(start: Callable[[], MarketAllocation], cfg: MarketConfig,
                mode: GameMode, max_rounds: int, grid: TopicGrid) -> EquilibriumResult:
    rate_tol = 1e-8 * cfg.m
    cert_window = 1e-3 * max(cfg.m, cfg.m_infl)

    state = start()
    B = match_matrix(state.X, cfg)
    phi = social_welfare(state, cfg, B)
    trace = [phi]
    degenerate: set[int] = set()
    converged = False
    rounds_used = 0
    best_cert: NashCertificate | None = None
    best_state: MarketAllocation | None = None
    best_phi = phi

    for rnd in range(1, max_rounds + 1):
        new, degenerate = _one_round(state, cfg, mode, grid, B)
        rounds_used = rnd
        change = _sup_change(state, new)
        state = new  # drops the previous state

        B = match_matrix(state.X, cfg)
        new_phi = social_welfare(state, cfg, B)
        dphi = abs(new_phi - phi)
        phi = new_phi
        trace.append(phi)

        if mode is GameMode.IMPERFECT:
            near_cap = rnd >= max_rounds - 25
            if change < cert_window or near_cap:
                cert = _certify(state, cfg, mode, grid)
                if best_cert is None or cert.max_residual < best_cert.max_residual:
                    best_cert, best_state, best_phi = cert, state, phi
            if change < rate_tol:
                converged = True
                break
        elif change < rate_tol and dphi <= 1e-10 * abs(phi):
            converged = True
            break

    del B  # dead past the last round: free it before the certificate's tables
    if mode is GameMode.IMPERFECT and best_cert is not None:
        cert, final, welfare = best_cert, best_state, best_phi
    else:
        final, welfare = state, phi  # phi is already the welfare at state
        cert = _certify(final, cfg, mode, grid)
    return EquilibriumResult(
        omega=final,
        welfare=welfare,
        potential_trace=tuple(trace),
        certificate=cert,
        rounds_used=rounds_used,
        converged=converged,
        degenerate_producers=frozenset(degenerate),
    )


def run_dynamics(cfg: MarketConfig, mode: GameMode,
                 params: DynamicsParams | None = None,
                 search: TopicSearchParams | None = None) -> EquilibriumResult:
    """Best-response dynamics with restarts; returns the run `_best` picks."""
    return _best(run_dynamics_all(cfg, mode, params=params, search=search))


def _best(results: Sequence[EquilibriumResult]) -> EquilibriumResult:
    """The reported run: the certified run with the largest welfare; if none
    certifies, the run with the smallest certificate residual (honest
    failure)."""
    certified = [r for r in results if r.certificate.holds]
    if certified:
        return max(certified, key=lambda r: r.welfare)
    return min(results, key=lambda r: r.certificate.max_residual)


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

    Both regimes report the run `_best` picks.  The imperfect solve runs
    first and its allocation seeds one extra perfect-mode start; since
    perfect-mode dynamics never lower the potential, the gap cannot go
    meaningfully negative while a perfect run certifies.  A gap below -1e-9
    is therefore a solver failure and raises.
    """
    imperfect = _best(
        run_dynamics_all(cfg, GameMode.IMPERFECT, params=params, search=search))
    perfect = _best(
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
                             tol: float = TOL, producer_tol: float = PRODUCER_TOL
                             ) -> ProxyEquivalenceReport:
    """Solve all three regimes and cross-certify against the proxy conditions."""
    perfect = run_dynamics(cfg, GameMode.PERFECT, params=params, search=search)
    imperfect = run_dynamics(cfg, GameMode.IMPERFECT, params=params, search=search)
    proxy = run_dynamics(cfg, GameMode.PROXY, params=params, search=search)

    return ProxyEquivalenceReport(
        perfect=perfect, imperfect=imperfect, proxy=proxy,
        perfect_under_proxy=check_nash(perfect.omega, cfg, GameMode.PROXY,
                                       tol=tol, producer_tol=producer_tol, search=search),
        imperfect_under_proxy=check_nash(imperfect.omega, cfg, GameMode.PROXY,
                                         tol=tol, producer_tol=producer_tol, search=search),
        direct_rate_mass_perfect=float(perfect.omega.direct.sum()),
        direct_rate_mass_imperfect=float(imperfect.omega.direct.sum()),
    )
