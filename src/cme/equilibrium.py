"""Equilibrium computation, certification, and the price of influence.

``run_dynamics`` iterates best responses (influencer, then every consumer,
then every producer) from one or more starting points.  In the perfect and
proxy regimes the social welfare is an exact potential, so every round is
a weak improvement and the trace is nondecreasing; convergence there means
the allocation stopped moving and the potential stalled.  The imperfect
regime is a plain fixed-point iteration with no monotone quantity, and in
some markets a producer flips between two topics until the round cap.  A
run that reaches the cap, in any regime, settles the influencer's and the
consumers' rates at its last topics (``_settle``), and a run certifies
the state it returns once.
Each round returns a new ``MarketAllocation``; states are read-only, so a
run never writes into an array it was handed, and ``price_of_influence``
starts one perfect run from the imperfect result itself.  A run makes one
match at its start (``market.match_of``) and owns it: each round moves in
it only the producers whose topic changed, and the run certifies a state
from the match and the candidate scan of the round that built it, the
match and scan ``check_nash`` makes afresh for the same state.  A round
reads only the consumers' influencer rates ``mu_i``, the topics ``X`` and
the match, so a round that hands back ``mu_i`` and ``X`` unchanged moved
nobody, and the round after it can only repeat it bit for bit: the same
state, degenerate set, potential and scan, with no change.  The run takes
that repeated round as read rather than computing it, and it is the run's
last (a change of 0 passes every stopping test).  For the same reason no
start holds a direct rate (``default_init``, ``random_init``): a start's
direct share would move no round, only ``potential_trace[0]``, and every
state's ``direct`` is compressed sparse rows (``market.DirectRates``).  So
a run holds no (N, N) table but the dense match's B, and a dim-1 run of
``market._LINE_FROM`` members or more holds none at all.
Of several runs, ``run_dynamics`` and ``price_of_influence`` report the one
``_best`` picks: the first certified run within a relative 1e-12 of the
largest certified welfare, or, when none certifies, the run with the
smallest certificate residual.

``check_nash`` evaluates the first-order equilibrium conditions of the
requested regime on any admissible allocation and returns one named
residual per condition.  Budget and marginal-utility conditions are exact
KKT statements; producer topic optimality is certified against the search
candidates.  In dim 1 those are the breakpoints, on one of which each
objective's maximum over [0, 1] lies (``bestresponse``), so that residual
is an exact relative gap; in dim 2 they are the grid, whose resolution
bounds what any grid-based argmax can promise, so it is a relative grid
gap.  Either way it is relative and carries its own tolerance.

``price_of_influence`` compares the best certified welfare of the perfect
and imperfect regimes; ``proxy_equivalence_report`` checks whether those
equilibria satisfy the proxy regime's conditions outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .allocator import rates_with
from .bestresponse import (
    GameMode,
    TopicGrid,
    TopicSearchParams,
    consumers_br_dense,
    grid_best,
    imperfect_producer_round,
    influencer_br_dense,
    producer_block,
)
from .kernels import InvalidInputError, discount, discount_deriv
from .market import (
    DirectRates,
    InfluencerAllocation,
    MarketAllocation,
    MarketConfig,
    Match,
    PeerWeights,
    _utilities,
    chunks,
    match_of,
    support_weights,
)

# Default certificate tolerances: absolute for the rate conditions, relative
# for the producer topic gaps (`a_...`).
TOL = 1e-6
PRODUCER_TOL = 1e-3


@dataclass(frozen=True)
class DynamicsParams:
    """Iteration controls.  A run stops once no rate moves by 1e-8 * M in a
    round and, in perfect/proxy mode, the potential moves by at most
    1e-10 * |potential|.  A run still moving after ``max_rounds`` rounds
    settles its rates at its last topics in at most ``max_rounds`` passes."""

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
    relative gap over the search candidates compared against `producer_tol`.  `max_residual` is
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
    """Uniform rates, every producer at its own interest.  Outside proxy
    mode each consumer's influencer rate is M / (N + 1), its share of a
    uniform split over its N + 1 channels, and the outside source takes the
    rest: a start holds no direct rate, since a round reads only ``mu_i``
    and ``X`` of the state it is handed."""
    n = cfg.n
    share = cfg.m / 2.0 if mode is GameMode.PROXY else cfg.m / (n + 1.0)
    mu_infl = np.full(n, cfg.m_infl / n)
    return MarketAllocation(np.full(n, cfg.m - share), np.full(n, share), DirectRates.empty(n),
                            InfluencerAllocation(mu_infl), cfg.interest_array())


def random_init(cfg: MarketConfig, mode: GameMode, rng: np.random.Generator
                ) -> MarketAllocation:
    """A random start: each consumer's Dirichlet split over its outside
    source, the influencer and (outside proxy mode) its N - 1 producers,
    with the producers' share folded into the outside source, so the start
    holds no direct rate; random influencer rates and topics."""
    n = cfg.n
    split = rng.dirichlet(np.ones(2 if mode is GameMode.PROXY else n + 1), size=n) * cfg.m
    lam = split[:, 0] + split[:, 2:].sum(axis=1)
    mu_infl = rng.dirichlet(np.ones(n)) * cfg.m_infl
    X = rng.uniform(0.0, 1.0, (n, cfg.dim))
    return MarketAllocation(lam, split[:, 1].copy(), DirectRates.empty(n),
                            InfluencerAllocation(mu_infl), X)


def _sup_change(a: MarketAllocation, b: MarketAllocation) -> float:
    """Largest change of any rate or topic; the direct rates' change is
    read off their stored entries (``DirectRates.max_change``)."""
    change = max(float(np.max(np.abs(getattr(a, f) - getattr(b, f))))
                 for f in ("lam", "mu_i", "mu_infl", "X"))
    return max(change, a.direct.max_change(b.direct))


def _rates(state: MarketAllocation, cfg: MarketConfig, mode: GameMode,
           match: Match) -> MarketAllocation:
    """The influencer's best response to ``state.mu_i``, then the consumers'
    block response to it, at the topics ``state.X`` of ``match``: ``state``
    with every rate replaced and the same topics."""
    gamma = cfg.r_p * match.followed(discount(state.mu_i, cfg.delay))
    mu_infl = influencer_br_dense(gamma, cfg)
    lam, mu_i, direct = consumers_br_dense(discount(mu_infl, cfg.delay), match, cfg, mode)
    return MarketAllocation(lam, mu_i, direct, InfluencerAllocation(mu_infl), state.X)


def _one_round(state: MarketAllocation, cfg: MarketConfig, mode: GameMode,
               grid: TopicGrid, match: Match
               ) -> tuple[MarketAllocation, set[int], float, np.ndarray]:
    """One full best-response round -- the influencer, then the consumers as
    one block (``_rates``), then the producers as one block.  ``match`` is
    the match at ``state.X`` on entry and at the next state's topics on
    return: the round moves in it only the producers whose topic changed
    (``Match.move``), so no caller may hold it for the state it was handed.
    Returns the next state, the indices of producers whose topic objective
    was degenerate this round, the next state's potential
    (``social_welfare``) and each producer's best scanned objective, the
    ``grid_best`` of the next state's producer weights, which ``_certify``
    takes with the match.

    Of ``state`` the round reads only ``mu_i`` and ``X``: the influencer
    responds to the followers' rates and B, the consumers to the
    influencer's rates and B, the producers to the new rates and their
    current topics.  When the returned ``mu_i`` and ``X`` equal the given
    ones bit for bit, the match is unchanged and the next round would
    return this round's results again; ``_run_single`` skips it.

    The next state's ``support_weights`` give its potential at the next
    topics.  In perfect/proxy mode they are also the producers' weights, and
    the incumbents' objectives are read from the match, by the function
    that values the winners.
    """
    rates = _rates(state, cfg, mode, match)
    weights = support_weights(rates.mu_i, rates.mu_infl, rates.direct, cfg)
    if mode is GameMode.IMPERFECT:
        X = state.X.copy()
        degenerate, scanned = imperfect_producer_round(rates.mu_i, X, grid, cfg, match)
    else:
        block = producer_block(weights, grid, cfg, prev=state.X,
                               prev_value=match.producer_values(weights), match=match)
        X, degenerate, scanned = block.topics, block.degenerate, block.grid_best
    phi = float(_utilities(match, weights, rates.lam, cfg).sum())  # social_welfare of the next state
    return (MarketAllocation(rates.lam, rates.mu_i, rates.direct, rates.influencer, X),
            set(np.flatnonzero(degenerate).tolist()), phi, scanned)


def _settle(state: MarketAllocation, cfg: MarketConfig, mode: GameMode,
            grid: TopicGrid, match: Match, max_passes: int
            ) -> tuple[MarketAllocation, float, np.ndarray]:
    """``_rates`` repeated from ``state`` until no rate moves by 1e-8 * M in
    a pass, for at most ``max_passes`` passes.  At fixed topics the welfare
    is an exact potential of the influencer and the consumers in every
    regime, so no pass lowers it.  ``match`` is the match at ``state.X``.
    Returns the settled state, its potential and its scan for ``_certify``."""
    for _ in range(max_passes):
        new = _rates(state, cfg, mode, match)
        change = _sup_change(state, new)
        state = new
        if change < 1e-8 * cfg.m:
            break
    return (state, _welfare(state, cfg, match),
            grid_best(_producer_weights(state, cfg, mode), grid))


def _welfare(omega: MarketAllocation, cfg: MarketConfig, match: Match) -> float:
    """``social_welfare`` of omega at the match at its topics."""
    weights = support_weights(omega.mu_i, omega.mu_infl, omega.direct, cfg)
    return float(_utilities(match, weights, omega.lam, cfg).sum())


def _producer_weights(omega: MarketAllocation, cfg: MarketConfig,
                      mode: GameMode) -> PeerWeights:
    """The weights of the regime's producer objectives at omega's rates:
    the imperfect rank-one weights with v = 1 (a producer's follower match
    mass), the perfect/proxy ``support_weights``."""
    if mode is GameMode.IMPERFECT:
        return PeerWeights.rank_one(discount(omega.mu_i, cfg.delay), np.ones(cfg.n))
    return support_weights(omega.mu_i, omega.mu_infl, omega.direct, cfg)


def check_nash(omega: MarketAllocation, cfg: MarketConfig, mode: GameMode,
               tol: float = TOL, producer_tol: float = PRODUCER_TOL,
               search: TopicSearchParams | None = None) -> NashCertificate:
    """First-order equilibrium certificate for the requested regime."""
    if tol < 0.0 or producer_tol < 0.0:
        raise InvalidInputError("tolerances must be nonnegative")
    omega.validate(cfg)
    return _check(omega, cfg, mode, TopicGrid(cfg, search or TopicSearchParams()),
                  tol, producer_tol)


def _check(omega: MarketAllocation, cfg: MarketConfig, mode: GameMode, grid: TopicGrid,
           tol: float, producer_tol: float) -> NashCertificate:
    """``check_nash`` of a valid state on the candidates of ``grid``."""
    scanned = grid_best(_producer_weights(omega, cfg, mode), grid)
    return _certify(omega, cfg, mode, match_of(omega.X, cfg), scanned, tol, producer_tol)


def _certify(omega: MarketAllocation, cfg: MarketConfig, mode: GameMode,
             match: Match, scanned: np.ndarray, tol: float = TOL,
             producer_tol: float = PRODUCER_TOL) -> NashCertificate:
    """The certificate of omega from the match at its topics and the
    ``grid_best`` of its ``_producer_weights``; a round and a settle
    return both for the state they build."""
    res = _residuals(omega, cfg, mode, match, scanned)
    max_ratio = max(_tol_ratio(name, value, tol, producer_tol)
                    for name, value in res.items())
    return NashCertificate(mode=mode, residuals=res, tol=tol,
                           producer_tol=producer_tol, max_residual=max_ratio,
                           holds=max_ratio <= 1.0)


def _residuals(omega: MarketAllocation, cfg: MarketConfig, mode: GameMode,
               match: Match, scanned: np.ndarray) -> dict[str, float]:
    """The named residuals of omega, ``match`` being the match at its
    topics and scanned the ``grid_best`` of its ``_producer_weights``.

    Conditions c, d and e compare each consumer's outside, influencer and
    best direct marginals.  A direct marginal delta'(direct[y, z]) * r_p *
    B[z, y] is at most beta * r_p, in floats too: delta' is at most
    delta'(0) = beta, and every entry of B at most 1.  For a consumer with
    beta * r_p <= max(m_out, m_infl) any best direct marginal up to that
    max leaves c, d and e the same floats, -inf among them.  So when every
    consumer is such, as in a large community whose influencer budget grows
    with it, the direct marginals are not read off B at all.  Otherwise
    they are read for every consumer, a chunk of B's rows at a time
    (``Match.rows``): a gather of only the columns that need them was
    slower at a fixed budget, where half of them do.
    """
    d = cfg.delay
    d_i = discount(omega.mu_i, d)
    d_infl = discount(omega.mu_infl, d)

    # marginal utilities of the outside and influencer channels, per consumer
    S = match.relayed(d_infl)                         # follower value ahead of mu_i
    m_out = discount_deriv(omega.lam, d) * cfg.r_0 * cfg.b_0
    m_infl = discount_deriv(omega.mu_i, d) * cfg.r_p * S

    gate_m = 1e-12 * cfg.m
    gate_infl = 1e-12 * cfg.m_infl

    def gated_max(gate_mask, shortfall):
        vals = shortfall[gate_mask]
        return float(np.max(vals)) if vals.size else 0.0

    res: dict[str, float] = {}
    gamma = cfg.r_p * match.followed(d_i)  # the influencer's weights

    # --- producer topic optimality, certified on the search candidates ---
    if mode is GameMode.IMPERFECT:
        res["a_producer_topic"] = _imperfect_producer_gap(gamma, cfg, scanned)
    else:
        res["a_producer_topic"] = _support_producer_gap(omega, cfg, match, scanned)

    # --- consumer budgets and channel marginals (KKT comparisons, gated on
    # activity); the proxy regime has no direct channel to read ---
    direct = omega.direct
    if mode is GameMode.PROXY:
        res["b_direct_rates_zero"] = float(direct.rates.sum())
        res["c_consumer_budget"] = float(np.max(np.abs(omega.lam + omega.mu_i - cfg.m)))
        res["d_outside_optimal"] = gated_max(omega.lam > gate_m,
                                             np.maximum(0.0, m_infl - m_out))
        res["e_influencer_optimal"] = gated_max(omega.mu_i > gate_m,
                                                np.maximum(0.0, m_out - m_infl))
    else:
        # the direct marginals delta'(direct[y, z]) * r_p * B[z, y], z != y, and
        # each consumer's best: delta'(0) = beta, so off the stored rates they
        # are B scaled by beta * r_p, read a chunk of producer rows at a time
        # with each stored rate's own marginal written in and the diagonal (no
        # self channel) at -inf; only when some consumer's can matter
        ys = direct.row_ids()
        m_held = discount_deriv(direct.rates, d) * cfg.r_p * match.entries(direct.cols, ys)
        m_dir_best = np.full(cfg.n, -np.inf)
        if np.any(d.beta * cfg.r_p > np.maximum(m_out, m_infl)):
            for sl in chunks(cfg.n):
                m_dir = match.rows(sl) * (d.beta * cfg.r_p)
                here = (direct.cols >= sl.start) & (direct.cols < sl.stop)
                m_dir[direct.cols[here] - sl.start, ys[here]] = m_held[here]
                m_dir[np.arange(m_dir.shape[0]), np.arange(sl.start, sl.stop)] = -np.inf
                np.maximum(m_dir_best, m_dir.max(axis=0), out=m_dir_best)
        spent = omega.lam + omega.mu_i + direct.row_sums()
        res["b_consumer_budget"] = float(np.max(np.abs(spent - cfg.m)))
        best_rival_out = np.maximum(m_infl, m_dir_best)
        res["c_outside_optimal"] = gated_max(omega.lam > gate_m,
                                             np.maximum(0.0, best_rival_out - m_out))
        best_rival_infl = np.maximum(m_out, m_dir_best)
        res["d_influencer_optimal"] = gated_max(omega.mu_i > gate_m,
                                                np.maximum(0.0, best_rival_infl - m_infl))
        rival = np.maximum(np.maximum(m_out, m_infl), m_dir_best)
        res["e_direct_optimal"] = gated_max(direct.rates > gate_m,
                                            np.maximum(0.0, rival[ys] - m_held))

    # --- influencer budget and allocation marginals ---
    res["f_influencer_budget"] = abs(float(omega.mu_infl.sum()) - cfg.m_infl)
    g_marginal = discount_deriv(omega.mu_infl, d) * gamma
    best = float(np.max(g_marginal))
    res["g_influencer_allocation"] = gated_max(omega.mu_infl > gate_infl,
                                               np.maximum(0.0, best - g_marginal))
    return res


def _relative_gap(best: np.ndarray, current: np.ndarray) -> float:
    """Largest max(0, best - current) / best over producers with best > 0."""
    ok = best > 0.0
    if not np.any(ok):
        return 0.0
    return float(np.max(np.maximum(0.0, best[ok] - current[ok]) / best[ok]))


def _support_producer_gap(omega: MarketAllocation, cfg: MarketConfig, match: Match,
                          scanned: np.ndarray) -> float:
    """Perfect/proxy condition (a): relative gap of each producer's support
    between its best candidate (`scanned`) and its current topic."""
    weights = support_weights(omega.mu_i, omega.mu_infl, omega.direct, cfg)
    return _relative_gap(scanned, match.producer_values(weights))


def _imperfect_producer_gap(gamma: np.ndarray, cfg: MarketConfig,
                            scanned: np.ndarray) -> float:
    """Imperfect condition (a): for each producer, delta of the influencer's
    re-solved rate at the best candidate topic vs. at the current topic.  That
    rate grows with z's match mass, so one sort of the influencer's current
    channel weights gamma gives every producer's rate at its best candidate
    mass (`scanned`).  The rates at the current topics are the influencer's
    best response to gamma, ``influencer_br_dense``, uniform when every
    weight is zero."""
    at_best = rates_with(gamma, cfg.m_infl, cfg.delay.beta, np.arange(cfg.n), cfg.r_p * scanned)
    current = influencer_br_dense(gamma, cfg)
    return _relative_gap(discount(at_best, cfg.delay), discount(current, cfg.delay))


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
    return _run_all(cfg, mode, params, TopicGrid(cfg, search or TopicSearchParams()),
                    extra_inits)


def _run_all(cfg: MarketConfig, mode: GameMode, params: DynamicsParams | None,
             grid: TopicGrid, extra_inits: Sequence[MarketAllocation] = ()
             ) -> list[EquilibriumResult]:
    """``run_dynamics_all`` on the candidates of ``grid``."""
    params = params or DynamicsParams()
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

    state = start()
    match = match_of(state.X, cfg)
    phi = _welfare(state, cfg, match)
    trace = [phi]
    degenerate: set[int] = set()
    converged = False

    repeat = False
    for rounds_used in range(1, max_rounds + 1):
        if repeat:  # the last round handed back its mu_i and X: this one repeats it
            new, new_phi, change = state, phi, 0.0
        else:
            new, degenerate, new_phi, scanned = _one_round(state, cfg, mode, grid, match)
            change = _sup_change(state, new)
            repeat = (np.array_equal(new.X, state.X)
                      and np.array_equal(new.mu_i, state.mu_i))
        state = new  # drops the previous state
        dphi = abs(new_phi - phi)
        phi = new_phi
        trace.append(phi)
        if change < rate_tol and (mode is GameMode.IMPERFECT or dphi <= 1e-10 * abs(phi)):
            converged = True
            break

    if not converged:
        state, phi, scanned = _settle(state, cfg, mode, grid, match, max_rounds)
    return EquilibriumResult(
        omega=state,
        welfare=phi,
        potential_trace=tuple(trace),
        certificate=_certify(state, cfg, mode, match, scanned),
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
    """The reported run: the first certified run whose welfare lies within a
    relative 1e-12 of the largest certified welfare, so that starts reaching
    one equilibrium are not told apart by rounding; if none certifies, the
    run with the smallest certificate residual (honest failure)."""
    certified = [r for r in results if r.certificate.holds]
    if certified:
        top = max(r.welfare for r in certified)
        return next(r for r in certified if r.welfare >= top - 1e-12 * abs(top))
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
    grid = TopicGrid(cfg, search or TopicSearchParams())
    imperfect = _best(_run_all(cfg, GameMode.IMPERFECT, params, grid))
    perfect = _best(_run_all(cfg, GameMode.PERFECT, params, grid, (imperfect.omega,)))
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
    """Solve all three regimes and cross-certify against the proxy conditions,
    every run and certificate on one candidate grid."""
    if tol < 0.0 or producer_tol < 0.0:
        raise InvalidInputError("tolerances must be nonnegative")
    grid = TopicGrid(cfg, search or TopicSearchParams())
    perfect, imperfect, proxy = (_best(_run_all(cfg, mode, params, grid)) for mode in
                                 (GameMode.PERFECT, GameMode.IMPERFECT, GameMode.PROXY))
    return ProxyEquivalenceReport(
        perfect=perfect, imperfect=imperfect, proxy=proxy,
        perfect_under_proxy=_check(perfect.omega, cfg, GameMode.PROXY, grid, tol, producer_tol),
        imperfect_under_proxy=_check(imperfect.omega, cfg, GameMode.PROXY, grid, tol,
                                     producer_tol),
        direct_rate_mass_perfect=float(perfect.omega.direct.rates.sum()),
        direct_rate_mass_imperfect=float(imperfect.omega.direct.rates.sum()),
    )
