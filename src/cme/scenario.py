"""Scenario files, parameter sweeps, and result serialization.

Scenario files (`.scn`) are flat UTF-8 ``key = value`` lines under bracketed
section headers -- diff-able and editable by hand::

    [scenario]
    name = symmetric
    modes = perfect imperfect proxy
    seed = 7

    [market]
    dim = 1
    m = 1.0
    m_infl = 2.0

    [interests]
    kind = explicit
    points = 0.2 0.8

Interest kinds: ``explicit`` (points listed inline, whitespace between
points, commas within a point for dim 2), ``uniform`` (n points sampled
uniformly on the topic space), ``two_cluster`` (member i is assigned to
cluster i mod k and offset by a clipped Gaussian of the given spread).

Sweep files (`.swp`) add a ``[sweep]`` section scaling the community size,
with the influencer budget either fixed or proportional (``k_infl * N``).
Each (N, replicate) row derives its own seed from the base seed, so output
is byte-identical across repeat runs and worker counts.

A bad value fails at parse time, naming the file: the types a file builds
check their own rules (``InterestSpec``, ``SweepSpec``, ``MarketConfig``
through the market built once from the file), for specs built in code too.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bestresponse import GameMode, TopicSearchParams
from .equilibrium import (
    DynamicsParams,
    EquilibriumResult,
    NashCertificate,
    price_of_influence,
)
from .kernels import DelayParams, InvalidInputError, KernelParams, TopicPoint
from .market import DirectRates, InfluencerAllocation, MarketAllocation, MarketConfig


class ScenarioError(ValueError):
    """Malformed scenario/sweep file; the message names file and field."""


# ---------------------------------------------------------------------------
# scenario model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterestSpec:
    """How a scenario obtains member interests."""

    kind: str                                   # explicit | uniform | two_cluster
    points: tuple[TopicPoint, ...] = ()
    n: int = 0
    centers: tuple[TopicPoint, ...] = ()
    spread: float = 0.0

    def __post_init__(self):
        if self.kind not in ("explicit", "uniform", "two_cluster"):
            raise InvalidInputError("[interests] kind must be explicit, uniform or "
                                    f"two_cluster, got {self.kind!r}")
        if self.kind != "explicit" and self.n < 2:
            raise InvalidInputError("[interests] n must be at least 2")
        if self.kind == "two_cluster" and not (self.centers and self.spread > 0.0):
            raise InvalidInputError(
                "[interests] two_cluster needs centers, and spread must be positive")

    def sample(self, n: int, dim: int, rng: np.random.Generator
               ) -> tuple[TopicPoint, ...]:
        if self.kind == "explicit":
            if n != len(self.points):
                raise ScenarioError(
                    f"explicit interests fix the community size at "
                    f"{len(self.points)}; cannot resize to {n}")
            return self.points
        if self.kind == "uniform":
            pts = rng.uniform(0.0, 1.0, (n, dim))
        else:  # two_cluster
            centers = np.array([c.coords for c in self.centers])
            assigned = centers[np.arange(n) % len(centers)]
            pts = assigned + rng.normal(0.0, self.spread, (n, dim))
            pts = np.clip(pts, 0.0, 1.0)
        return tuple(TopicPoint(tuple(float(v) for v in row)) for row in pts)


@dataclass(frozen=True)
class Scenario:
    """A named, seed-reproducible market description plus solver settings."""

    name: str
    modes: tuple[GameMode, ...]
    seed: int
    dim: int
    m: float
    m_infl: float
    r_p: float
    r_0: float
    b_0: float
    kernel: KernelParams
    delay: DelayParams
    interests: InterestSpec
    dynamics: DynamicsParams
    search: TopicSearchParams

    def __post_init__(self):
        if self.seed < 0:  # the interests are sampled before the market checks it
            raise InvalidInputError(f"[scenario] seed must be nonnegative, got {self.seed}")

    def community_size(self) -> int:
        return len(self.interests.points) if self.interests.kind == "explicit" \
            else self.interests.n

    def build_config(self, n: int | None = None, m_infl: float | None = None,
                     seed: int | None = None) -> MarketConfig:
        """Resolve to a concrete market; sampling is deterministic in seed."""
        n = n if n is not None else self.community_size()
        seed = seed if seed is not None else self.seed
        rng = np.random.default_rng([seed, n])
        pts = self.interests.sample(n, self.dim, rng)
        return MarketConfig(
            dim=self.dim, interests=pts, m=self.m,
            m_infl=m_infl if m_infl is not None else self.m_infl,
            r_p=self.r_p, r_0=self.r_0, b_0=self.b_0,
            kernel=self.kernel, delay=self.delay, seed=seed)


@dataclass(frozen=True)
class SweepSpec:
    """Community-size sweep over a base scenario."""

    base: Scenario
    n_values: tuple[int, ...]
    m_infl_rule: str            # fixed | proportional
    k_infl: float
    replicates: int

    def __post_init__(self):
        if self.base.interests.kind == "explicit":
            raise InvalidInputError(
                "sweeps resize the community; [interests] kind must be "
                "uniform or two_cluster, not explicit")
        n = self.n_values
        if not n or n[0] < 2 or any(b <= a for a, b in zip(n, n[1:])):
            raise InvalidInputError(
                f"[sweep] n_values must be strictly increasing and at least 2, got {n!r}")
        if self.m_infl_rule not in ("fixed", "proportional"):
            raise InvalidInputError("[sweep] m_infl_rule must be fixed or proportional, "
                                    f"got {self.m_infl_rule!r}")
        if self.replicates < 1:
            raise InvalidInputError("[sweep] replicates must be at least 1")
        if not self.k_infl > 0.0:
            raise InvalidInputError("[sweep] k_infl must be positive")

    def m_infl_for(self, n: int) -> float:
        return self.k_infl * n if self.m_infl_rule == "proportional" \
            else self.base.m_infl


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_SECTIONS = {
    "scenario": {"name", "modes", "seed"},
    "market": {"dim", "m", "m_infl", "r_p", "r_0", "b_0", "a_f", "a_g", "beta"},
    "interests": {"kind", "points", "n", "centers", "spread"},
    "dynamics": {"max_rounds", "restarts"},
    "search": {"grid_resolution", "refine_iters"},
    "sweep": {"n_values", "m_infl_rule", "k_infl", "replicates"},
}


def _load_ini(path: Path, allow_sweep: bool) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#",))
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read ({exc})") from exc
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    for section in cp.sections():
        if section not in _SECTIONS or (section == "sweep" and not allow_sweep):
            raise ScenarioError(f"{path}: unknown section [{section}]")
        extras = set(cp[section]) - _SECTIONS[section]
        if extras:
            raise ScenarioError(
                f"{path}: unknown key '{sorted(extras)[0]}' in [{section}]")
    return cp


def _value(cp, path: Path, section: str, key: str, kind=str, default=...):
    """`key` of `section` converted by `kind`, or `default` where the file
    leaves it out; without a default, a key left out is an error."""
    if section not in cp or key not in cp[section]:
        if default is ...:
            raise ScenarioError(f"{path}: missing required key '{key}' in [{section}]")
        return default
    raw = cp[section][key]
    try:
        return kind(raw)
    except ValueError:
        raise ScenarioError(f"{path}: [{section}] {key} = {raw!r} is not a valid "
                            f"{kind.__name__}") from None


def _given(cp, path, section, **kinds) -> dict:
    """The keys of `section` that the file sets, converted, as keyword
    arguments: the keys it leaves out keep their dataclass defaults."""
    return {key: _value(cp, path, section, key, kind) for key, kind in kinds.items()
            if section in cp and key in cp[section]}


def _points(cp, path: Path, key: str, dim: int) -> tuple[TopicPoint, ...]:
    pts = []
    for token in _value(cp, path, "interests", key).split():
        coords = token.split(",")
        if len(coords) != dim:
            raise ScenarioError(
                f"{path}: [interests] {key}: point {token!r} has "
                f"{len(coords)} coordinates, expected {dim}")
        try:
            pts.append(TopicPoint(tuple(float(c) for c in coords)))
        except ValueError as exc:
            raise ScenarioError(
                f"{path}: [interests] {key}: bad point {token!r} ({exc})"
            ) from None
    return tuple(pts)


def parse_scenario(path: str | os.PathLike, _cp=None) -> Scenario:
    """A ``.scn`` file's scenario; its market is built once, so a bad value names the file."""
    path = Path(path)
    cp = _cp if _cp is not None else _load_ini(path, allow_sweep=False)

    modes_raw = _value(cp, path, "scenario", "modes", str, "perfect")
    try:
        modes = tuple(GameMode.parse(tok)
                      for tok in modes_raw.replace(",", " ").split())
    except ValueError as exc:
        raise ScenarioError(f"{path}: [scenario] modes: {exc}") from None
    if not modes:
        raise ScenarioError(f"{path}: [scenario] modes lists no modes")
    dim = _value(cp, path, "market", "dim", int, 1)
    if dim not in (1, 2):
        raise ScenarioError(f"{path}: [market] dim must be 1 or 2, got {dim}")

    kind = _value(cp, path, "interests", "kind").strip().lower()
    interests = {}
    if kind == "explicit":
        interests["points"] = _points(cp, path, "points", dim)
    elif kind in ("uniform", "two_cluster"):
        interests["n"] = _value(cp, path, "interests", "n", int)
    if kind == "two_cluster":
        interests.update(centers=_points(cp, path, "centers", dim),
                         spread=_value(cp, path, "interests", "spread", float))
    try:
        scn = Scenario(
            name=_value(cp, path, "scenario", "name", str, path.stem),
            modes=modes, seed=_value(cp, path, "scenario", "seed", int, 0), dim=dim,
            m=_value(cp, path, "market", "m", float),
            m_infl=_value(cp, path, "market", "m_infl", float),
            r_p=_value(cp, path, "market", "r_p", float, 1.0),
            r_0=_value(cp, path, "market", "r_0", float, 1.0),
            b_0=_value(cp, path, "market", "b_0", float, 0.5),
            kernel=KernelParams(**_given(cp, path, "market", a_f=float, a_g=float)),
            delay=DelayParams(**_given(cp, path, "market", beta=float)),
            interests=InterestSpec(kind=kind, **interests),
            dynamics=DynamicsParams(
                **_given(cp, path, "dynamics", max_rounds=int, restarts=int)),
            search=TopicSearchParams(
                **_given(cp, path, "search", grid_resolution=int, refine_iters=int)))
        scn.build_config()
    except InvalidInputError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    return scn


def parse_sweep(path: str | os.PathLike) -> SweepSpec:
    path = Path(path)
    cp = _load_ini(path, allow_sweep=True)
    base = parse_scenario(path, _cp=cp)
    raw = _value(cp, path, "sweep", "n_values")
    try:
        n_values = tuple(int(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        raise ScenarioError(f"{path}: [sweep] n_values: {raw!r} is not an integer list") from None
    try:
        return SweepSpec(
            base=base, n_values=n_values,
            m_infl_rule=_value(cp, path, "sweep", "m_infl_rule", str, "proportional").strip().lower(),
            k_infl=_value(cp, path, "sweep", "k_infl", float, 1.0),
            replicates=_value(cp, path, "sweep", "replicates", int, 1))
    except InvalidInputError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# result serialization (JSON, round-trippable)
# ---------------------------------------------------------------------------


def config_to_dict(cfg: MarketConfig) -> dict:
    return {
        "dim": cfg.dim,
        "interests": [list(p.coords) for p in cfg.interests],
        "m": cfg.m, "m_infl": cfg.m_infl,
        "r_p": cfg.r_p, "r_0": cfg.r_0, "b_0": cfg.b_0,
        "a_f": cfg.kernel.a_f, "a_g": cfg.kernel.a_g,
        "beta": cfg.delay.beta, "seed": cfg.seed,
    }


def _field(d, key: str, where: str):
    try:
        return d[key]
    except (KeyError, TypeError):
        raise ScenarioError(f"{where} lacks '{key}'") from None


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(d, key: str, where: str, kind=float):
    """d[key] as a float (or, with kind=int, an integer): JSON numbers only."""
    v = _field(d, key, where)
    if not (_is_number(v) and (kind is float or isinstance(v, int))):
        what = "a number" if kind is float else "an integer"
        raise ScenarioError(f"{where} '{key}' must be {what}, got {v!r}")
    return kind(v)


def _numbers(d, key: str, where: str, ndim: int) -> np.ndarray:
    """d[key] as a float array: a list of numbers (ndim 1) or a list of
    equally long lists of numbers (ndim 2)."""
    v = _field(d, key, where)
    rows = v if ndim == 2 else [v]
    if not (isinstance(v, list) and all(isinstance(r, list) for r in rows)
            and all(_is_number(x) for r in rows for x in r)):
        what = "a list of numbers" if ndim == 1 else "a list of lists of numbers"
        raise ScenarioError(f"{where} '{key}' must be {what}")
    if len({len(r) for r in rows}) > 1:
        raise ScenarioError(f"{where} '{key}' has rows of unequal length")
    return np.array(v, dtype=float)


def config_from_dict(d: dict) -> MarketConfig:
    """Inverse of ``config_to_dict``; a missing or wrongly typed value
    raises ScenarioError naming its key."""
    def num(key):
        return _number(d, key, "config")

    return MarketConfig(
        dim=_number(d, "dim", "config", int),
        interests=tuple(TopicPoint(tuple(p)) for p in _numbers(d, "interests", "config", 2)),
        m=num("m"), m_infl=num("m_infl"), r_p=num("r_p"), r_0=num("r_0"), b_0=num("b_0"),
        kernel=KernelParams(a_f=num("a_f"), a_g=num("a_g")),
        delay=DelayParams(beta=num("beta")), seed=_number(d, "seed", "config", int))


def allocation_to_dict(omega: MarketAllocation) -> dict:
    """JSON form: per consumer its outside and influencer rates and its
    positive direct rates keyed by producer index, then the influencer's
    rates and the content topics."""
    consumers = []
    for y in range(omega.lam.size):
        cols, rates = omega.direct.row(y)
        held = rates > 0.0
        consumers.append({
            "lambda_out": float(omega.lam[y]), "mu_infl_follow": float(omega.mu_i[y]),
            "mu_direct": {str(z): r for z, r in zip(cols[held].tolist(), rates[held].tolist())}})
    return {"consumers": consumers,
            "influencer": omega.mu_infl.tolist(),
            "content": omega.X.tolist()}


def allocation_from_dict(d: dict) -> MarketAllocation:
    """Inverse of ``allocation_to_dict``; a missing or wrongly typed value,
    a producer key other than the str(z) that ``allocation_to_dict``
    writes ("01", "+1", " 1", "1_0" would each read as a producer too), or
    a direct rate on an unknown producer, raises ScenarioError naming it.
    Values are checked by ``MarketAllocation.validate``."""
    consumers = _field(d, "consumers", "allocation")
    if not isinstance(consumers, list):
        raise ScenarioError("allocation 'consumers' must be a list")
    n = len(consumers)
    lam, mu_i, direct = np.zeros(n), np.zeros(n), []
    for y, c in enumerate(consumers):
        where = f"allocation consumer {y}"
        lam[y] = _number(c, "lambda_out", where)
        mu_i[y] = _number(c, "mu_infl_follow", where)
        rates = _field(c, "mu_direct", where)
        if not isinstance(rates, dict):
            raise ScenarioError(f"{where} 'mu_direct' must map producer indices to rates")
        row = {}
        for key in rates:
            try:
                z = int(key)
                if key != str(z):
                    raise ValueError(key)
            except ValueError:
                raise ScenarioError(
                    f"{where}: mu_direct key {key!r} is not a producer index") from None
            if not 0 <= z < n:
                raise ScenarioError(f"{where} rates unknown producer {z}")
            row[z] = _number(rates, key, f"{where} mu_direct")
        direct += [(y, z, r) for z, r in sorted(row.items()) if r != 0.0]
    ys, zs, rs = zip(*direct) if direct else ((), (), ())
    return MarketAllocation(
        lam, mu_i, DirectRates.from_entries((n, n), np.array(ys, dtype=np.intp),
                                            np.array(zs, dtype=np.intp), np.array(rs, dtype=float)),
        InfluencerAllocation(mu=_numbers(d, "influencer", "allocation", 1)),
        _numbers(d, "content", "allocation", 2))


def certificate_to_dict(cert: NashCertificate) -> dict:
    return {"mode": cert.mode.value, "tol": cert.tol,
            "producer_tol": cert.producer_tol,
            "max_residual": cert.max_residual, "holds": cert.holds,
            "residuals": dict(sorted(cert.residuals.items()))}


def regime_to_dict(res: EquilibriumResult) -> dict:
    """One equilibrium's welfare, convergence flag, certificate and
    allocation: a regime's block of a ``cme poi`` file and of a sweep row
    JSON, and the core of ``result_to_dict``."""
    return {"welfare": res.welfare, "converged": res.converged,
            "certificate": certificate_to_dict(res.certificate),
            "allocation": allocation_to_dict(res.omega)}


def result_to_dict(scenario_name: str, mode: GameMode, cfg: MarketConfig,
                   res: EquilibriumResult) -> dict:
    return {
        "scenario": scenario_name,
        "mode": mode.value,
        "config": config_to_dict(cfg),
        "rounds_used": res.rounds_used,
        "degenerate_producers": sorted(res.degenerate_producers),
        "potential_trace": list(res.potential_trace),
        **regime_to_dict(res),
    }


def write_json(payload: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict, refusing a key given twice, of
    which ``json.loads`` would silently keep only the last."""
    d = {}
    for key, value in pairs:
        if key in d:
            raise ScenarioError(f"repeated key {key!r} in one JSON object")
        d[key] = value
    return d


def load_result(path: str | os.PathLike) -> dict:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"{path}: cannot load result file ({exc})") from exc
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ScenarioError(f"{path}: result file is not a JSON object")
    for key in ("config", "allocation", "mode"):
        if key not in payload:
            raise ScenarioError(f"{path}: result file missing '{key}'")
    return payload


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _row_seed(base_seed: int, n: int, replicate: int) -> int:
    return int(np.random.SeedSequence([base_seed, n, replicate])
               .generate_state(1)[0])


def _sweep_row(args: tuple[SweepSpec, int, int]) -> dict:
    spec, n, replicate = args
    cfg = spec.base.build_config(n=n, m_infl=spec.m_infl_for(n),
                                 seed=_row_seed(spec.base.seed, n, replicate))
    try:
        rec = price_of_influence(cfg, params=spec.base.dynamics,
                                 search=spec.base.search)
    except Exception as exc:  # per-row failures stay in-row; the sweep goes on
        return {"n": n, "m_infl": spec.m_infl_for(n), "replicate": replicate,
                "phi_perfect": math.nan, "phi_imperfect": math.nan,
                "poi": math.nan, "relative_poi": math.nan,
                "converged_flags": f"error={type(exc).__name__}",
                "error": f"{type(exc).__name__}: {exc}", "detail": None}
    flags = (f"perfect={int(rec.perfect.converged)}"
             f";imperfect={int(rec.imperfect.converged)}")
    detail = {
        "config": config_to_dict(cfg),
        "perfect": regime_to_dict(rec.perfect),
        "imperfect": regime_to_dict(rec.imperfect),
        "poi": rec.poi, "relative_poi": rec.relative_poi,
    }
    return {"n": n, "m_infl": cfg.m_infl, "replicate": replicate,
            "phi_perfect": rec.phi_perfect, "phi_imperfect": rec.phi_imperfect,
            "poi": rec.poi, "relative_poi": rec.relative_poi,
            "converged_flags": flags, "error": None, "detail": detail}


def worker_count(n_tasks: int, workers: int | None = None) -> int:
    if workers is None:
        env = os.environ.get("CME_THREADS", "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ScenarioError(
                    f"CME_THREADS={env!r} is not an integer") from None
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise ScenarioError("worker count must be at least 1")
    return min(workers, max(1, n_tasks))


# The sweep's pool, kept for later calls: ((worker count, pid), pool).  Forking
# and joining the workers costs more than the rows of a small sweep; the pid
# keeps a forked child off its parent's pool.
_kept_pool: tuple[tuple[int, int], ProcessPoolExecutor] | None = None


def _pooled_rows(tasks: list, count: int) -> list[dict]:
    """The rows of `tasks` from the kept pool, made anew for another count.

    `_sweep_row` keeps a row's errors in the row, so a broken pool means a
    worker died: the pool is replaced and the rows run once more.
    """
    global _kept_pool
    key = (count, os.getpid())
    for last in (False, True):
        if _kept_pool is not None and _kept_pool[0] != key:
            if _kept_pool[0][1] == key[1]:
                _kept_pool[1].shutdown(cancel_futures=True)
            _kept_pool = None
        if _kept_pool is None:
            _kept_pool = (key, ProcessPoolExecutor(max_workers=count))
        try:
            return list(_kept_pool[1].map(_sweep_row, tasks))
        except BaseException as exc:
            _kept_pool[1].shutdown(wait=False, cancel_futures=True)
            _kept_pool = None
            if last or not isinstance(exc, BrokenProcessPool):
                raise


@dataclass(frozen=True)
class SweepOutput:
    csv_path: Path
    dat_path: Path
    row_paths: tuple[Path, ...]
    rows: tuple[dict, ...]


CSV_HEADER = ("N,M_infl,replicate,phi_perfect,phi_imperfect,poi,"
              "relative_poi,converged_flags")


def run_sweep(spec: SweepSpec, out_dir: str | os.PathLike,
              workers: int | None = None) -> SweepOutput:
    """Execute every (N, replicate) cell; write CSV, plot data, and one JSON
    per row (the stored allocations let welfare be re-validated later).

    Rows are computed in a process pool but written in (N, replicate) order,
    so output bytes do not depend on the worker count.  The pool stays up for
    later calls with the same count until the interpreter exits; its workers
    are forked at the first and run the package as it was loaded then.
    """
    out_dir = Path(out_dir)
    tasks = [(spec, n, rep) for n in spec.n_values
             for rep in range(spec.replicates)]
    count = worker_count(len(tasks), workers)
    if count == 1:
        rows = [_sweep_row(t) for t in tasks]
    else:
        rows = _pooled_rows(tasks, count)
    rows.sort(key=lambda r: (r["n"], r["replicate"]))

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{spec.base.name}.csv"
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r["n"]), _g17(r["m_infl"]), str(r["replicate"]),
            _g17(r["phi_perfect"]), _g17(r["phi_imperfect"]),
            _g17(r["poi"]), _g17(r["relative_poi"]), r["converged_flags"]]))
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    dat_path = out_dir / f"{spec.base.name}.dat"
    dat_lines = ["# N median_relative_poi"]
    dat_lines += [f"{n} {_g17(med)}" for n, med in _medians(rows).items()]
    dat_path.write_text("\n".join(dat_lines) + "\n", encoding="utf-8")

    row_paths = []
    for r in rows:
        if r["detail"] is None:
            continue
        p = out_dir / "rows" / f"N{r['n']:04d}_r{r['replicate']:03d}.json"
        write_json(r["detail"], p)
        row_paths.append(p)
    return SweepOutput(csv_path=csv_path, dat_path=dat_path,
                       row_paths=tuple(row_paths), rows=tuple(rows))


def median_relative_poi(output: SweepOutput) -> dict[int, float]:
    """Median relative welfare gap per community size, from a sweep run."""
    return _medians(output.rows)


def _medians(rows) -> dict[int, float]:
    """Median relative_poi per N, in increasing N, over the rows that have one."""
    medians: dict[int, float] = {}
    for n in sorted({r["n"] for r in rows}):
        vals = [r["relative_poi"] for r in rows
                if r["n"] == n and not math.isnan(r["relative_poi"])]
        if vals:
            medians[n] = statistics.median(vals)
    return medians
