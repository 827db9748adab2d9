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
"""

from __future__ import annotations

import configparser
import json
import math
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
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
from .kernels import DelayParams, KernelParams, TopicPoint
from .market import InfluencerAllocation, MarketAllocation, MarketConfig


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


def _need(cp, path: Path, section: str, key: str) -> str:
    if section not in cp or key not in cp[section]:
        raise ScenarioError(f"{path}: missing required key '{key}' in [{section}]")
    return cp[section][key]


def _conv(path: Path, section: str, key: str, raw: str, kind):
    try:
        return kind(raw)
    except ValueError:
        raise ScenarioError(
            f"{path}: [{section}] {key} = {raw!r} is not a valid "
            f"{kind.__name__}") from None


def _get(cp, path, section, key, kind, default):
    if section in cp and key in cp[section]:
        return _conv(path, section, key, cp[section][key], kind)
    return default


def _given(cp, path, section, **kinds) -> dict:
    """The keys of `section` that the file sets, converted, as keyword
    arguments: the keys it leaves out keep their dataclass defaults."""
    if section not in cp:
        return {}
    return {key: _conv(path, section, key, cp[section][key], kind)
            for key, kind in kinds.items() if key in cp[section]}


def _parse_points(path: Path, section: str, key: str, raw: str, dim: int
                  ) -> tuple[TopicPoint, ...]:
    pts = []
    for token in raw.split():
        coords = token.split(",")
        if len(coords) != dim:
            raise ScenarioError(
                f"{path}: [{section}] {key}: point {token!r} has "
                f"{len(coords)} coordinates, expected {dim}")
        try:
            pts.append(TopicPoint(tuple(float(c) for c in coords)))
        except ValueError as exc:
            raise ScenarioError(
                f"{path}: [{section}] {key}: bad point {token!r} ({exc})"
            ) from None
    if not pts:
        raise ScenarioError(f"{path}: [{section}] {key} lists no points")
    return tuple(pts)


def parse_scenario(path: str | os.PathLike, _cp=None) -> Scenario:
    path = Path(path)
    cp = _cp if _cp is not None else _load_ini(path, allow_sweep=False)

    name = _get(cp, path, "scenario", "name", str, path.stem)
    seed = _get(cp, path, "scenario", "seed", int, 0)
    modes_raw = _get(cp, path, "scenario", "modes", str, "perfect")
    try:
        modes = tuple(GameMode.parse(tok)
                      for tok in modes_raw.replace(",", " ").split())
    except ValueError as exc:
        raise ScenarioError(f"{path}: [scenario] modes: {exc}") from None
    if not modes:
        raise ScenarioError(f"{path}: [scenario] modes lists no modes")

    dim = _get(cp, path, "market", "dim", int, 1)
    if dim not in (1, 2):
        raise ScenarioError(f"{path}: [market] dim must be 1 or 2, got {dim}")
    m = _conv(path, "market", "m", _need(cp, path, "market", "m"), float)
    m_infl = _conv(path, "market", "m_infl",
                   _need(cp, path, "market", "m_infl"), float)

    kind = _need(cp, path, "interests", "kind").strip().lower()
    if kind not in ("explicit", "uniform", "two_cluster"):
        raise ScenarioError(
            f"{path}: [interests] kind must be explicit, uniform or "
            f"two_cluster, got {kind!r}")
    if kind == "explicit":
        interests = InterestSpec(
            kind=kind,
            points=_parse_points(path, "interests", "points",
                                 _need(cp, path, "interests", "points"), dim))
    else:
        n = _conv(path, "interests", "n", _need(cp, path, "interests", "n"), int)
        if n < 2:
            raise ScenarioError(f"{path}: [interests] n must be at least 2")
        if kind == "two_cluster":
            centers = _parse_points(path, "interests", "centers",
                                    _need(cp, path, "interests", "centers"), dim)
            spread = _conv(path, "interests", "spread",
                           _need(cp, path, "interests", "spread"), float)
            if not spread > 0.0:
                raise ScenarioError(f"{path}: [interests] spread must be positive")
            interests = InterestSpec(kind=kind, n=n, centers=centers, spread=spread)
        else:
            interests = InterestSpec(kind=kind, n=n)

    try:
        dynamics = DynamicsParams(
            **_given(cp, path, "dynamics", max_rounds=int, restarts=int))
        search = TopicSearchParams(
            **_given(cp, path, "search", grid_resolution=int, refine_iters=int))
        return Scenario(
            name=name, modes=modes, seed=seed, dim=dim, m=m, m_infl=m_infl,
            r_p=_get(cp, path, "market", "r_p", float, 1.0),
            r_0=_get(cp, path, "market", "r_0", float, 1.0),
            b_0=_get(cp, path, "market", "b_0", float, 0.5),
            kernel=KernelParams(**_given(cp, path, "market", a_f=float, a_g=float)),
            delay=DelayParams(**_given(cp, path, "market", beta=float)),
            interests=interests, dynamics=dynamics, search=search)
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"{path}: {exc}") from None


def parse_sweep(path: str | os.PathLike) -> SweepSpec:
    path = Path(path)
    cp = _load_ini(path, allow_sweep=True)
    base = parse_scenario(path, _cp=cp)
    if base.interests.kind == "explicit":
        raise ScenarioError(
            f"{path}: sweeps resize the community; [interests] kind must be "
            f"uniform or two_cluster, not explicit")

    raw = _need(cp, path, "sweep", "n_values")
    try:
        n_values = tuple(int(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        raise ScenarioError(f"{path}: [sweep] n_values: {raw!r} is not an "
                            f"integer list") from None
    if not n_values or any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ScenarioError(
            f"{path}: [sweep] n_values must be strictly increasing, got {raw!r}")
    if any(n < 2 for n in n_values):
        raise ScenarioError(f"{path}: [sweep] n_values must all be at least 2")

    rule = _get(cp, path, "sweep", "m_infl_rule", str, "proportional").strip().lower()
    if rule not in ("fixed", "proportional"):
        raise ScenarioError(
            f"{path}: [sweep] m_infl_rule must be fixed or proportional, "
            f"got {rule!r}")
    replicates = _get(cp, path, "sweep", "replicates", int, 1)
    if replicates < 1:
        raise ScenarioError(f"{path}: [sweep] replicates must be at least 1")
    k_infl = _get(cp, path, "sweep", "k_infl", float, 1.0)
    if not k_infl > 0.0:
        raise ScenarioError(f"{path}: [sweep] k_infl must be positive")
    return SweepSpec(base=base, n_values=n_values, m_infl_rule=rule,
                     k_infl=k_infl, replicates=replicates)


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


def config_from_dict(d: dict) -> MarketConfig:
    def get(key):
        return _field(d, key, "config")

    return MarketConfig(
        dim=get("dim"),
        interests=tuple(TopicPoint(tuple(p)) for p in get("interests")),
        m=get("m"), m_infl=get("m_infl"), r_p=get("r_p"), r_0=get("r_0"), b_0=get("b_0"),
        kernel=KernelParams(a_f=get("a_f"), a_g=get("a_g")),
        delay=DelayParams(beta=get("beta")), seed=get("seed"))


def allocation_to_dict(omega: MarketAllocation) -> dict:
    """JSON form: per consumer its outside and influencer rates and its
    positive direct rates keyed by producer index, then the influencer's
    rates and the content topics."""
    consumers = []
    for y, row in enumerate(omega.direct):
        nz = np.flatnonzero(row > 0.0)
        consumers.append({
            "lambda_out": float(omega.lam[y]), "mu_infl_follow": float(omega.mu_i[y]),
            "mu_direct": {str(z): r for z, r in zip(nz.tolist(), row[nz].tolist())}})
    return {"consumers": consumers,
            "influencer": omega.mu_infl.tolist(),
            "content": omega.X.tolist()}


def allocation_from_dict(d: dict) -> MarketAllocation:
    """Inverse of ``allocation_to_dict``; a missing key or a direct rate on
    an unknown producer raises ScenarioError naming it.  Values are checked
    by ``MarketAllocation.validate``."""
    consumers = _field(d, "consumers", "allocation")
    n = len(consumers)
    lam, mu_i, direct = np.zeros(n), np.zeros(n), np.zeros((n, n))
    for y, c in enumerate(consumers):
        where = f"allocation consumer {y}"
        lam[y] = _field(c, "lambda_out", where)
        mu_i[y] = _field(c, "mu_infl_follow", where)
        for key, r in _field(c, "mu_direct", where).items():
            try:
                z = int(key)
            except ValueError:
                raise ScenarioError(
                    f"{where}: mu_direct key {key!r} is not a producer index") from None
            if not 0 <= z < n:
                raise ScenarioError(f"{where} rates unknown producer {z}")
            direct[y, z] = r
    return MarketAllocation(
        lam, mu_i, direct,
        InfluencerAllocation(mu=np.array(_field(d, "influencer", "allocation"), dtype=float)),
        np.array(_field(d, "content", "allocation"), dtype=float))


def certificate_to_dict(cert: NashCertificate) -> dict:
    return {"mode": cert.mode.value, "tol": cert.tol,
            "producer_tol": cert.producer_tol,
            "max_residual": cert.max_residual, "holds": cert.holds,
            "residuals": dict(sorted(cert.residuals.items()))}


def result_to_dict(scenario_name: str, mode: GameMode, cfg: MarketConfig,
                   res: EquilibriumResult) -> dict:
    return {
        "scenario": scenario_name,
        "mode": mode.value,
        "config": config_to_dict(cfg),
        "welfare": res.welfare,
        "converged": res.converged,
        "rounds_used": res.rounds_used,
        "degenerate_producers": sorted(res.degenerate_producers),
        "potential_trace": list(res.potential_trace),
        "allocation": allocation_to_dict(res.omega),
        "certificate": certificate_to_dict(res.certificate),
    }


def write_json(payload: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def load_result(path: str | os.PathLike) -> dict:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"{path}: cannot load result file ({exc})") from exc
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
        "perfect": {"welfare": rec.perfect.welfare,
                    "converged": rec.perfect.converged,
                    "certificate": certificate_to_dict(rec.perfect.certificate),
                    "allocation": allocation_to_dict(rec.perfect.omega)},
        "imperfect": {"welfare": rec.imperfect.welfare,
                      "converged": rec.imperfect.converged,
                      "certificate": certificate_to_dict(rec.imperfect.certificate),
                      "allocation": allocation_to_dict(rec.imperfect.omega)},
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
    so output bytes do not depend on the worker count.
    """
    out_dir = Path(out_dir)
    tasks = [(spec, n, rep) for n in spec.n_values
             for rep in range(spec.replicates)]
    count = worker_count(len(tasks), workers)
    if count == 1:
        rows = [_sweep_row(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=count) as pool:
            rows = list(pool.map(_sweep_row, tasks))
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
