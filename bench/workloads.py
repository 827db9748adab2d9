"""The benchmark's workloads: seeded markets built from the bundled sweep file.

Every workload starts from ``scenarios/poi_sweep.swp`` with its base seed
replaced by the benchmark's ``--seed``.  A market of size N, replicate r is
built exactly as ``run_sweep`` builds its rows: the row seed is
SeedSequence([seed, N, r]) and the influencer budget follows the sweep's
proportional rule.  The program sees only the generated configs.

``setup`` does the work a user pays before solving (parse the file, build the
MarketConfigs) and ``solve`` is one timed pass; ``PassResult`` carries what
the correctness gate needs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cme
from cme.scenario import InterestSpec

REPO = Path(__file__).resolve().parent.parent
SWEEP_FILE = REPO / "scenarios" / "poi_sweep.swp"
DEFAULT_SEED = 2026

# Market parameters per workload, as overrides of poi_sweep.swp.  The smoke
# sizes keep the same code paths at a fraction of the cost; they are for
# the benchmark's own tests only.
WORKLOADS = {
    "poi_n40": {
        "full": {"n": 40},
        "smoke": {"n": 6, "grid": 32, "refine": 8},
    },
    "perfect_n1000": {
        "full": {"n": 1000},
        "smoke": {"n": 60},
    },
    "imperfect_dim2": {
        "full": {"n": 20, "grid": 128},
        "smoke": {"n": 5, "grid": 16},
    },
    "sweep_small": {
        "full": {"n_values": (20,), "replicates": 2, "workers": 2},
        "smoke": {"n_values": (3, 4), "replicates": 1, "grid": 32, "refine": 8,
                  "workers": 2},
    },
}


def row_seed(base_seed: int, n: int, replicate: int) -> int:
    """The sweep's per-row seed rule: SeedSequence([seed, N, replicate]).

    Written out here rather than imported, so the benchmark's inputs stay
    fixed if the package's private helper changes.
    """
    return int(np.random.SeedSequence([base_seed, n, replicate]).generate_state(1)[0])


@dataclass
class Workload:
    """A parsed, resolved workload: the spec plus the markets it solves."""

    name: str
    spec: cme.SweepSpec
    configs: tuple[cme.MarketConfig, ...]
    workers: int = 1


@dataclass
class PassResult:
    """What one pass returned, reduced to what the gate checks."""

    # (label, mode, EquilibriumResult, MarketConfig) per returned equilibrium
    equilibria: list = field(default_factory=list)
    # equilibrium label -> welfare, compared against the stored reference
    phi: dict = field(default_factory=dict)
    # sweep output: artifact path -> sha256, and the returned rows
    digests: dict = field(default_factory=dict)
    sweep_rows: list = field(default_factory=list)


def _spec_for(name: str, seed: int, size: str) -> cme.SweepSpec:
    p = WORKLOADS[name][size]
    spec = cme.parse_sweep(SWEEP_FILE)
    base = dataclasses.replace(
        spec.base, seed=seed,
        search=cme.TopicSearchParams(
            grid_resolution=p.get("grid", spec.base.search.grid_resolution),
            refine_iters=p.get("refine", spec.base.search.refine_iters)))
    if name in ("perfect_n1000", "imperfect_dim2", "sweep_small"):
        base = dataclasses.replace(
            base, dynamics=dataclasses.replace(base.dynamics, restarts=0))
    if name == "imperfect_dim2":
        centers = (cme.kernels.TopicPoint((0.2, 0.2)), cme.kernels.TopicPoint((0.8, 0.8)))
        base = dataclasses.replace(
            base, dim=2, interests=InterestSpec(
                kind="two_cluster", n=p["n"], centers=centers,
                spread=base.interests.spread))
    n_values = p.get("n_values", (p.get("n"),))
    return dataclasses.replace(spec, base=base, n_values=n_values,
                               replicates=p.get("replicates", 1))


def setup(name: str, seed: int = DEFAULT_SEED, size: str = "full") -> Workload:
    """Parse the sweep file and build every MarketConfig the workload solves."""
    spec = _spec_for(name, seed, size)
    configs = tuple(
        spec.base.build_config(n=n, m_infl=spec.m_infl_for(n),
                               seed=row_seed(seed, n, rep))
        for n in spec.n_values for rep in range(spec.replicates))
    return Workload(name=name, spec=spec, configs=configs,
                    workers=WORKLOADS[name][size].get("workers", 1))


def solve(wl: Workload, out_dir: Path) -> PassResult:
    """One pass of the workload through the public API."""
    res = PassResult()
    base = wl.spec.base
    if wl.name == "poi_n40":
        (cfg,) = wl.configs
        poi = cme.price_of_influence(cfg, params=base.dynamics, search=base.search)
        res.equilibria += [("perfect", cme.GameMode.PERFECT, poi.perfect, cfg),
                           ("imperfect", cme.GameMode.IMPERFECT, poi.imperfect, cfg)]
        res.phi = {"perfect": poi.phi_perfect, "imperfect": poi.phi_imperfect}
    elif wl.name in ("perfect_n1000", "imperfect_dim2"):
        (cfg,) = wl.configs
        mode = cme.GameMode.PERFECT if wl.name == "perfect_n1000" else cme.GameMode.IMPERFECT
        eq = cme.run_dynamics(cfg, mode, params=base.dynamics, search=base.search)
        res.equilibria.append((mode.value, mode, eq, cfg))
        res.phi = {mode.value: eq.welfare}
    elif wl.name == "sweep_small":
        if out_dir.exists():
            shutil.rmtree(out_dir)
        out = cme.run_sweep(wl.spec, out_dir, workers=wl.workers)
        res.sweep_rows = list(out.rows)
        for path in (out.csv_path, out.dat_path, *out.row_paths):
            res.digests[str(path.relative_to(out_dir))] = \
                hashlib.sha256(path.read_bytes()).hexdigest()
        for r in out.rows:
            label = f"N{r['n']}_r{r['replicate']}"
            res.phi[f"{label}.perfect"] = r["phi_perfect"]
            res.phi[f"{label}.imperfect"] = r["phi_imperfect"]
    else:
        raise KeyError(f"unknown workload {wl.name!r}")
    return res
