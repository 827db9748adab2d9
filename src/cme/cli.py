"""Command-line interface.

Subcommands:
  solve SCENARIO.scn      compute equilibria, write one JSON result per mode
  check RESULT.json       re-verify a result's equilibrium certificate
  sweep SWEEP.swp         community-size sweep -> CSV + plot data + row JSONs
  poi SCENARIO.scn        perfect-vs-imperfect welfare gap for one market
  compare-modes SCN.scn   solve all regimes and cross-check proxy conditions

The CME_THREADS environment variable caps sweep workers; output is
byte-identical regardless of worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .bestresponse import GameMode, TopicSearchParams
from .equilibrium import (
    PRODUCER_TOL,
    TOL,
    check_nash,
    price_of_influence,
    proxy_equivalence_report,
    run_dynamics,
)
from .kernels import InvalidInputError
from .scenario import (
    ScenarioError,
    allocation_from_dict,
    allocation_to_dict,
    certificate_to_dict,
    config_from_dict,
    config_to_dict,
    load_result,
    median_relative_poi,
    parse_scenario,
    parse_sweep,
    result_to_dict,
    run_sweep,
    write_json,
)

_MODE_NAMES = [m.value for m in GameMode]


def _apply_overrides(scn, args):
    if getattr(args, "seed", None) is not None:
        scn = dataclasses.replace(scn, seed=args.seed)
    if getattr(args, "restarts", None) is not None:
        scn = dataclasses.replace(
            scn, dynamics=dataclasses.replace(scn.dynamics, restarts=args.restarts))
    if getattr(args, "grid", None) is not None:
        scn = dataclasses.replace(
            scn, search=dataclasses.replace(scn.search, grid_resolution=args.grid))
    return scn


def _verdict(cert) -> str:
    return "holds" if cert.holds else f"FAILS ({cert.worst()[0]})"


def _cmd_solve(args) -> int:
    scn = _apply_overrides(parse_scenario(args.scenario), args)
    modes = (GameMode.parse(args.mode),) if args.mode else scn.modes
    cfg = scn.build_config()
    out = Path(args.out)
    for mode in modes:
        res = run_dynamics(cfg, mode, params=scn.dynamics, search=scn.search)
        path = out / f"{scn.name}_{mode.value}.json"
        write_json(result_to_dict(scn.name, mode, cfg, res), path)
        print(f"{scn.name} [{mode.value}] welfare={res.welfare:.9g} "
              f"converged={res.converged} rounds={res.rounds_used} "
              f"certificate={_verdict(res.certificate)} -> {path}")
    return 0


def _cmd_check(args) -> int:
    payload = load_result(args.result)
    try:
        cfg = config_from_dict(payload["config"])
        omega = allocation_from_dict(payload["allocation"])
    except ScenarioError as exc:
        raise ScenarioError(f"{args.result}: {exc}") from None
    mode = GameMode.parse(args.mode or payload["mode"])
    cert = check_nash(omega, cfg, mode, tol=args.tol,
                      producer_tol=args.producer_tol,
                      search=TopicSearchParams(grid_resolution=args.grid))
    for name in sorted(cert.residuals):
        print(f"  {name:28s} {cert.residuals[name]:.3e}")
    print(f"certificate [{mode.value}] tol={args.tol:g} "
          f"producer_tol={args.producer_tol:g}: {_verdict(cert)}")
    return 0 if cert.holds else 1


def _cmd_sweep(args) -> int:
    spec = parse_sweep(args.sweep_file)
    base = _apply_overrides(spec.base, args)
    spec = dataclasses.replace(spec, base=base)
    output = run_sweep(spec, out_dir=args.out)
    failed = [r for r in output.rows if r["error"] is not None]
    print(f"wrote {output.csv_path} ({len(output.rows)} rows"
          + (f", {len(failed)} failed" if failed else "") + ")")
    for r in failed:
        print(f"  N={r['n']:4d}  replicate {r['replicate']} failed: {r['error']}")
    print(f"wrote {output.dat_path}")
    for n, med in median_relative_poi(output).items():
        print(f"  N={n:4d}  median relative poi = {med:.6g}")
    return 0


def _cmd_poi(args) -> int:
    scn = _apply_overrides(parse_scenario(args.scenario), args)
    cfg = scn.build_config()
    rec = price_of_influence(cfg, params=scn.dynamics, search=scn.search)
    payload = {
        "scenario": scn.name,
        "config": config_to_dict(cfg),
        "phi_perfect": rec.phi_perfect,
        "phi_imperfect": rec.phi_imperfect,
        "poi": rec.poi,
        "relative_poi": rec.relative_poi,
        "perfect": {"converged": rec.perfect.converged,
                    "certificate": certificate_to_dict(rec.perfect.certificate),
                    "allocation": allocation_to_dict(rec.perfect.omega)},
        "imperfect": {"converged": rec.imperfect.converged,
                      "certificate": certificate_to_dict(rec.imperfect.certificate),
                      "allocation": allocation_to_dict(rec.imperfect.omega)},
    }
    path = Path(args.out) / f"{scn.name}_poi.json"
    write_json(payload, path)
    print(f"{scn.name}: perfect={rec.phi_perfect:.9g} "
          f"imperfect={rec.phi_imperfect:.9g} poi={rec.poi:.3e} "
          f"relative={rec.relative_poi:.3e} -> {path}")
    return 0


def _cmd_compare_modes(args) -> int:
    scn = _apply_overrides(parse_scenario(args.scenario), args)
    cfg = scn.build_config()
    rep = proxy_equivalence_report(cfg, params=scn.dynamics, search=scn.search,
                                   tol=args.tol)
    payload = {
        "scenario": scn.name,
        "config": config_to_dict(cfg),
        "welfare": {"perfect": rep.perfect.welfare,
                    "imperfect": rep.imperfect.welfare,
                    "proxy": rep.proxy.welfare},
        "direct_rate_mass_perfect": rep.direct_rate_mass_perfect,
        "direct_rate_mass_imperfect": rep.direct_rate_mass_imperfect,
        "perfect_is_proxy": rep.perfect_is_proxy,
        "imperfect_is_proxy": rep.imperfect_is_proxy,
        "perfect_under_proxy": certificate_to_dict(rep.perfect_under_proxy),
        "imperfect_under_proxy": certificate_to_dict(rep.imperfect_under_proxy),
    }
    path = Path(args.out) / f"{scn.name}_compare.json"
    write_json(payload, path)
    for mode, res in (("perfect", rep.perfect), ("imperfect", rep.imperfect),
                      ("proxy", rep.proxy)):
        print(f"{mode:10s} welfare={res.welfare:.9g} "
              f"certificate={_verdict(res.certificate)}")
    print(f"direct rate mass: perfect={rep.direct_rate_mass_perfect:.3e} "
          f"imperfect={rep.direct_rate_mass_imperfect:.3e}")
    print(f"perfect satisfies proxy conditions:   {rep.perfect_is_proxy}")
    print(f"imperfect satisfies proxy conditions: {rep.imperfect_is_proxy} -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cme",
        description="Equilibrium engine for content markets with an "
                    "attention-constrained influencer.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=True):
        if seed:
            sp.add_argument("--seed", type=int, help="override the scenario seed")
        sp.add_argument("--restarts", type=int,
                        help="override the number of random restarts")
        sp.add_argument("--grid", type=int,
                        help="override the topic-grid resolution")
        sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("solve", help="compute equilibria for a scenario")
    sp.add_argument("scenario", help="path to a .scn file")
    sp.add_argument("--mode", choices=_MODE_NAMES,
                    help="solve only this regime (default: scenario's modes)")
    common(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("check", help="re-verify a solve result file")
    sp.add_argument("result", help="path to a result .json from solve")
    sp.add_argument("--mode", choices=_MODE_NAMES,
                    help="check under this regime (default: the result's)")
    sp.add_argument("--tol", type=float, default=TOL,
                    help="tolerance for rate conditions (default %(default)g)")
    sp.add_argument("--producer-tol", type=float, default=PRODUCER_TOL,
                    help="relative tolerance for producer grid gaps "
                         "(default %(default)g)")
    sp.add_argument("--grid", type=int, default=TopicSearchParams.grid_resolution,
                    help="topic-grid resolution for producer conditions "
                         "(default %(default)d)")
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("sweep", help="run a community-size sweep")
    sp.add_argument("sweep_file", help="path to a .swp file")
    common(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("poi", help="perfect-vs-imperfect welfare gap")
    sp.add_argument("scenario", help="path to a .scn file")
    common(sp)
    sp.set_defaults(func=_cmd_poi)

    sp = sub.add_parser("compare-modes",
                        help="solve all regimes and cross-check proxy conditions")
    sp.add_argument("scenario", help="path to a .scn file")
    sp.add_argument("--tol", type=float, default=TOL,
                    help="tolerance for the proxy cross-certificates "
                         "(default %(default)g)")
    common(sp)
    sp.set_defaults(func=_cmd_compare_modes)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
