"""One pass of one workload, in a fresh interpreter.

    python3 bench/onepass.py --workload NAME --seed N --result FILE
                             [--trace 0|1] [--certify 0|1] [--size full|smoke]
    python3 bench/onepass.py --workload NAME --seed N --setup-only

Imports ``cme`` from the checkout's ``src/``, builds the workload's markets,
times one solve through the public API between two host-speed readings
(hostspeed.py) and runs the correctness gate on its answer.  The pass's figures go to FILE as JSON; with ``--trace 1`` the
per-layer totals go there too and the spans to ``.bench_out/``.
``--setup-only`` stops after building the markets; the caller times it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE.parent / ".bench_out"


def import_cme() -> None:
    """Put the checkout's src/ first on the path; fail if it holds no cme."""
    if not (SRC / "cme" / "__init__.py").is_file():
        sys.exit(f"benchmark: no package at {SRC / 'cme'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cme  # noqa: F401


def run_pass(args) -> dict:
    import gate
    import hostspeed
    import tracer as tracing
    import workloads

    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr)
        tr.enter("setup")
    wl = workloads.setup(args.workload, args.seed, args.size)
    if tr is not None:
        tr.exit()
        n_setup_spans = len(tr.spans)
    out_dir = OUT / args.workload / "sweep"

    kernel_before = hostspeed.kernel_s()
    if tr is not None:
        tr.enter("pass")
    t0 = time.perf_counter()
    try:
        result = workloads.solve(wl, out_dir)
        error = None
    except Exception:  # a raising pass fails every equilibrium it owed
        result, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    if tr is not None:
        tr.exit()
        # snapshot before the gate, whose own check_nash calls are not the pass's
        totals, spans = tr.totals(), list(tr.spans)
    kernel_after = hostspeed.kernel_s()

    report = {"wall_s": wall, "kernel_before_s": kernel_before,
              "kernel_after_s": kernel_after, "pass_error": error}
    if result is not None:
        ref = gate.load_reference(args.workload, args.seed) if args.size == "full" else None
        labels, fails = gate.check_pass(result, wl.spec.base.search,
                                        bool(args.certify), ref)
        report.update(labels=labels, failures=fails, phi=result.phi,
                      digest=gate.answer_digest(result))
    if tr is not None:
        report["trace"] = totals
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracing.write_spans(spans, span_file)
        report["span_file"] = str(span_file.relative_to(HERE.parent))
        # spans close in order, so the pass's tree is everything after setup's
        report["pass_self_s"] = sum(s[5] for s in spans[n_setup_spans:])
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--certify", type=int, choices=(0, 1), default=1)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_cme()
    if args.setup_only:
        import workloads
        workloads.setup(args.workload, args.seed, args.size)
        return 0
    if args.result is None:
        ap.error("--result is required unless --setup-only")
    report = run_pass(args)
    args.result.parent.mkdir(parents=True, exist_ok=True)
    args.result.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
