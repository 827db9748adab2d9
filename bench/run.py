"""The cme benchmark: one workload, timed passes, correctness gate, metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Workloads: poi_n40, perfect_n1000,
imperfect_dim2, sweep_small (see bench/README.md and workloads.py).

Set-up time is the median wall time of SETUP_PROBES fresh interpreters that
import cme, parse the sweep file and build the workload's MarketConfigs.
Set-up and pass times are rescaled to a reference host speed (hostspeed.py).
Then passes run one after another (a closed loop with one client), each in
a fresh interpreter, until the next pass would overrun --seconds; at least
one runs.  The first pass re-certifies every returned allocation; later
passes must return bit-identical answers.

With --trace 0 the last stdout line carries the end-to-end metrics
(medians over passes).  With --trace 1 passes alternate untraced and
traced, and it carries the per-layer metrics of the traced passes.  The
command exits 1 when any equilibrium fails the gate, and 2 when the
checkout holds no cme package.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
ONEPASS = HERE / "onepass.py"

SETUP_PROBES = 7
POLL_S = 0.05
# A run must end within 180 s; a child still running this many seconds after
# the start is killed with its process group and its pass counts as failed.
RUN_LIMIT_S = 165.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# layers reported from the traced passes with .calls and .self_s, and with .self_s only
CALL_LAYERS = (
    "allocator.water_fill_batch", "allocator.water_fill",
    "bestresponse.influencer", "bestresponse.consumer",
    "bestresponse.producer_perfect", "bestresponse.producer_imperfect",
    "bestresponse.producer_surrogate", "bestresponse.topic_grid",
    "kernels.pairwise_distances", "market.match_matrix",
    "market.consumer_utilities", "equilibrium.check_nash",
)
SELF_ONLY_LAYERS = ("equilibrium.run_dynamics", "scenario.parse", "scenario.write_json")


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in CALL_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for layer in SELF_ONLY_LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "allocator.water_fill_batch.rows": "count",
        "allocator.water_fill_batch.rows_per_call": "rows/call",
        "bestresponse.producer.searches": "count",
        "bestresponse.producer.moved_frac": "frac",
        "bestresponse.topic_grid.bytes": "bytes",
        "equilibrium.rounds": "count",
        "equilibrium.starts": "count",
        "scenario.row_s": "s",
        "scenario.pool_capacity_s": "s",
        "scenario.pool_busy_frac": "frac",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.span_share": "frac",
        "host.kernel_s": "s",
        "host.raw_wall_s": "s",
    })
    return units


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads() -> str:
    for line in Path("/proc/self/maps").read_text().splitlines():
        if "openblas" in line.lower():
            lib = ctypes.CDLL(line.split()[-1])
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    return str(getattr(lib, sym)())
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": ",".join(f"{k}={os.environ[k]}" for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ) or "unset",
    }


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _children(pid: int) -> list[int]:
    kids = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            kids.append(int(entry.name))
    return kids


def _rss_bytes(pid: int) -> int:
    try:
        return int(Path(f"/proc/{pid}/statm").read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


def run_child(argv: list[str], sample_tree: bool, deadline: float
              ) -> tuple[int, float, float]:
    """Run a child to completion: (exit code, wall seconds, peak RSS in MB).

    The child runs in its own process group.  A watcher thread kills that
    group if it is still running at `deadline`, or when this process is
    interrupted.  The peak is the child's own maximum RSS; with sample_tree
    the watcher also samples, every POLL_S, the child's RSS plus its
    children's (pool workers), and the larger figure is kept.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=sys.stderr, cwd=ROOT, start_new_session=True)
    done = threading.Event()
    peak = 0

    def watch():
        nonlocal peak
        while not done.wait(POLL_S):
            if time.perf_counter() > deadline:
                _kill_group(proc.pid)
                return
            if sample_tree:
                peak = max(peak, _rss_bytes(proc.pid)
                           + sum(_rss_bytes(k) for k in _children(proc.pid)))

    watcher = threading.Thread(target=watch, daemon=True)
    watcher.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        os.wait4(proc.pid, 0)
        raise
    finally:
        done.set()
        watcher.join()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, max(peak / 2**20, usage.ru_maxrss / 1024.0)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def measure_setup(args, deadline: float) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        code, wall, _ = run_child([sys.executable, str(ONEPASS), "--workload", args.workload,
                                   "--seed", str(args.seed), "--size", args.size,
                                   "--setup-only"], sample_tree=False, deadline=deadline)
        if code != 0:
            raise SystemExit(f"benchmark: set-up probe exited {code}")
        times.append(wall)
    return times


def run_passes(args, pooled: bool, deadline: float) -> list[dict]:
    """Passes until the next one would overrun --seconds (two with --trace 1).

    `pooled` workloads start pool workers, whose memory the peak includes.
    """
    passes: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        k = len(passes)
        traced = bool(args.trace) and k % 2 == 1
        result = OUT / f"pass-{args.workload}-{os.getpid()}-{k}.json"
        argv = [sys.executable, str(ONEPASS), "--workload", args.workload,
                "--seed", str(args.seed), "--size", args.size,
                "--trace", str(int(traced)), "--certify", str(int(k == 0)),
                "--result", str(result)]
        code, wall, peak = run_child(argv, sample_tree=pooled, deadline=deadline)
        rec = {"traced": traced, "exit": code, "peak_rss_mb": peak}
        if code == 0 and result.is_file():
            rec.update(json.loads(result.read_text(encoding="utf-8")))
            result.unlink()
        passes.append(rec)
        longest = max(longest, wall)
        done = len(passes) >= (2 if args.trace else 1)
        if done and time.perf_counter() - start + longest > args.seconds \
                or time.perf_counter() > deadline:
            return passes


# ---------------------------------------------------------------------------
# gate and metrics
# ---------------------------------------------------------------------------

def tally(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every pass; answers must repeat."""
    first = next((p for p in passes if p.get("labels")), None)
    owed = len(first["labels"]) if first else 1
    attempted = failed = 0
    messages = []
    for k, p in enumerate(passes):
        labels = p.get("labels")
        if labels is None:
            attempted += owed
            failed += owed
            messages.append(f"pass {k}: exit {p['exit']}; {p.get('pass_error') or 'no result'}")
            continue
        attempted += len(labels)
        bad = {label for label, _ in p["failures"]}
        messages += [f"pass {k}: {label}: {msg}" for label, msg in p["failures"]]
        if p["digest"] != first["digest"]:
            bad = set(labels)
            messages.append(f"pass {k}: answer differs from pass 0 on the same input")
        failed += len(bad)
    return attempted, failed, messages


def rescaled_wall(p: dict) -> float:
    return hostspeed.rescale(p["wall_s"], p["kernel_before_s"], p["kernel_after_s"])


def end_to_end(passes, setup_s) -> dict:
    plain = [p for p in passes if not p["traced"] and "wall_s" in p]
    return {
        "wall_s": statistics.median(rescaled_wall(p) for p in plain),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def per_layer(passes) -> dict:
    traced = [p for p in passes if p["traced"] and "trace" in p]
    plain = [p for p in passes if not p["traced"] and "wall_s" in p]
    first = traced[0]["trace"]
    calls, counts = first["calls"], first["counts"]

    def self_s(layer):
        return statistics.median(p["trace"]["self_s"].get(layer, 0.0) for p in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in CALL_LAYERS:
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.self_s"] = self_s(layer)
    for layer in SELF_ONLY_LAYERS:
        m[f"{layer}.self_s"] = self_s(layer)
    rows = counts.get("allocator.water_fill_batch.rows", 0)
    searches = counts.get("bestresponse.producer.searches", 0)
    traced_wall = statistics.median(rescaled_wall(p) for p in traced)
    m.update({
        "allocator.water_fill_batch.rows": int(rows),
        "allocator.water_fill_batch.rows_per_call":
            ratio(rows, calls.get("allocator.water_fill_batch", 0)),
        "bestresponse.producer.searches": int(searches),
        "bestresponse.producer.moved_frac":
            ratio(counts.get("bestresponse.producer.moved", 0), searches),
        "bestresponse.topic_grid.bytes": int(counts.get("bestresponse.topic_grid.bytes", 0)),
        "equilibrium.rounds": int(counts.get("equilibrium.rounds", 0)),
        "equilibrium.starts": int(counts.get("equilibrium.starts", 0)),
        "scenario.row_s": counts.get("scenario.row_s", 0.0),
        "scenario.pool_capacity_s": counts.get("scenario.pool_capacity_s", 0.0),
        "scenario.pool_busy_frac": ratio(counts.get("scenario.row_s", 0.0),
                                         counts.get("scenario.pool_capacity_s", 0.0)),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.median(rescaled_wall(p) for p in plain),
        "trace.span_share": statistics.median(p["pass_self_s"] / p["wall_s"] for p in traced),
        "host.kernel_s": statistics.median(
            k for p in passes if "wall_s" in p for k in (p["kernel_before_s"], p["kernel_after_s"])),
        "host.raw_wall_s": statistics.median(p["wall_s"] for p in plain),
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, help="default: the sweep file's, 2026")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny markets, for the benchmark's own tests")
    args = ap.parse_args(argv)

    deadline = time.perf_counter() + RUN_LIMIT_S
    # a terminated run stops its children first (run_child's cleanup)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "cme" / "__init__.py").is_file():
        print(f"benchmark: no cme package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    pooled = workloads.WORKLOADS[args.workload][args.size].get("workers", 1) > 1
    OUT.mkdir(exist_ok=True)

    env = environment()
    print("# environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# workload={args.workload} seed={args.seed} size={args.size} "
          f"seconds={args.seconds:g} trace={args.trace}")
    kernel_before = hostspeed.kernel_s()
    setup_times = measure_setup(args, deadline)
    setup_s = hostspeed.rescale(statistics.median(setup_times), kernel_before,
                                hostspeed.kernel_s())
    passes = run_passes(args, pooled, deadline)
    attempted, failed, messages = tally(passes)
    for msg in messages:
        print(f"# FAIL {msg}")

    plain = sum(not p["traced"] for p in passes)
    print(f"# passes: {plain} untraced, {len(passes) - plain} traced; "
          f"set-up probes: {len(setup_times)}; "
          f"equilibria failed/attempted: {failed}/{attempted}")
    print("# raw pass seconds: " + " ".join(f"{p['wall_s']:.4f}" for p in passes if "wall_s" in p)
          + "; host kernel us: " + " ".join(
              f"{1e6 * p['kernel_before_s']:.0f}/{1e6 * p['kernel_after_s']:.0f}"
              for p in passes if "wall_s" in p)
          + f"; raw set-up median {statistics.median(setup_times):.4f} s")
    metrics = {}
    if failed == 0:
        if args.trace:
            values, units = per_layer(passes), per_layer_units()
        else:
            values, units = end_to_end(passes, setup_s), END_TO_END
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": units[name]}
            print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
