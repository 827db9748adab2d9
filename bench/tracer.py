"""Per-layer spans recorded from outside the package.

``install`` replaces each traced ``cme`` function, under every module name
it is bound to, with a wrapper that opens a span around the call.  Nothing
under ``src/`` changes.  A function missing from the package (renamed or
deleted by a later change) is skipped, so its layer reports 0 calls.

Spans nest on a stack: a span's self time is its duration minus the time
its child spans cover.  Spans are kept in memory and written out by
``write_spans`` when the pass ends.

Sweep rows run in pool workers.  The pool forks, so workers inherit the
wrappers; the wrapped ``cme.scenario._sweep_row`` starts a fresh record in
the worker, times the row and returns the worker's per-layer totals inside
the row dict under ``_bench_trace``, which the parent strips and merges.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute) -> span name.  The module is where the function is
# defined; install() also patches every other cme module that imports it.
LAYERS = {
    ("kernels", "pairwise_distances"): "kernels.pairwise_distances",
    ("allocator", "water_fill"): "allocator.water_fill",
    ("allocator", "water_fill_batch"): "allocator.water_fill_batch",
    ("market", "match_matrix"): "market.match_matrix",
    ("market", "consumer_utilities"): "market.consumer_utilities",
    ("bestresponse", "influencer_br_dense"): "bestresponse.influencer",
    ("bestresponse", "consumer_br_dense"): "bestresponse.consumer",
    ("bestresponse", "producer_br_perfect_dense"): "bestresponse.producer_perfect",
    ("bestresponse", "producer_br_imperfect_dense"): "bestresponse.producer_imperfect",
    ("bestresponse", "producer_br_surrogate_dense"): "bestresponse.producer_surrogate",
    ("equilibrium", "run_dynamics"): "equilibrium.run_dynamics",
    ("equilibrium", "run_dynamics_all"): "equilibrium.run_dynamics",
    ("equilibrium", "check_nash"): "equilibrium.check_nash",
    ("equilibrium", "price_of_influence"): "equilibrium.price_of_influence",
    ("scenario", "parse_sweep"): "scenario.parse",
    ("scenario", "parse_scenario"): "scenario.parse",
    ("scenario", "write_json"): "scenario.write_json",
    ("scenario", "run_sweep"): "scenario.run_sweep",
}

class Tracer:
    """Span stack plus per-name totals; one per process."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []      # (id, parent id, name, start, end, self)
        self._stack: list[list] = []      # open spans: [id, name, start, child time]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def enter(self, name: str) -> None:
        self._stack.append([len(self.spans) + len(self._stack), name,
                            time.perf_counter(), 0.0])

    def exit(self) -> float:
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        own = dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((sid, parent[0] if parent else None, name, start, end, own))
        self.calls[name] += 1
        self.self_s[name] += own
        return dur

    def totals(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}

    def merge(self, totals: dict) -> None:
        """Add another process's totals (a sweep worker's rows)."""
        for name, v in totals["calls"].items():
            self.calls[name] += v
        for name, v in totals["self_s"].items():
            self.self_s[name] += v
        for name, v in totals["counts"].items():
            self.counts[name] += v


def write_spans(spans, path: Path) -> None:
    """Write span records as gzipped JSON lines, in order of opening."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for sid, parent, name, start, end, own in sorted(spans):
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start": start, "end": end, "self": own}) + "\n")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else (args[index] if len(args) > index else None)


def _count_rows(tr, args, kwargs, out, dur):
    tr.counts["allocator.water_fill_batch.rows"] += np.shape(
        _arg(args, kwargs, 0, "weight_rows"))[0]


def _count_moves(tr, args, kwargs, out, dur):
    prev = kwargs.get("prev_x")
    if prev is None:
        return
    tr.counts["bestresponse.producer.searches"] += 1
    tr.counts["bestresponse.producer.moved"] += not np.array_equal(out[0], prev)


def _count_starts(tr, args, kwargs, out, dur):
    tr.counts["equilibrium.starts"] += len(out)
    tr.counts["equilibrium.rounds"] += sum(r.rounds_used for r in out)


def _count_sweep(tr, args, kwargs, out, dur):
    """Pool capacity of one run_sweep: workers x its wall time."""
    scen = sys.modules["cme.scenario"]
    spec = _arg(args, kwargs, 0, "spec")
    workers = scen.worker_count(len(spec.n_values) * spec.replicates,
                                _arg(args, kwargs, 2, "workers"))
    tr.counts["scenario.pool_capacity_s"] += workers * dur
    collect_rows(tr, out.rows)


HOOKS = {
    "water_fill_batch": _count_rows,
    "producer_br_perfect_dense": _count_moves,
    "producer_br_imperfect_dense": _count_moves,
    "producer_br_surrogate_dense": _count_moves,
    "run_dynamics_all": _count_starts,
    "run_sweep": _count_sweep,
}


def _wrap(fn, name, tracer, hook=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = tracer.exit()
        if hook is not None:
            hook(tracer, args, kwargs, out, dur)
        return out

    traced.__bench_traced__ = True
    return traced


def _cme_modules():
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "cme" or key.startswith("cme."))]


def install(tracer: Tracer) -> None:
    """Wrap every traced function under every module name it is bound to."""
    import cme  # noqa: F401  (loads every submodule)

    modules = _cme_modules()
    for (mod, attr), name in LAYERS.items():
        home = sys.modules.get(f"cme.{mod}")
        fn = getattr(home, attr, None)
        if fn is None or getattr(fn, "__bench_traced__", False):
            continue
        w = _wrap(fn, name, tracer, HOOKS.get(attr))
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, key, w)
    _install_grid(tracer)
    _install_row(tracer)


def _install_grid(tracer: Tracer) -> None:
    """TopicGrid is built through its class, so its __init__ is wrapped.

    Its bytes are those of the (G, N) kernel tables, 2 * 8 * G * N.
    """
    grid_cls = getattr(sys.modules.get("cme.bestresponse"), "TopicGrid", None)
    if grid_cls is None:
        return
    init = grid_cls.__init__

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        tracer.enter("bestresponse.topic_grid")
        try:
            init(self, *args, **kwargs)
        finally:
            tracer.exit()
        points = getattr(self, "points", None)
        tracer.counts["bestresponse.topic_grid.bytes"] += sum(
            a.nbytes for a in vars(self).values()
            if isinstance(a, np.ndarray) and a.ndim == 2 and a is not points)

    grid_cls.__init__ = traced_init


def _install_row(tracer: Tracer) -> None:
    """Time sweep rows where they run; ship worker totals back in the row."""
    scen = sys.modules.get("cme.scenario")
    row_fn = getattr(scen, "_sweep_row", None)
    if row_fn is None:
        return
    parent_pid = os.getpid()

    @functools.wraps(row_fn)
    def traced_row(args):
        in_worker = os.getpid() != parent_pid
        if in_worker:
            tracer.reset()
        tracer.enter("scenario.row")
        try:
            row = row_fn(args)
        finally:
            dur = tracer.exit()
        tracer.counts["scenario.row_s"] += dur
        tracer.counts["scenario.rows"] += 1
        if in_worker:
            row = dict(row, _bench_trace=tracer.totals())
        return row

    scen._sweep_row = traced_row


def collect_rows(tracer: Tracer, rows) -> None:
    """Merge and strip the worker totals carried by returned sweep rows."""
    for row in rows:
        totals = row.pop("_bench_trace", None)
        if totals is not None:
            tracer.merge(totals)
