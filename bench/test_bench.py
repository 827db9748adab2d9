"""The benchmark's own tests, on smoke-size markets.

    python3 -m pytest bench -q

They check that the command prints exactly the metrics BENCHMARK.json
names, that the correctness gate trips on a perturbed allocation, a wrong
reference welfare, a falling perfect-mode trace and a changed answer, that
span self times are nonnegative and add up to the traced wall time, and
that a directory without the package makes the command fail.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import cme  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# Self times of the spans inside a pass must add up to its measured wall
# time to within this share (the root span opens just before the clock
# starts and closes just after it stops).
SPAN_SUM_SHARE = 0.01


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.fixture(scope="module")
def poi_smoke():
    wl = workloads.setup("poi_n40", workloads.DEFAULT_SEED, "smoke")
    return wl, workloads.solve(wl, Path("unused"))


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, kind, workload", [
    ("0", "end_to_end", "imperfect_dim2"),
    ("1", "per_layer", "sweep_small"),
])
def test_printed_metrics_match_benchmark_json(trace, kind, workload):
    proc = _bench("--workload", workload, "--size", "smoke", "--seconds", "0",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared(kind)


def test_gate_passes_a_solved_market(poi_smoke):
    wl, result = poi_smoke
    labels, fails = gate.check_pass(result, wl.spec.base.search, certify=True,
                                    ref=dict(result.phi))
    assert labels == ["perfect", "imperfect"]
    assert fails == []


def test_gate_trips_on_perturbed_allocation(poi_smoke):
    wl, result = poi_smoke
    label, mode, eq, cfg = result.equilibria[0]
    mu = np.array(eq.omega.influencer.mu)
    mu[0], mu[-1] = mu[0] + 0.1 * cfg.m_infl, max(mu[-1] - 0.1 * cfg.m_infl, 0.0)
    moved = dataclasses.replace(eq.omega, influencer=cme.InfluencerAllocation(mu=mu))
    bad = dataclasses.replace(eq, omega=moved)
    assert gate.check_equilibrium(label, mode, eq, cfg, wl.spec.base.search, True) == []
    fails = gate.check_equilibrium(label, mode, bad, cfg, wl.spec.base.search, True)
    assert [lab for lab, _ in fails] == [label]


def test_gate_trips_on_wrong_reference(poi_smoke):
    _, result = poi_smoke
    near = {k: v * (1.0 + 1e-12) for k, v in result.phi.items()}
    off = dict(result.phi, imperfect=result.phi["imperfect"] * (1.0 + 1e-6))
    assert gate.check_reference(result.phi, near) == []
    assert [lab for lab, _ in gate.check_reference(result.phi, off)] == ["imperfect"]
    assert gate.check_reference({}, {"perfect": 1.0})


def test_gate_flags_falling_perfect_trace():
    assert gate.trace_drops([1.0, 2.0, 2.0 * (1.0 - 1e-12), 3.0]) == []
    assert gate.trace_drops([1.0, 2.0, 1.5, 3.0]) == [2]


def test_changed_answer_fails_every_equilibrium_of_that_pass():
    ok = {"traced": False, "exit": 0, "labels": ["a", "b"], "failures": [], "digest": "x"}
    passes = [ok, dict(ok, digest="y"), dict(ok, failures=[["a", "m"], ["a", "n"]]),
              {"traced": False, "exit": 1}]
    attempted, failed, messages = run.tally(passes)
    assert (attempted, failed) == (8, 5)
    assert len(messages) == 4


def test_spans_are_nonnegative_and_cover_the_pass(tmp_path):
    out = tmp_path / "pass.json"
    subprocess.run([sys.executable, str(HERE / "onepass.py"), "--workload", "perfect_n1000",
                    "--seed", "7", "--size", "smoke", "--trace", "1", "--result", str(out)],
                   cwd=ROOT, check=True, timeout=300)
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["failures"] == []
    assert all(v >= 0.0 for v in report["trace"]["self_s"].values())
    assert report["pass_self_s"] == pytest.approx(report["wall_s"], rel=SPAN_SUM_SHARE)
    with gzip.open(ROOT / report["span_file"], "rt", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert spans and all(s["self"] >= 0.0 and s["end"] >= s["start"] for s in spans)
    assert report["trace"]["calls"].get("allocator.water_fill_batch", 0) == 0
    assert report["trace"]["calls"]["allocator.water_fill"] > 0


def test_a_child_past_the_deadline_is_killed():
    start = time.perf_counter()
    code, wall, _ = run.run_child([sys.executable, "-c", "import time; time.sleep(60)"],
                                  sample_tree=True, deadline=start + 0.5)
    assert code != 0
    assert wall < 30.0


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "poi_n40", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
