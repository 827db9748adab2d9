"""Scenario/sweep parsing, sampling determinism, and sweep output integrity."""

import dataclasses
import json
import os
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from cme import scenario
from cme.bestresponse import GameMode
from cme.equilibrium import run_dynamics
from cme.kernels import InvalidInputError, TopicPoint
from cme.market import social_welfare
from cme.scenario import (
    CSV_HEADER,
    InterestSpec,
    ScenarioError,
    allocation_from_dict,
    allocation_to_dict,
    config_from_dict,
    config_to_dict,
    median_relative_poi,
    parse_scenario,
    parse_sweep,
    run_sweep,
    worker_count,
)

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"


def write(tmp_path: Path, name: str, text: str) -> Path:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


MINIMAL = """
[scenario]
modes = perfect proxy
seed = 5

[market]
m = 1.0
m_infl = 2.0

[interests]
kind = explicit
points = 0.1 0.9
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_scenario_defaults(tmp_path):
    scn = parse_scenario(write(tmp_path, "mini.scn", MINIMAL))
    assert scn.name == "mini"  # falls back to the file stem
    assert scn.modes == (GameMode.PERFECT, GameMode.PROXY)
    assert scn.seed == 5
    assert scn.dim == 1
    assert scn.r_p == 1.0 and scn.b_0 == 0.5
    assert scn.kernel.a_f == 2.0 and scn.delay.beta == 1.0
    assert scn.dynamics.max_rounds == 500 and scn.dynamics.restarts == 2
    assert scn.search.grid_resolution == 256
    cfg = scn.build_config()
    assert cfg.n == 2
    assert cfg.interests == (TopicPoint((0.1,)), TopicPoint((0.9,)))


def test_parse_bundled_fixtures():
    scn = parse_scenario(FIXTURES / "symmetric.scn")
    assert scn.name == "symmetric"
    assert len(scn.modes) == 3
    spec = parse_sweep(FIXTURES / "poi_sweep.swp")
    assert spec.n_values == (5, 10, 20, 40)
    assert spec.m_infl_rule == "proportional"
    assert spec.replicates == 5
    assert spec.m_infl_for(40) == pytest.approx(40.0)
    det = parse_sweep(FIXTURES / "determinism.swp")
    assert det.base.dynamics.restarts == 0


def test_dim2_points_parse(tmp_path):
    text = MINIMAL.replace("m = 1.0", "m = 1.0\ndim = 2").replace(
        "points = 0.1 0.9", "points = 0.1,0.2 0.9,0.8")
    scn = parse_scenario(write(tmp_path, "d2.scn", text))
    cfg = scn.build_config()
    assert cfg.dim == 2
    assert cfg.interests[1].coords == (0.9, 0.8)


@pytest.mark.parametrize("mangle, fragment", [
    (lambda t: t.replace("m = 1.0\n", ""), "missing required key 'm'"),
    (lambda t: t.replace("kind = explicit", "kind = gaussian"), "kind"),
    (lambda t: t.replace("points = 0.1 0.9", "points = 0.1,0.2 0.9"),
     "coordinates"),
    (lambda t: t.replace("seed = 5", "seed = five"), "not a valid int"),
    (lambda t: t.replace("seed = 5", "seed = -5"),
     r"bad\.scn: \[scenario\] seed must be nonnegative, got -5"),
    (lambda t: t + "\n[extra]\nfoo = 1\n", "unknown section"),
    (lambda t: t.replace("m_infl = 2.0", "m_infl = 2.0\nwobble = 1"),
     "unknown key 'wobble'"),
    (lambda t: t.replace("modes = perfect proxy", "modes = sideways"),
     "sideways"),
    (lambda t: t.replace("[interests]\nkind = explicit\n", "[interests]\n"),
     "missing required key 'kind'"),
    # the market's own rules, met when the file is parsed rather than solved
    (lambda t: t.replace("m = 1.0", "m = -1.0"), r"bad\.scn: m must be positive"),
    (lambda t: t.replace("m = 1.0", "m = 1.0\nb_0 = 3"), r"bad\.scn: b_0 must lie in"),
    (lambda t: t.replace("m = 1.0", "m = 1.0\nr_p = 0"), r"bad\.scn: r_p must be positive"),
])
def test_malformed_scenarios_name_the_field(tmp_path, mangle, fragment):
    path = write(tmp_path, "bad.scn", mangle(MINIMAL))
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario(path)


@pytest.mark.parametrize("key", ["schedule", "eps_alloc", "eps_potential"])
def test_schedule_key_is_unknown(tmp_path, key):
    # round-robin is the only schedule and the stopping rules are fixed, so
    # there is no key to choose either
    text = MINIMAL + f"\n[dynamics]\n{key} = 1\n"
    with pytest.raises(ScenarioError, match=f"unknown key '{key}'"):
        parse_scenario(write(tmp_path, "sched.scn", text))


def test_refine_iters_still_parses_and_changes_nothing(tmp_path):
    # the step count of the former dim-1 golden-section polish: an old file
    # that sets it still parses, a negative value is still an error, and
    # the answers are the same as without it
    text = (FIXTURES / "symmetric.scn").read_text(encoding="utf-8")
    assert "refine_iters" not in text
    plain = parse_scenario(FIXTURES / "symmetric.scn")
    keyed = parse_scenario(write(tmp_path, "symmetric.scn",
                                 text.replace("[search]\n", "[search]\nrefine_iters = 7\n")))
    assert keyed.search.refine_iters == 7
    with pytest.raises(ScenarioError, match="refine_iters"):
        parse_scenario(write(tmp_path, "bad.scn",
                             text.replace("[search]\n", "[search]\nrefine_iters = -1\n")))
    for mode in plain.modes:
        a, b = (run_dynamics(s.build_config(), mode, params=s.dynamics, search=s.search)
                for s in (plain, keyed))
        assert a.welfare == b.welfare and a.potential_trace == b.potential_trace
        assert a.certificate == b.certificate
        for f in ("lam", "mu_i", "mu_infl", "X"):
            assert np.array_equal(getattr(a.omega, f), getattr(b.omega, f))
        assert np.array_equal(a.omega.direct.toarray(), b.omega.direct.toarray())


def test_sweep_requires_sampled_interests(tmp_path):
    text = MINIMAL + "\n[sweep]\nn_values = 3 5\n"
    with pytest.raises(ScenarioError, match="explicit"):
        parse_sweep(write(tmp_path, "bad.swp", text))


def test_sweep_rejects_unsorted_axis(tmp_path):
    text = MINIMAL.replace(
        "kind = explicit\npoints = 0.1 0.9", "kind = uniform\nn = 4"
    ) + "\n[sweep]\nn_values = 5 5\n"
    with pytest.raises(ScenarioError, match="strictly increasing"):
        parse_sweep(write(tmp_path, "bad.swp", text))


@pytest.mark.parametrize("rule", ["fixed", "proportional"])
def test_sweep_file_market_fails_at_parse(tmp_path, rule):
    # the base market is built from the file's own m_infl, which must be
    # positive even where the proportional rule replaces it in every row
    text = (FIXTURES / "poi_sweep.swp").read_text(encoding="utf-8").replace(
        "m_infl = 5.0", "m_infl = -2.0").replace(
        "m_infl_rule = proportional", f"m_infl_rule = {rule}")
    with pytest.raises(ScenarioError, match=r"bad\.swp: m_infl must be positive"):
        parse_sweep(write(tmp_path, "bad.swp", text))


@pytest.mark.parametrize("change, fragment", [
    ({"m_infl_rule": "bogus"}, "m_infl_rule must be fixed or proportional"),
    ({"k_infl": -1.0}, "k_infl must be positive"),
    ({"replicates": 0}, "replicates must be at least 1"),
    ({"n_values": (5, 5)}, "strictly increasing"),
    ({"n_values": (1, 5)}, "at least 2"),
    ({"n_values": ()}, "strictly increasing"),
])
def test_sweep_spec_built_in_code_is_checked(change, fragment):
    spec = parse_sweep(FIXTURES / "poi_sweep.swp")
    with pytest.raises(InvalidInputError, match=fragment):
        dataclasses.replace(spec, **change)


def test_scenario_file_rejects_sweep_section(tmp_path):
    text = MINIMAL + "\n[sweep]\nn_values = 3 5\n"
    with pytest.raises(ScenarioError, match="unknown section"):
        parse_scenario(write(tmp_path, "has_sweep.scn", text))


# ---------------------------------------------------------------------------
# interest sampling
# ---------------------------------------------------------------------------


def test_uniform_sampling_deterministic():
    spec = InterestSpec(kind="uniform", n=6)
    a = spec.sample(6, 1, np.random.default_rng(3))
    b = spec.sample(6, 1, np.random.default_rng(3))
    assert a == b
    assert all(0.0 <= p.coords[0] <= 1.0 for p in a)


def test_two_cluster_alternates_and_clips():
    spec = InterestSpec(kind="two_cluster", n=8,
                        centers=(TopicPoint((0.1,)), TopicPoint((0.9,))),
                        spread=0.02)
    pts = spec.sample(8, 1, np.random.default_rng(0))
    for i, p in enumerate(pts):
        center = 0.1 if i % 2 == 0 else 0.9
        assert abs(p.coords[0] - center) < 0.12  # few sigma, clipped to box
        assert 0.0 <= p.coords[0] <= 1.0


@pytest.mark.parametrize("fields, fragment", [
    ({"kind": "gaussian", "n": 4}, "kind must be explicit, uniform or two_cluster"),
    ({"kind": "uniform", "n": 1}, "n must be at least 2"),
    ({"kind": "two_cluster", "n": 4, "spread": 0.1}, "needs centers"),
    ({"kind": "two_cluster", "n": 4, "centers": (TopicPoint((0.5,)),)},
     "spread must be positive"),
])
def test_interest_spec_built_in_code_is_checked(fields, fragment):
    with pytest.raises(InvalidInputError, match=fragment):
        InterestSpec(**fields)


def test_explicit_spec_rejects_resizing():
    spec = InterestSpec(kind="explicit", points=(TopicPoint((0.5,)),
                                                 TopicPoint((0.6,))))
    with pytest.raises(ScenarioError, match="community size"):
        spec.sample(5, 1, np.random.default_rng(0))


def test_build_config_seed_controls_sampling(tmp_path):
    text = MINIMAL.replace("kind = explicit\npoints = 0.1 0.9",
                           "kind = uniform\nn = 5")
    scn = parse_scenario(write(tmp_path, "u.scn", text))
    a = scn.build_config()
    b = scn.build_config()
    c = scn.build_config(seed=scn.seed + 1)
    assert a.interests == b.interests
    assert a.interests != c.interests


# ---------------------------------------------------------------------------
# serialization round-trips
# ---------------------------------------------------------------------------


def test_allocation_round_trip_keeps_sparse_rows():
    # keys in any order, zero rates and rows holding no rate: the JSON
    # form lists each consumer's positive rates by ascending producer
    d = {"consumers": [{"lambda_out": 0.5, "mu_infl_follow": 0.1,
                        "mu_direct": {"2": 0.25, "1": 0.125, "3": 0.0}},
                       {"lambda_out": 0.5, "mu_infl_follow": 0.5, "mu_direct": {}},
                       {"lambda_out": 0.25, "mu_infl_follow": 0.5, "mu_direct": {"0": 0.25}},
                       {"lambda_out": 1.0, "mu_infl_follow": 0.0, "mu_direct": {}}],
         "influencer": [1.0, 0.0, 0.5, 0.5], "content": [[0.1], [0.2], [0.3], [0.4]]}
    omega = allocation_from_dict(d)
    assert omega.direct.indptr.tolist() == [0, 2, 2, 3, 3]
    assert omega.direct.cols.tolist() == [1, 2, 0]
    assert omega.direct.rates.tolist() == [0.125, 0.25, 0.25]
    back = json.loads(json.dumps(allocation_to_dict(omega)))
    assert back["consumers"][0]["mu_direct"] == {"1": 0.125, "2": 0.25}
    assert allocation_from_dict(back).direct.toarray().tolist() == omega.direct.toarray().tolist()


def test_config_and_allocation_round_trip(tmp_path):
    import sys
    sys.path.insert(0, str(Path(__file__).parent))
    from markets_util import random_allocation, random_config

    rng = np.random.default_rng(9)
    cfg = random_config(rng, n_max=5)
    cfg2 = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
    assert cfg2 == cfg

    omega = random_allocation(rng, cfg)
    omega2 = allocation_from_dict(
        json.loads(json.dumps(allocation_to_dict(omega))))
    for f in ("lam", "mu_i", "mu_infl", "X"):
        assert np.array_equal(getattr(omega, f), getattr(omega2, f))
    for f in ("indptr", "cols", "rates"):
        assert np.array_equal(getattr(omega.direct, f), getattr(omega2.direct, f))
    assert omega2.direct.n == cfg.n and omega.direct.nnz == cfg.n * (cfg.n - 1)


@pytest.mark.parametrize("key, match", [("7", "unknown producer 7"), ("-1", "unknown producer -1"),
                                        ("x", "mu_direct key 'x'"), ("01", "mu_direct key '01'"),
                                        ("+1", "mu_direct key '\\+1'"),
                                        (" 1", "mu_direct key ' 1'"),
                                        ("1_0", "mu_direct key '1_0'")])
def test_allocation_from_dict_rejects_unknown_producers(key, match):
    d = {"consumers": [{"lambda_out": 0.5, "mu_infl_follow": 0.5, "mu_direct": {key: 0.1}},
                       {"lambda_out": 0.5, "mu_infl_follow": 0.5, "mu_direct": {}}],
         "influencer": [0.5, 0.5], "content": [[0.2], [0.8]]}
    with pytest.raises(ScenarioError, match=f"consumer 0.*{match}"):
        allocation_from_dict(d)


# ---------------------------------------------------------------------------
# sweep execution
# ---------------------------------------------------------------------------


def test_small_sweep_outputs(tmp_path):
    spec = parse_sweep(FIXTURES / "determinism.swp")
    out = run_sweep(spec, out_dir=tmp_path / "out", workers=1)

    csv = out.csv_path.read_text(encoding="utf-8").splitlines()
    assert csv[0] == CSV_HEADER
    assert len(csv) == 1 + len(spec.n_values) * spec.replicates
    first = csv[1].split(",")
    assert first[0] == "3" and first[2] == "0"
    assert first[7] == "perfect=1;imperfect=1"

    dat = out.dat_path.read_text(encoding="utf-8").splitlines()
    assert dat[0] == "# N median_relative_poi"
    assert len(dat) == 1 + len(spec.n_values)

    meds = median_relative_poi(out)
    assert set(meds) == {3, 4}

    assert all(r["error"] is None for r in out.rows)

    # every stored row re-validates: welfare == social_welfare(allocation)
    assert len(out.row_paths) == 4
    for p in out.row_paths:
        detail = json.loads(p.read_text(encoding="utf-8"))
        cfg = config_from_dict(detail["config"])
        for mode in ("perfect", "imperfect"):
            omega = allocation_from_dict(detail[mode]["allocation"])
            assert detail[mode]["welfare"] == pytest.approx(
                social_welfare(omega, cfg), abs=1e-9)
        assert detail["poi"] >= -1e-9


def test_sweep_byte_identical_across_worker_counts(tmp_path):
    spec = parse_sweep(FIXTURES / "determinism.swp")
    a = run_sweep(spec, out_dir=tmp_path / "a", workers=1)
    b = run_sweep(spec, out_dir=tmp_path / "b", workers=2)
    assert a.csv_path.read_bytes() == b.csv_path.read_bytes()
    assert a.dat_path.read_bytes() == b.dat_path.read_bytes()
    for pa, pb in zip(a.row_paths, b.row_paths):
        assert pa.name == pb.name
        assert pa.read_bytes() == pb.read_bytes()


def test_sweep_pool_is_kept_and_a_broken_one_replaced(tmp_path):
    spec = parse_sweep(FIXTURES / "determinism.swp")
    a = run_sweep(spec, out_dir=tmp_path / "a", workers=2)
    pool = scenario._kept_pool[1]
    b = run_sweep(spec, out_dir=tmp_path / "b", workers=2)
    assert scenario._kept_pool[1] is pool
    with pytest.raises(BrokenProcessPool):  # a worker dies between sweeps
        pool.submit(os._exit, 1).result()
    c = run_sweep(spec, out_dir=tmp_path / "c", workers=2)
    assert scenario._kept_pool[1] is not pool
    d = run_sweep(spec, out_dir=tmp_path / "d", workers=3)
    assert scenario._kept_pool[0][0] == 3
    assert len({o.csv_path.read_bytes() for o in (a, b, c, d)}) == 1


def test_failed_sweep_row_keeps_the_message(tmp_path, monkeypatch):
    def fail(cfg, params=None, search=None):
        raise ArithmeticError("dynamics failed")

    monkeypatch.setattr(scenario, "price_of_influence", fail)
    out = run_sweep(parse_sweep(FIXTURES / "determinism.swp"), out_dir=tmp_path, workers=1)
    assert [r["error"] for r in out.rows] == ["ArithmeticError: dynamics failed"] * 4
    assert all(r["converged_flags"] == "error=ArithmeticError" for r in out.rows)
    assert out.row_paths == ()


def test_worker_count_env_override(monkeypatch):
    monkeypatch.delenv("CME_THREADS", raising=False)
    assert worker_count(8, workers=3) == 3
    monkeypatch.setenv("CME_THREADS", "2")
    assert worker_count(8) == 2
    assert worker_count(1) == 1  # never more workers than tasks
    monkeypatch.setenv("CME_THREADS", "zero")
    with pytest.raises(ScenarioError, match="CME_THREADS"):
        worker_count(8)
