"""End-to-end CLI tests: exit codes, output files, and verdict wording."""

import json
from pathlib import Path

import pytest

from cme import scenario
from cme.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"
SYMMETRIC = str(FIXTURES / "symmetric.scn")
FAST = ["--grid", "64", "--restarts", "0"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_writes_one_result_per_mode(tmp_path, capsys):
    code, out, err = run(["solve", SYMMETRIC, "--out", str(tmp_path)] + FAST,
                         capsys)
    assert code == 0 and err == ""
    for mode in ("perfect", "imperfect", "proxy"):
        path = tmp_path / f"symmetric_{mode}.json"
        assert path.exists()
        assert f"[{mode}]" in out
        payload = json.loads(path.read_text())
        assert payload["mode"] == mode
        assert payload["converged"] is True
        assert payload["certificate"]["holds"] is True
        assert payload["potential_trace"]
    assert "welfare=" in out and "certificate=holds" in out


def test_solve_mode_proxy_has_zero_direct_rates(tmp_path, capsys):
    code, out, _ = run(["solve", SYMMETRIC, "--mode", "proxy",
                        "--out", str(tmp_path)] + FAST, capsys)
    assert code == 0
    payload = json.loads((tmp_path / "symmetric_proxy.json").read_text())
    for consumer in payload["allocation"]["consumers"]:
        assert consumer["mu_direct"] == {}
    assert not (tmp_path / "symmetric_perfect.json").exists()


def test_check_of_solve_output_holds(tmp_path, capsys):
    run(["solve", SYMMETRIC, "--mode", "perfect", "--out", str(tmp_path)]
        + FAST, capsys)
    code, out, _ = run(["check", str(tmp_path / "symmetric_perfect.json"),
                        "--grid", "64"], capsys)
    assert code == 0
    assert "holds" in out
    assert "a_producer_topic" in out


def test_check_perturbed_result_fails_naming_condition(tmp_path, capsys):
    run(["solve", SYMMETRIC, "--mode", "perfect", "--out", str(tmp_path)]
        + FAST, capsys)
    path = tmp_path / "symmetric_perfect.json"
    payload = json.loads(path.read_text())
    c0 = payload["allocation"]["consumers"][0]
    shift = 0.1 * payload["config"]["m"]
    c0["lambda_out"] -= shift
    c0["mu_infl_follow"] += shift
    path.write_text(json.dumps(payload))
    code, out, _ = run(["check", str(path), "--grid", "64"], capsys)
    assert code == 1
    assert "FAILS" in out
    assert "d_influencer_optimal" in out


def test_check_zero_tolerance_always_fails(tmp_path, capsys):
    run(["solve", SYMMETRIC, "--mode", "perfect", "--out", str(tmp_path)]
        + FAST, capsys)
    code, out, _ = run(["check", str(tmp_path / "symmetric_perfect.json"),
                        "--tol", "0", "--producer-tol", "0", "--grid", "64"],
                       capsys)
    assert code == 1
    assert "FAILS" in out


def test_malformed_scenario_exits_nonzero_with_field(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[scenario]\nname = x\n[market]\nm = 1.0\n"
                   "[interests]\nkind = explicit\npoints = 0.5 0.6\n")
    code, _, err = run(["solve", str(bad)], capsys)
    assert code == 2
    assert "m_infl" in err


def test_missing_file_exits_nonzero(capsys):
    code, _, err = run(["solve", "/nonexistent/nothing.scn"], capsys)
    assert code == 2
    assert "error:" in err


def test_sweep_cli_writes_csv_and_dat(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CME_THREADS", "1")
    code, out, _ = run(["sweep", str(FIXTURES / "determinism.swp"),
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "determinism.csv").exists()
    assert (tmp_path / "determinism.dat").exists()
    assert sorted(p.name for p in (tmp_path / "rows").iterdir()) == [
        "N0003_r000.json", "N0003_r001.json",
        "N0004_r000.json", "N0004_r001.json"]
    assert "median relative poi" in out


def test_poi_cli(tmp_path, capsys):
    code, out, _ = run(["poi", SYMMETRIC, "--out", str(tmp_path)] + FAST,
                       capsys)
    assert code == 0
    payload = json.loads((tmp_path / "symmetric_poi.json").read_text())
    assert payload["poi"] >= -1e-9
    assert payload["poi"] == pytest.approx(
        payload["phi_perfect"] - payload["phi_imperfect"])
    assert payload["perfect"]["certificate"]["holds"]
    assert "poi=" in out


def test_compare_modes_cli(tmp_path, capsys):
    code, out, _ = run(["compare-modes", SYMMETRIC, "--out", str(tmp_path)]
                       + FAST, capsys)
    assert code == 0
    payload = json.loads((tmp_path / "symmetric_compare.json").read_text())
    assert set(payload["welfare"]) == {"perfect", "imperfect", "proxy"}
    assert payload["direct_rate_mass_perfect"] >= 0.0
    assert isinstance(payload["perfect_is_proxy"], bool)
    assert "direct rate mass" in out


def test_seed_override_changes_sampled_market(tmp_path, capsys):
    scn = tmp_path / "u.scn"
    scn.write_text("[scenario]\nmodes = perfect\nseed = 1\n"
                   "[market]\nm = 1.0\nm_infl = 1.0\n"
                   "[interests]\nkind = uniform\nn = 3\n")
    run(["solve", str(scn), "--out", str(tmp_path / "a")] + FAST, capsys)
    run(["solve", str(scn), "--seed", "2", "--out", str(tmp_path / "b")]
        + FAST, capsys)
    ia = json.loads((tmp_path / "a" / "u_perfect.json").read_text())
    ib = json.loads((tmp_path / "b" / "u_perfect.json").read_text())
    assert ia["config"]["interests"] != ib["config"]["interests"]
    assert ia["config"]["seed"] == 1 and ib["config"]["seed"] == 2


@pytest.mark.parametrize("edit, key", [
    pytest.param(lambda p: p["allocation"]["consumers"][0]["mu_direct"].update({"abc": 0.1}),
                 "'abc'", id="non-integer-producer"),
    pytest.param(lambda p: p["allocation"]["consumers"][1].pop("lambda_out"),
                 "'lambda_out'", id="missing-rate"),
    pytest.param(lambda p: p["config"].pop("m"), "'m'", id="missing-config-key"),
    pytest.param(lambda p: p["allocation"]["consumers"][0]["mu_direct"].update({"5": 0.1}),
                 "unknown producer 5", id="unknown-producer"),
    pytest.param(lambda p: p["allocation"]["consumers"][1].update({"lambda_out": -0.5}),
                 "lam[1]", id="negative-rate"),
])
def test_check_malformed_result_exits_2_naming_file_and_key(tmp_path, capsys, edit, key):
    run(["solve", SYMMETRIC, "--mode", "perfect", "--out", str(tmp_path)]
        + FAST, capsys)
    path = tmp_path / "symmetric_perfect.json"
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    code, out, err = run(["check", str(path), "--grid", "64"], capsys)
    assert code == 2
    assert key in err
    if key != "lam[1]":  # bad values are caught by validation, past the file
        assert str(path) in err


def test_sweep_prints_each_failed_row(tmp_path, capsys, monkeypatch):
    def fail(cfg, params=None, search=None):
        raise ArithmeticError(f"no equilibrium at N={cfg.n}")

    monkeypatch.setenv("CME_THREADS", "1")
    monkeypatch.setattr(scenario, "price_of_influence", fail)
    code, out, _ = run(["sweep", str(FIXTURES / "determinism.swp"),
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "(4 rows, 4 failed)" in out
    for n, rep in ((3, 0), (3, 1), (4, 0), (4, 1)):
        assert (f"N={n:4d}  replicate {rep} failed: "
                f"ArithmeticError: no equilibrium at N={n}") in out
    rows = (tmp_path / "determinism.csv").read_text().splitlines()[1:]
    assert [r.rsplit(",", 1)[1] for r in rows] == ["error=ArithmeticError"] * 4
