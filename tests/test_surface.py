"""The package's public surface: what ``cme`` exports, and the names that
no engine, CLI or sweep caller uses, kept out of ``src/``.

The per-agent best responses stay public: they are the paper's one-agent
calls of the blocks the dynamics run.  Test-only references live in
tests/oracles.py.
"""

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cme

PUBLIC = {
    "AllocationSolution",
    "DegenerateWeightsError",
    "DelayParams",
    "DirectRates",
    "DynamicsParams",
    "EquilibriumResult",
    "GameMode",
    "InfluencerAllocation",
    "InvalidInputError",
    "KernelParams",
    "MarketAllocation",
    "MarketConfig",
    "NashCertificate",
    "PriceOfInfluence",
    "ProducerChoice",
    "ProxyEquivalenceReport",
    "Scenario",
    "ScenarioError",
    "SweepSpec",
    "TopicPoint",
    "TopicSearchParams",
    "WeightedChannels",
    "check_nash",
    "consumer_best_response",
    "consumer_utilities",
    "discount",
    "discount_deriv",
    "influencer_best_response",
    "influencer_utility",
    "parse_scenario",
    "parse_sweep",
    "price_of_influence",
    "producer_best_response_imperfect",
    "producer_best_response_perfect",
    "producer_support",
    "proxy_equivalence_report",
    "run_dynamics",
    "run_dynamics_all",
    "run_sweep",
    "social_welfare",
    "water_fill",
    "__version__",
}


def test_all_is_the_decided_surface():
    assert set(cme.__all__) == PUBLIC
    assert len(cme.__all__) == len(PUBLIC)
    for name in cme.__all__:
        assert hasattr(cme, name), name


@pytest.mark.parametrize("module, name", [
    ("allocator", "water_fill_batch"),
    ("allocator", "kkt_residuals"),
    ("market", "producer_support_via_influencer"),
    ("bestresponse", "producer_best_response_surrogate"),
    ("market", "take_rows"),
    ("equilibrium", "_other_match_max"),
])
def test_test_only_names_are_not_in_the_package(module, name):
    assert not hasattr(importlib.import_module(f"cme.{module}"), name)
    assert not hasattr(cme, name)


def test_one_weight_rates_keep_no_state():
    # one stateless function answers the one-weight replacements, on the
    # water fill's centred logs: no sort kept between calls, no log of its own
    assert callable(cme.allocator.rates_with)
    assert not hasattr(cme.allocator, "SortedChannels")
    assert not hasattr(cme.allocator, "_log_weights")


def test_tiny_weights_take_one_path():
    # the water fill's centred logs alone handle a row of tiny weights: no
    # second path that scales such a row by a power of two
    assert not hasattr(cme.allocator, "_normal_rows")


def test_scenario_files_read_through_one_accessor():
    # every key of a scenario file is read by one function, and the rules on
    # a file are checked by the types it builds, not by a second copy here
    for name in ("_need", "_conv", "_get"):
        assert not hasattr(cme.scenario, name), name


def test_peer_weights_hold_the_sparse_direct_rates():
    # delta(direct) stays the state's compressed sparse rows: no dense rows
    # in the weights, no gather of B's rated columns, no column read
    assert [f.name for f in dataclasses.fields(cme.market.PeerWeights)] == ["u", "v", "S"]
    assert not hasattr(cme.market.PeerWeights, "at_rows")
    assert not hasattr(cme.DirectRates, "column")
    assert list(inspect.signature(cme.DirectRates.dense_rows).parameters) == ["self", "rows"]


def test_importing_cme_loads_no_scipy():
    # scipy.sparse alone takes 170-230 ms to import, most of a fresh
    # process's set-up; the direct rates' CSR is plain numpy
    script = "import sys, cme; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = Path(cme.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_direct_rates_have_no_array_conversion():
    # nothing can turn the CSR into an (N, N) table by accident
    direct = cme.DirectRates.from_dense([[0.0, 0.5], [0.25, 0.0]])
    assert not hasattr(direct, "__array__") and not hasattr(cme.DirectRates, "__array__")
    assert direct.toarray().tolist() == [[0.0, 0.5], [0.25, 0.0]]
