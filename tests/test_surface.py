"""The package's public surface: what ``cme`` exports, and the names that
no engine, CLI or sweep caller uses, kept out of ``src/``.

The per-agent best responses stay public: they are the paper's one-agent
calls of the blocks the dynamics run.  Test-only references live in
tests/oracles.py.
"""

import importlib

import pytest

import cme

PUBLIC = {
    "AllocationSolution",
    "DegenerateWeightsError",
    "DelayParams",
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
])
def test_test_only_names_are_not_in_the_package(module, name):
    assert not hasattr(importlib.import_module(f"cme.{module}"), name)
    assert not hasattr(cme, name)


def test_sorted_channels_holds_no_full_split():
    # the full split is water_fill's; the sort answers one-weight replacements
    channels = cme.allocator.SortedChannels
    assert not hasattr(channels, "rates")
    assert callable(channels.rates_with) and callable(channels.replace)
