"""Equilibrium engine for content markets with an attention-constrained
influencer.

A community of members (each both consumer and producer of topical content)
shares attention between an outside source, an influencer, and each other.
This package computes Nash equilibria of that market under three
information regimes (perfect, imperfect, proxy), certifies them through
named first-order conditions, and measures the welfare gap between regimes
as communities scale.
"""

from .allocator import (
    AllocationSolution,
    DegenerateWeightsError,
    WeightedChannels,
    gradient_oracle,
    kkt_residuals,
    water_fill,
)
from .bestresponse import (
    GameMode,
    ProducerChoice,
    TopicSearchParams,
    consumer_best_response,
    influencer_best_response,
    producer_best_response_imperfect,
    producer_best_response_perfect,
    producer_best_response_surrogate,
)
from .equilibrium import (
    DynamicsParams,
    EquilibriumResult,
    NashCertificate,
    PriceOfInfluence,
    ProxyEquivalenceReport,
    check_nash,
    price_of_influence,
    proxy_equivalence_report,
    run_dynamics,
    run_dynamics_all,
)
from .kernels import (
    DelayParams,
    DomainError,
    InvalidInputError,
    KernelParams,
    TopicPoint,
    discount,
    discount_deriv,
)
from .market import (
    InfluencerAllocation,
    MarketAllocation,
    MarketConfig,
    consumer_utilities,
    influencer_utility,
    producer_support,
    social_welfare,
)
from .scenario import (
    Scenario,
    ScenarioError,
    SweepSpec,
    parse_scenario,
    parse_sweep,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationSolution",
    "DegenerateWeightsError",
    "DelayParams",
    "DomainError",
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
    "gradient_oracle",
    "influencer_best_response",
    "influencer_utility",
    "kkt_residuals",
    "parse_scenario",
    "parse_sweep",
    "price_of_influence",
    "producer_best_response_imperfect",
    "producer_best_response_perfect",
    "producer_best_response_surrogate",
    "producer_support",
    "proxy_equivalence_report",
    "run_dynamics",
    "run_dynamics_all",
    "run_sweep",
    "social_welfare",
    "water_fill",
    "__version__",
]
