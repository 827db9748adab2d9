"""The package's public surface: what ``cme`` exports, and the names that
no engine, CLI or sweep caller uses, kept out of ``src/``.

The per-agent best responses stay public: they are the paper's one-agent
calls of the blocks the dynamics run.  Test-only references live in
tests/oracles.py.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cme

ROOT = Path(__file__).resolve().parent.parent

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


def test_the_match_matrix_is_read_through_one_type():
    # only market builds B's entries and every read goes through a Match:
    # no dense objective beside it, no free reductions of a table, no B=
    for module, name in (("market", "influencer_relayed_match"),
                         ("market", "influencer_followed_match"), ("market", "_match"),
                         ("bestresponse", "_objective"), ("bestresponse", "match_matrix")):
        assert not hasattr(importlib.import_module(f"cme.{module}"), name), name
    for payoff in (cme.consumer_utilities, cme.social_welfare, cme.influencer_utility,
                   cme.producer_support):
        assert "B" not in inspect.signature(payoff).parameters, payoff.__name__
    match = inspect.signature(cme.bestresponse.producer_block).parameters["match"]
    assert match.default is inspect.Parameter.empty


def test_the_test_extra_holds_what_the_tests_import():
    # tests/test_allocator.py and tests/test_equilibrium.py import
    # hypothesis at module level
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as f:
        extra = tomllib.load(f)["project"]["optional-dependencies"]["test"]
    assert {"pytest", "hypothesis"} <= {re.match(r"[A-Za-z0-9_.-]+", req)[0] for req in extra}


def test_the_match_is_moved_only_by_the_round():
    # the blocks only read the match: a round moves it once for the
    # producers whose topic changed, and a one-producer call moves its own
    # throwaway match to the incumbent; no rows are handed to a move
    for kind in (cme.market.DenseMatch, cme.market.LineMatch):
        assert not hasattr(kind, "rows"), kind.__name__
        assert list(inspect.signature(kind.move).parameters) == ["self", "z", "T"]
        assert inspect.signature(kind.values_at).return_annotation == "np.ndarray"
    callers = set()
    for path in sorted((ROOT / "src" / "cme").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers |= {fn.name for node in ast.walk(fn) if isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "move"}
    # LineMatch.__init__ places every producer through its own move
    assert callers == {"_one_round", "_one_producer", "__init__"}


def _unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads: a name counts as read
    where it appears as a name anywhere in the module, or in ``__all__``;
    ``from __future__`` imports are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{path.name}: {name}" for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # the package and the tests; bench/ imports cme for its side effect
    paths = sorted((ROOT / "src" / "cme").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(paths) > 10
    assert [u for path in paths for u in _unused_imports(path)] == []
