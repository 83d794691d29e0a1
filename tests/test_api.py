"""The package root exports exactly the documented API, and nothing else."""

import importlib
import types
from pathlib import Path

import pytest

import fairchores

PUBLIC = [
    "Certificate", "ChoreCopy", "FractionalAllocation", "Instance", "MarketOutcome",
    "PriceVector", "SolveOptions", "SurplusAllocation", "SurplusResult", "ThreeResult",
    "approx_ceei", "check_ef1", "check_efx", "check_fisher_integral", "check_fpo",
    "check_nondegenerate", "check_pef1", "check_po_brute", "check_proportional",
    "check_tefx", "default_epsilon", "exact_ceei", "fair_and_efficient",
    "implication_suite", "make_acyclic", "rat", "solve_three", "verify_fisher_equilibrium",
]

# Names the package root no longer re-exports; each stays in its module.
INTERNAL = [
    ("core", "PaymentGraph"), ("core", "payment_graph"), ("core", "mpb"),
    ("core", "bundle_disutility"), ("core", "bundle_payment"),
    ("rounding", "RoundingState"), ("rounding", "phase1"), ("rounding", "phase2"),
    ("three_agent", "efx_identical"), ("three_agent", "perturb_nondegenerate"),
    ("three_agent", "tefx_feasible"), ("three_agent", "terminal_assignment"),
]

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_the_documented_set():
    assert PUBLIC == sorted(PUBLIC) and len(PUBLIC) == 28
    assert fairchores.__all__ == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from fairchores import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert not [name for name, value in namespace.items()
                if isinstance(value, types.ModuleType)]


@pytest.mark.parametrize("module, name", INTERNAL)
def test_internal_name_stays_in_its_module(module, name):
    assert hasattr(importlib.import_module(f"fairchores.{module}"), name)
    assert not hasattr(fairchores, name)


def test_readme_library_section_names_every_export():
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    assert [name for name in PUBLIC if f"`{name}`" not in library] == []
