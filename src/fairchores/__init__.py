"""Fair and efficient allocation of indivisible chores.

Exact-rational solvers for chore markets: equal-income equilibria, rounding
into integral bundles with at most n-1 duplicated chores (envy-free up to one
chore and fractionally Pareto optimal), a tEFX-or-proportional split for three
agents, and verifiers that certify every claimed property with witnesses.

``__all__`` is the public contract. Everything else, the submodules' other
names included, is internal and may move; the error classes live in
``fairchores.errors``.
"""

from .core import (
    Certificate,
    ChoreCopy,
    FractionalAllocation,
    Instance,
    MarketOutcome,
    PriceVector,
    SurplusAllocation,
    rat,
)
from .equilibrium import (
    approx_ceei,
    default_epsilon,
    exact_ceei,
    make_acyclic,
    verify_fisher_equilibrium,
)
from .rounding import SolveOptions, SurplusResult, fair_and_efficient
from .three_agent import ThreeResult, solve_three
from .verifiers import (
    check_ef1,
    check_efx,
    check_fisher_integral,
    check_fpo,
    check_nondegenerate,
    check_pef1,
    check_po_brute,
    check_proportional,
    check_tefx,
    implication_suite,
)

__all__ = [
    "Certificate", "ChoreCopy", "FractionalAllocation", "Instance", "MarketOutcome",
    "PriceVector", "SolveOptions", "SurplusAllocation", "SurplusResult", "ThreeResult",
    "approx_ceei", "check_ef1", "check_efx", "check_fisher_integral", "check_fpo",
    "check_nondegenerate", "check_pef1", "check_po_brute", "check_proportional",
    "check_tefx", "default_epsilon", "exact_ceei", "fair_and_efficient",
    "implication_suite", "make_acyclic", "rat", "solve_three", "verify_fisher_equilibrium",
]
__version__ = "0.1.0"
