"""Fair and efficient allocation of indivisible chores.

Exact-rational solvers for chore markets: equal-income equilibria, rounding
into integral bundles with at most n-1 duplicated chores (envy-free up to one
chore and fractionally Pareto optimal), a tEFX-or-proportional split for three
agents, and verifiers that certify every claimed property with witnesses.
"""

from .core import (
    Certificate,
    ChoreCopy,
    FractionalAllocation,
    Instance,
    MarketOutcome,
    PaymentGraph,
    PriceVector,
    SurplusAllocation,
    bundle_disutility,
    bundle_payment,
    mpb,
    payment_graph,
    rat,
)
from .equilibrium import (
    approx_ceei,
    default_epsilon,
    exact_ceei,
    make_acyclic,
    verify_fisher_equilibrium,
)
from .rounding import (
    RoundingState,
    SolveOptions,
    SurplusResult,
    fair_and_efficient,
    phase1,
    phase2,
)
from .three_agent import (
    ThreeResult,
    efx_identical,
    perturb_nondegenerate,
    solve_three,
    tefx_feasible,
    terminal_assignment,
)
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

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
