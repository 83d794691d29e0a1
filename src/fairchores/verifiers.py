"""Certify or refute fairness and efficiency properties, with witnesses.

Every check returns a ``core.Certificate``, as does the fractional
equilibrium check ``equilibrium.verify_fisher_equilibrium``; a failed
certificate always carries a witness that re-validates by plain arithmetic.
The brute-force checks are the desk-scale oracles the rest of the test suite
leans on.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional

from .core import (
    _CHORE,
    FISHER_EQ,
    ZERO,
    Certificate,
    Instance,
    PriceVector,
    SurplusAllocation,
    bundle_disutility,
    price_scale,
    row_scales,
    scaled,
)
from .equilibrium import _best_ratio_sets
from .errors import InputError, InstanceTooLargeError
from .serialize import rat_text
from .simplex import solve_lp

EF1 = "EF1"
EFX = "EFX"
TEFX = "tEFX"
PEF1 = "pEF1"
PROPORTIONAL = "Proportional"
PO = "PO"
FPO = "fPO"
NON_DEGENERATE = "NonDegenerate"


# Size caps of the exhaustive verifications, read at call time; each check
# raises InstanceTooLargeError beyond its cap.
MAX_PO_CANDIDATES = 10**6  # n^k reassignments tried by check_po_brute
MAX_LP_VARIABLES = 600  # n*k variables of the fPO linear program
MAX_SUBSET_CHORES = 12  # chores whose 2^m subset sums check_nondegenerate compares


def require_shape(inst: Instance, alloc: SurplusAllocation) -> None:
    """Raise ``InputError`` unless the allocation has one bundle per agent of
    ``inst`` over exactly its chores; every check of an allocation against an
    instance calls this first."""
    if alloc.n != inst.n or alloc.num_chores != inst.m:
        raise InputError(
            f"allocation has {alloc.n} bundles over {alloc.num_chores} chores, "
            f"instance has {inst.n} agents and {inst.m} chores")


def _chore_ids(bundles) -> list[list[int]]:
    """Each bundle's chore ids, one per unit, in the bundle's set order."""
    return [list(map(_CHORE, bundle)) for bundle in bundles]


def _view(ints, K, ids) -> tuple[list[int], int, list[int]]:
    """A row already over its own lcm, as ``row_scales`` gives it: its
    integers, ``K``, and each bundle's cost in those units, from the
    bundles' ``_chore_ids``."""
    return ints, K, [sum(map(ints.__getitem__, chores)) for chores in ids]


def _envy(views, ids, bundles, pick, transfer: bool = False):
    """The first agent ``i``, then bundle ``j``, in index order, such that
    ``i``'s bundle less the unit ``pick`` chooses by (cost, unit) still costs
    ``i`` more than bundle ``j`` (plus that unit when ``transfer``). ``views``
    yields ``_view`` of each agent's row in turn, over the bundles' chore
    ``ids``. Returns None, or ``(i, j, unit, own, kept, other)`` with the
    costs as rationals.

    Only the unit's cost decides, so the unit itself is found only for a
    witness."""
    for i, (mine, (ints, K, cost)) in enumerate(zip(ids, views)):
        if not mine:
            continue
        drop = pick(map(ints.__getitem__, mine))
        kept = cost[i] - drop
        moved = drop if transfer else 0
        for j, other in enumerate(cost):
            if i != j and kept > other + moved:
                unit = pick(bundles[i], key=lambda u: (ints[u.chore], u))
                return i, j, unit, *(Fraction(v, K) for v in (cost[i], kept, other + moved))
    return None


def _agent_views(inst: Instance, alloc: SurplusAllocation):
    """``_envy``'s views and chore ids: the ids are read once, and each
    agent's view is made when ``_envy`` reaches it."""
    require_shape(inst, alloc)
    ids = _chore_ids(alloc.bundles)
    return (_view(ints, K, ids) for ints, K in row_scales(inst)), ids, alloc.bundles


def check_ef1(inst: Instance, alloc: SurplusAllocation) -> Certificate:
    """Envy-freeness up to removing one chore from the envious bundle."""
    found = _envy(*_agent_views(inst, alloc), max)
    if found is None:
        return Certificate(EF1, True)
    i, j, _, own, kept, other = found
    return Certificate(EF1, False, {
        "agent": i, "envied": j,
        "own": rat_text(own), "best_removal": rat_text(kept), "other": rat_text(other)})


def check_efx(inst: Instance, alloc: SurplusAllocation) -> Certificate:
    """Envy-freeness up to removing any chore from the envious bundle."""
    found = _envy(*_agent_views(inst, alloc), min)
    if found is None:
        return Certificate(EFX, True)
    i, j, unit, _, kept, other = found
    return Certificate(EFX, False, {
        "agent": i, "envied": j, "chore": unit.chore, "copy": unit.copy,
        "after_removal": rat_text(kept), "other": rat_text(other)})


def check_tefx(inst: Instance, alloc: SurplusAllocation) -> Certificate:
    """No strong envy: transferring any single chore kills the envy."""
    found = _envy(*_agent_views(inst, alloc), min, transfer=True)
    if found is None:
        return Certificate(TEFX, True)
    i, j, unit, _, kept, other = found
    return Certificate(TEFX, False, {
        "agent": i, "envied": j, "chore": unit.chore, "copy": unit.copy,
        "after_transfer": rat_text(kept), "other_with_chore": rat_text(other)})


def check_proportional(inst: Instance, alloc: SurplusAllocation) -> Certificate:
    """Every bundle costs its holder at most a 1/n share of all original chores."""
    require_shape(inst, alloc)
    for i, ((ints, K), bundle) in enumerate(zip(row_scales(inst), alloc.bundles)):
        own = sum(ints[u.chore] for u in bundle)
        if alloc.n * own > sum(ints):
            return Certificate(PROPORTIONAL, False, {
                "agent": i, "own": rat_text(Fraction(own, K)),
                "share": rat_text(Fraction(sum(ints), K * alloc.n))})
    return Certificate(PROPORTIONAL, True)


def check_pef1(prices: PriceVector, alloc: SurplusAllocation) -> Certificate:
    """Payment envy-freeness up to one chore."""
    if len(prices) != alloc.num_chores:
        raise InputError(f"{len(prices)} prices for {alloc.num_chores} chores")
    ids = _chore_ids(alloc.bundles)
    found = _envy([_view(*price_scale(prices), ids)] * alloc.n, ids, alloc.bundles, max)
    if found is None:
        return Certificate(PEF1, True)
    i, j, _, _, kept, other = found
    return Certificate(PEF1, False, {
        "agent": i, "envied": j,
        "own_after_removal": rat_text(kept), "other": rat_text(other)})


def check_fisher_integral(inst: Instance, alloc: SurplusAllocation,
                          prices: PriceVector) -> Certificate:
    """Fisher-equilibrium conditions of an integral bundle allocation.

    With budgets read off as the bundle payments, clearing and incomes hold by
    construction; the substance is that every allocated unit is a best-ratio
    chore for its holder.
    """
    require_shape(inst, alloc)
    if len(prices) != inst.m:
        raise InputError(f"{len(prices)} prices for {inst.m} chores")
    if not any(alloc.bundles):
        return Certificate(FISHER_EQ, True)
    sets = _best_ratio_sets(inst, prices)
    for i, bundle in enumerate(alloc.bundles):
        if sets[i].issuperset(map(_CHORE, bundle)):
            continue
        for unit in sorted(bundle):
            if unit.chore not in sets[i]:
                return Certificate(FISHER_EQ, False, {
                    "condition": "min-pain-per-buck", "agent": i,
                    "chore": unit.chore, "copy": unit.copy})
    return Certificate(FISHER_EQ, True)


def check_po_brute(inst: Instance, alloc: SurplusAllocation) -> Certificate:
    """Pareto optimality by exhaustive reassignment of the allocated units.

    The item multiset is fixed to what the allocation actually handed out
    (copies included); a counter-witness is an integral reassignment that is
    weakly better for everyone and strictly better for someone.
    """
    require_shape(inst, alloc)
    items = alloc.items()
    n = len(alloc.bundles)
    if n == 1:  # the only reassignment is the allocation itself
        return Certificate(PO, True)
    if n ** len(items) > MAX_PO_CANDIDATES:
        raise InstanceTooLargeError(
            f"{n}^{len(items)} candidate allocations exceed the cap of {MAX_PO_CANDIDATES}")
    caps = [bundle_disutility(inst, i, alloc.bundles[i]) for i in range(n)]
    loads = [ZERO] * n
    assignment: list[int] = []

    def search(pos: int) -> Optional[list[int]]:
        if pos == len(items):
            if any(loads[i] < caps[i] for i in range(n)):
                return assignment[:]
            return None
        cost_row = [inst.d(i, items[pos].chore) for i in range(n)]
        for i in range(n):
            if loads[i] + cost_row[i] > caps[i]:
                continue
            loads[i] += cost_row[i]
            assignment.append(i)
            found = search(pos + 1)
            assignment.pop()
            loads[i] -= cost_row[i]
            if found is not None:
                return found
        return None

    dominating = search(0)
    if dominating is None:
        return Certificate(PO, True)
    bundles: list[list[dict]] = [[] for _ in range(n)]
    for unit, owner in zip(items, dominating):
        bundles[owner].append({"chore": unit.chore, "copy": unit.copy})
    return Certificate(PO, False, {"dominating": bundles})


def check_fpo(inst: Instance, alloc: SurplusAllocation) -> Certificate:
    """Fractional Pareto optimality over the allocation's own item multiset.

    One exact linear program: minimize the total disutility subject to
    clearing every allocated unit and to nobody getting worse off. The
    allocation itself is a feasible vertex of that program at its current
    total (each unit's owner basic in its clearing row, each cap's slack
    basic at 0), and the simplex starts there. The allocation is
    fractionally dominated exactly when the optimum lands strictly below
    that total. The witness names the lowest-index agent strictly better off
    under the optimal ``dominating`` matrix; ``objective`` is that agent's
    disutility there.

    The program is in integers. Agent ``i``'s cap row is its row of
    ``row_scales``, ``K_i`` times its costs, and its bound is its current load
    in the same units. The objective is the total disutility times
    ``L = lcm(K_i)``, which is what putting every cost over one common
    denominator gives: a positive factor that changes no verdict, pivot or
    witness.
    """
    require_shape(inst, alloc)
    items = alloc.items()
    n, k = inst.n, len(items)
    if n * k > MAX_LP_VARIABLES:
        raise InstanceTooLargeError(f"{n * k} LP variables exceed the cap of {MAX_LP_VARIABLES}")
    if k == 0:
        return Certificate(FPO, True)
    scales = row_scales(inst)
    L = lcm(*(K for _, K in scales))
    # Variables y[i][t] laid out row-major; one clearing equality per item and
    # one disutility cap per agent.
    a_eq = []
    for t in range(k):
        row = [0] * (n * k)
        row[t::k] = [1] * n
        a_eq.append(row)
    a_ub, b_ub = [], []
    for i, (ints, _) in enumerate(scales):
        row = [0] * (n * k)
        row[i * k:(i + 1) * k] = [ints[u.chore] for u in items]
        a_ub.append(row)
        b_ub.append(sum(ints[u.chore] for u in alloc.bundles[i]))
    # The disutilities times L, which is K_i's integers times L // K_i, built
    # from the rationals: when the rows carry long denominators, a short
    # numerator times L over its short denominator costs far less than a
    # long integer times a long L // K_i.
    cost = scaled([inst.disutility[i][u.chore] for i in range(n) for u in items], L)
    owner = {unit: i for i, bundle in enumerate(alloc.bundles) for unit in bundle}
    start = [owner[u] * k + t for t, u in enumerate(items)]
    result = solve_lp(cost, a_eq, [1] * k, a_ub, b_ub, start)
    # The allocation's own total in the program's units is its start
    # columns' costs, the sum of b_i * L/K_i.
    if result.objective == sum(cost[col] for col in start):
        return Certificate(FPO, True)
    # Nobody is above their cap, so a smaller total leaves someone strictly
    # below; each load is over its agent's own K_i, as its cap is.
    y = result.solution
    for j, ((ints, K), cap) in enumerate(zip(scales, b_ub)):
        load = sum((ints[u.chore] * y[j * k + t] for t, u in enumerate(items)), ZERO)
        if load < cap:
            break
    return Certificate(FPO, False, {
        "improving_agent": j,
        "objective": rat_text(load / K),
        "current": rat_text(Fraction(cap, K)),
        "items": [{"chore": u.chore, "copy": u.copy} for u in items],
        "dominating": [[rat_text(y[i * k + t]) for t in range(k)] for i in range(n)]})


def check_nondegenerate(inst: Instance) -> Certificate:
    """No agent values two distinct chore subsets equally (2^m subset sums)."""
    if inst.m > MAX_SUBSET_CHORES:
        raise InstanceTooLargeError(
            f"2^{inst.m} subset sums exceed the cap of 2^{MAX_SUBSET_CHORES}")
    for i in range(inst.n):
        sums: dict[Fraction, int] = {ZERO: 0}
        for c in range(inst.m):
            cost = inst.d(i, c)
            bit = 1 << c
            updates: dict[Fraction, int] = {}
            for value, mask in sums.items():
                candidate = value + cost
                clash = sums.get(candidate, updates.get(candidate))
                if clash is not None:
                    return Certificate(NON_DEGENERATE, False, {
                        "agent": i,
                        "subset_a": _mask_to_ids(clash),
                        "subset_b": _mask_to_ids(mask | bit),
                        "sum": rat_text(candidate)})
                updates[candidate] = mask | bit
            sums.update(updates)
    return Certificate(NON_DEGENERATE, True)


def _mask_to_ids(mask: int) -> list[int]:
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


def implication_suite(inst: Instance, alloc: SurplusAllocation,
                      prices: PriceVector) -> list[tuple[str, bool, bool]]:
    """The property implications on one concrete allocation, as
    ``(name, antecedent, consequent)`` rows; a row with its antecedent and
    without its consequent is a violation.

    Payment-EF1 plus equilibrium forces EF1; EFX forces transfer-EFX;
    equilibrium forces fractional Pareto optimality; fractional forces
    integral Pareto optimality (the latter two only within brute-force
    limits, past which their rows are left out).
    """
    fisher = check_fisher_integral(inst, alloc, prices)
    pef1 = check_pef1(prices, alloc)
    ef1 = check_ef1(inst, alloc)
    efx = check_efx(inst, alloc)
    tefx = check_tefx(inst, alloc)

    results = [
        ("pEF1+FisherEq=>EF1", pef1.holds and fisher.holds, ef1.holds),
        ("EFX=>tEFX", efx.holds, tefx.holds),
    ]
    try:
        fpo = check_fpo(inst, alloc)
        results.append(("FisherEq=>fPO", fisher.holds, fpo.holds))
        try:
            po = check_po_brute(inst, alloc)
            results.append(("fPO=>PO", fpo.holds, po.holds))
        except InstanceTooLargeError:
            pass
    except InstanceTooLargeError:
        pass
    return results
