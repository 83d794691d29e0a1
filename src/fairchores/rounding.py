"""Round a verified near-equilibrium into integral bundles with few copies.

The rounding accepts any verified equilibrium with slack up to 1/(5nm) and
first cancels the cycles of its payment graph. Phase 1 hands out fully-earned
chores and prunes payment edges whose removal keeps every single-removal
payment above the income floor. Phase 2 walks each remaining tree top-down,
topping bundles up with child chores and duplicating the parent chore as a
last resort. Prices and earnings are integers over one unit throughout. The
pipeline takes the price loop's integers as they are, and re-verifies every
claimed property before returning and hard-fails otherwise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .core import (
    ZERO,
    Certificate,
    ChoreCopy,
    Instance,
    MarketOutcome,
    PriceVector,
    SurplusAllocation,
    payment_graph,
    rat,
    row_scales,
    scaled,
)
# approx_ceei is not called here; perfbench's tests read rounding.approx_ceei.
from .equilibrium import (  # noqa: F401
    _UNVERIFIED,
    _cancel_cycles,
    _price_loop,
    _routing_holds,
    approx_ceei,
    default_epsilon,
    verify_fisher_equilibrium,
)
from .errors import (
    AlgorithmBugError,
    InputError,
    InstanceTooLargeError,
)
from .serialize import rat_text
from .verifiers import (
    FPO,
    check_ef1,
    check_fisher_integral,
    check_fpo,
    check_pef1,
)


@dataclass
class RoundingState:
    """Mutable working state threaded through the two rounding phases.

    ``prices`` and ``weights``, the earnings on the payment forest's edges,
    are integers over ``unit``, a multiple of the denominator of ``epsilon``,
    so every income bound is an integer too. Phase 1 multiplies the unit
    whenever a share it hands out would not divide (``_refine``).
    """

    inst: Instance
    epsilon: Fraction
    unit: int
    prices: list[int]
    weights: dict[tuple[int, int], int]
    agent_adj: list[set[int]]
    chore_adj: list[set[int]]
    bundles: list[set[int]]
    allocated: set[int]
    trace: list[dict] = field(default_factory=list)
    checkpoints: int = 0

    @classmethod
    def from_outcome(cls, inst: Instance, out: MarketOutcome) -> "RoundingState":
        """State for a verified equilibrium with slack at most ``default_epsilon``,
        the bound phase 1 is proved for, its payment graph's cycles cancelled
        as ``make_acyclic`` would: a forest, same prices and incomes. Prices
        and earnings are converted once, over the lcm of their denominators
        and that of ``epsilon``."""
        if not verify_fisher_equilibrium(inst, out).holds:
            raise InputError("rounding requires a verified equilibrium")
        if out.epsilon > (bound := default_epsilon(inst.n, inst.m)):
            raise InputError(f"epsilon must lie in [0, {bound}] for {inst.n} agents "
                             f"and {inst.m} chores, got {out.epsilon}")
        earnings = payment_graph(out.x, out.prices).edge_dict()
        unit = lcm(out.epsilon.denominator,
                   *(value.denominator for value in (*out.prices, *earnings.values())))
        return cls._over_unit(inst, out.epsilon, unit, scaled(out.prices, unit),
                              dict(zip(earnings, scaled(earnings.values(), unit))))

    @classmethod
    def _over_unit(cls, inst: Instance, epsilon: Fraction, unit: int, prices: list[int],
                   weights: dict[tuple[int, int], int]) -> "RoundingState":
        """State for a verified equilibrium given as integers over ``unit``:
        the prices, and the positive earnings in (agent, chore) order, whose
        cycles are cancelled here, in place."""
        adj = _cancel_cycles(inst.n, inst.m, weights)
        agent_adj = [{v - inst.n for v in chores} for chores in adj[:inst.n]]
        return cls(inst, epsilon, unit, prices, weights, agent_adj, adj[inst.n:],
                   [set() for _ in range(inst.n)], set())

    def income(self, agent: int) -> int:
        return sum(self.weights[(agent, c)] for c in self.agent_adj[agent])

    def window(self) -> tuple[int, int]:
        """The income window [1-eps, 1+(2n-1)eps] over the unit."""
        slack = self.epsilon.numerator * (self.unit // self.epsilon.denominator)
        return self.unit - slack, self.unit + (2 * self.inst.n - 1) * slack

    def checkpoint(self) -> None:
        """Income window every rounding proof leans on; violations are bugs."""
        floor, ceiling = self.window()
        for i in range(self.inst.n):
            income = self.income(i)
            if not floor <= income <= ceiling:
                unit = self.unit
                raise AlgorithmBugError(
                    f"rounding checkpoint: agent {i} income {Fraction(income, unit)} left "
                    f"[{Fraction(floor, unit)}, {Fraction(ceiling, unit)}]")
        self.checkpoints += 1

    def _refine(self, factor: int, *totals: list[int]) -> None:
        """Multiply the unit by ``factor``, and with it every price, every
        weight and each list of ``totals``, in place."""
        self.unit *= factor
        for values in (self.prices, *totals):
            values[:] = [value * factor for value in values]
        weights = self.weights
        for edge in weights:
            weights[edge] *= factor


def phase1(state: RoundingState) -> RoundingState:
    """Assign fully-earned chores and prune safely removable payment edges.

    Runs while some unallocated chore has a single neighbor: that chore goes
    to the neighbor, then one pass over the edges deletes every edge whose
    agent keeps all single-removal payments above the income floor, handing
    the deleted earning to the chore's other neighbors in equal shares.
    """
    inst, prices = state.inst, state.prices
    floor = state.window()[0]
    # Bundles only grow here, so each one's total and priciest chore run along.
    held = [sum(prices[c] for c in bundle) for bundle in state.bundles]
    top = [max((prices[c] for c in bundle), default=0) for bundle in state.bundles]
    state.checkpoint()
    while True:
        singles = sorted(
            c for c in range(inst.m)
            if c not in state.allocated and len(state.chore_adj[c]) == 1)
        if not singles:
            break
        for c in singles:
            owner = next(iter(state.chore_adj[c]))
            state.bundles[owner].add(c)
            state.allocated.add(c)
            held[owner] += prices[c]
            top[owner] = max(top[owner], prices[c])
            state.trace.append({"event": "assign", "phase": 1, "agent": owner, "chore": c})
        state.checkpoint()

        for i, c in sorted(state.weights):
            if (i, c) not in state.weights:
                continue  # removed earlier in this pass
            # Payment of bundles[i] | {c} less its priciest chore.
            price = prices[c]
            total = held[i] if c in state.bundles[i] else held[i] + price
            if total - max(top[i], price) <= floor:
                continue
            degree = len(state.chore_adj[c])
            if degree == 1:
                if c in state.bundles[i]:
                    raise AlgorithmBugError(
                        f"phase 1: deletion picked the lone edge of allocated chore {c}")
                raise AlgorithmBugError(
                    f"phase 1: deletion would isolate unallocated chore {c}")
            weight, k = state.weights[(i, c)], degree - 1
            if weight % k:
                # A finer unit, by the least factor that makes the share whole.
                factor = k // gcd(weight, k)
                state._refine(factor, held, top)
                floor *= factor
                weight *= factor
            share = weight // k
            others = sorted(state.chore_adj[c] - {i})
            for j in others:
                state.weights[(j, c)] += share
            del state.weights[(i, c)]
            state.agent_adj[i].discard(c)
            state.chore_adj[c].discard(i)
            state.trace.append({"event": "delete-edge", "agent": i, "chore": c})
            state.trace.append({"event": "redistribute", "chore": c, "to": others,
                                "share": rat_text(Fraction(share, state.unit))})
            state.checkpoint()

    for c in range(inst.m):
        if c not in state.allocated and not state.chore_adj[c]:
            raise AlgorithmBugError(f"phase 1: unallocated chore {c} has no payment edge")
    return state


def phase2(state: RoundingState) -> SurplusAllocation:
    """Top-down tree walk that completes the allocation with at most one copy
    per non-root agent."""
    inst, prices = state.inst, state.prices
    floor = state.window()[0]
    copies: list[list[ChoreCopy]] = [[] for _ in range(inst.n)]
    copy_counter = [0] * inst.m

    if not all(state.chore_adj):
        raise AlgorithmBugError("phase 2: a chore lost all its payment edges")
    # BFS over agents, one tree per least unvisited agent; each non-root
    # agent remembers the chore above it and runs when it leaves the queue.
    parent_chore: dict[int, Optional[int]] = {}
    seen_chores: set[int] = set()
    for root in range(inst.n):
        if root in parent_chore:
            continue
        parent_chore[root] = None
        queue = deque([root])
        while queue:
            i = queue.popleft()
            above = parent_chore[i]
            for c in sorted(state.agent_adj[i]):
                if c == above or c in seen_chores:
                    continue
                seen_chores.add(c)
                for j in sorted(state.chore_adj[c]):
                    if j == i:
                        continue
                    if j in parent_chore:
                        raise AlgorithmBugError("phase 2: payment graph is not a forest")
                    parent_chore[j] = c
                    queue.append(j)
            if above is not None and above not in state.allocated:
                state.bundles[i].add(above)
                state.allocated.add(above)
                state.trace.append({"event": "assign", "phase": 2, "agent": i, "chore": above})
            held = sum(prices[c] for c in state.bundles[i])
            for c in sorted(state.agent_adj[i]):
                if c in state.bundles[i] or c == above:
                    continue
                if held >= floor:
                    break
                if c in state.allocated:
                    raise AlgorithmBugError(
                        f"phase 2: child chore {c} was allocated before its parent agent ran")
                state.bundles[i].add(c)
                state.allocated.add(c)
                held += prices[c]
                state.trace.append({"event": "assign", "phase": 2, "agent": i, "chore": c})
            if held < floor:
                if above is None:
                    continue  # the root never needs a copy
                if above in state.bundles[i]:
                    raise AlgorithmBugError(
                        f"phase 2: agent {i} would copy chore {above} it already holds")
                copy_counter[above] += 1
                unit = ChoreCopy(above, copy_counter[above])
                copies[i].append(unit)
                state.trace.append({"event": "add-copy", "agent": i,
                                    "chore": above, "copy": unit.copy})

    bundles = tuple(
        frozenset(ChoreCopy(c, 0) for c in state.bundles[i]) | frozenset(copies[i])
        for i in range(inst.n))
    return SurplusAllocation(bundles, inst.m)


@dataclass(frozen=True)
class SolveOptions:
    """``exact`` asks for an equilibrium at epsilon 0, which leaves no slack
    to set: giving ``epsilon`` with it raises ``InputError``."""

    exact: bool = False
    epsilon: Optional[Fraction] = None

    def __post_init__(self):
        if self.exact and self.epsilon is not None:
            raise InputError("the exact route has epsilon 0; it takes no epsilon")


@dataclass(frozen=True)
class SurplusResult:
    alloc: SurplusAllocation
    prices: PriceVector
    epsilon: Fraction
    certificates: tuple[Certificate, ...]
    trace: tuple[dict, ...]
    checkpoints: int


def fair_and_efficient(inst: Instance, opts: SolveOptions = SolveOptions()) -> SurplusResult:
    """Full pipeline: an equilibrium, then the rounding, which cancels its cycles.

    The output allocation covers every chore with at most n-1 duplicated
    units, pays every agent at least 1-eps with some chore whose removal dips
    below that, and is certified envy-free up to one chore and Pareto optimal
    before being returned. ``opts.epsilon`` defaults to 1/(5nm) and may be set
    anywhere in (0, 1/(5nm)]; anything else raises ``InputError``.

    Both routes run ``approx_ceei``'s price loop once: at that slack on the
    approximate route, at 0 on the exact one (``opts.exact``), which takes no
    ``opts.epsilon``. Its ``BudgetExhaustedError`` propagates, at every
    instance size. Its integer prices and flows are verified once, in
    integers (``_routing_holds``), and rounded as they are; only the
    result's prices are ``Fraction``s.
    """
    # The rows the price loop scales anyway: an entry is 0 in its integer row
    # exactly when it is 0.
    if any(0 in ints for ints, _ in row_scales(inst)):
        raise InputError("the surplus pipeline needs strictly positive disutilities")
    if inst.m == 0:
        alloc = SurplusAllocation(tuple(frozenset() for _ in range(inst.n)), 0)
        certificates = (
            check_fisher_integral(inst, alloc, PriceVector(())),
            check_pef1(PriceVector(()), alloc),
            check_ef1(inst, alloc),
            check_fpo(inst, alloc),
        )
        return SurplusResult(alloc, PriceVector(()), ZERO, certificates, (), 0)

    # Phase 1 is proved only for incomes within 1/(5nm) of 1, so a wider
    # slack is an input error, never a rounding failure.
    eps = default_epsilon(inst.n, inst.m)
    if opts.epsilon is not None:
        requested = rat(opts.epsilon)
        if not 0 < requested <= eps:
            raise InputError(f"epsilon must lie in (0, {eps}] for {inst.n} agents "
                             f"and {inst.m} chores, got {requested}")
        eps = requested

    eps, Q, R, L, flows = _price_loop(inst, ZERO if opts.exact else eps)
    step = L // R
    P = [value * step for value in Q]
    if not _routing_holds(inst, eps, P, L, flows):
        raise AlgorithmBugError(_UNVERIFIED)

    state = RoundingState._over_unit(
        inst, eps, L, P, {edge: flow for edge, flow in sorted(flows.items()) if flow})
    phase1(state)
    alloc = phase2(state)
    prices = PriceVector(tuple(Fraction(value, R) for value in Q))

    if alloc.surplus_count > inst.n - 1:
        raise AlgorithmBugError(
            f"certificate: surplus {alloc.surplus_count} exceeds {inst.n - 1}")
    # With eps = e/d, a payment H / R lies below 1 - eps exactly when
    # H * d < (d - e) * R. The prices are Q / R: P belongs to the rounding
    # state, which phase 1 may rescale.
    e, d = eps.numerator, eps.denominator
    floor = (d - e) * R
    for i in range(inst.n):
        units = [Q[u.chore] for u in alloc.bundles[i]]
        held = sum(units)
        if held * d < floor:
            raise AlgorithmBugError(
                f"certificate: agent {i} bundle pays {Fraction(held, R)} < 1-eps")
        if (held - max(units)) * d > floor:
            raise AlgorithmBugError(
                f"certificate: agent {i} keeps more than 1-eps after every removal")

    fisher = check_fisher_integral(inst, alloc, prices)
    pef1 = check_pef1(prices, alloc)
    ef1 = check_ef1(inst, alloc)
    try:
        fpo = check_fpo(inst, alloc)
    except InstanceTooLargeError:
        # Equilibrium outcomes are fractionally Pareto optimal, so the
        # equilibrium certificate substitutes when the linear program would
        # be too large.
        fpo = Certificate(FPO, fisher.holds, {"via": "fisher-equilibrium"})
    certificates = (fisher, pef1, ef1, fpo)
    for certificate in certificates:
        if not certificate.holds:
            raise AlgorithmBugError(
                f"certificate: {certificate.property} failed: {certificate.witness}")
    return SurplusResult(alloc, prices, eps, certificates,
                         tuple(state.trace), state.checkpoints)
