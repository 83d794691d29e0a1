"""Three-agent chore division: a transfer-EFX or proportional allocation.

The solver breaks every tie between distinct chore sets, seeds the partition
with a greedy split that is EFX under the first agent's costs, and then walks
through partitions maintaining three loop invariants until either a consistent
assignment exists (transfer-EFX) or the walk exits through the proportional
branch. The final certificate is always re-verified against the original,
unscaled instance.

Ties are broken in integers, the simplest form of Edelsbrunner & Mücke's
"Simulation of Simplicity" (ACM TOG 1990): every comparison in the walk is
between two chore sets under one agent's costs, so each row is scaled to
integers on its own and chore ``j``'s tie-break weight ``2^(j+1)`` sits in
the low bits (``_scaled_rows``). ``perturb_nondegenerate`` applies the same
order as an explicit rational epsilon and stays as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .core import Certificate, ChoreCopy, Instance, SurplusAllocation, integer_rows, rat
from .errors import AlgorithmBugError, InputError
from .verifiers import check_proportional, check_tefx

Partition3 = tuple[frozenset[int], frozenset[int], frozenset[int]]


def perturb_nondegenerate(inst: Instance) -> tuple[Instance, Fraction]:
    """Additively perturb so every agent values distinct sets distinctly.

    Chore ``j`` (0-based) gains ``eps * 2^(j+1)``; distinct subsets then get
    distinct binary fingerprints. With ``D`` the common denominator of all
    entries, two distinct subset sums of the original instance differ by at
    least ``1/D``, so ``eps = 1 / (2 D 2^(m+1))`` keeps every strict original
    comparison strict after perturbation.

    ``solve_three`` does not call this: it orders sets by ``_scaled_rows``,
    which is this order in integers. This explicit form is the test oracle
    for that order, and the way to check non-degeneracy with
    ``check_nondegenerate``.
    """
    m = inst.m
    common = lcm(*(value.denominator for row in inst.disutility for value in row))
    eps = Fraction(1, 2 * common * 2 ** (m + 1))
    rows = tuple(
        tuple(value + eps * 2 ** (j + 1) for j, value in enumerate(row))
        for row in inst.disutility)
    return Instance(rows), eps


def _scaled_rows(inst: Instance) -> tuple[tuple[int, ...], ...]:
    """Integer rows that order one agent's chore sets as the perturbation does.

    Entry ``(i, j)`` is ``K_i d_ij 2^(m+1) + 2^(j+1)``, where ``K_i d_ij`` is
    the ``integer_rows`` entry: ``K_i`` is the lcm of row ``i``'s
    denominators. Two sets whose original costs differ then differ by at
    least ``2^(m+1)``, more than any two fingerprints ``sum 2^(j+1)`` can, so
    every strict comparison keeps its direction and ties break as under
    ``perturb_nondegenerate``. Rows are scaled apart, so only sets under the
    same agent's costs may be compared.
    """
    unit = 2 ** (inst.m + 1)
    return tuple(tuple(value * unit + 2 ** (j + 1) for j, value in enumerate(row))
                 for row in integer_rows(inst))


def efx_identical(costs: Sequence, n: int) -> tuple[frozenset[int], ...]:
    """Greedy split that is EFX when every agent shares the given costs.

    Chores are placed in non-increasing cost order (ties by ascending id),
    each going to the currently cheapest bundle (ties by ascending bundle
    index).
    """
    costs = [v if type(v) is int else rat(v) for v in costs]
    bundles: list[set[int]] = [set() for _ in range(n)]
    totals = [0] * n
    for c in sorted(range(len(costs)), key=lambda c: (-costs[c], c)):
        target = min(range(n), key=lambda k: (totals[k], k))
        bundles[target].add(c)
        totals[target] += costs[c]
    return tuple(frozenset(b) for b in bundles)


def _cost(rows, agent: int, chores):
    row = rows[agent]
    return sum(row[c] for c in chores)


def tefx_feasible(rows, agent: int, k: int, partition) -> bool:
    """Whether bundle ``k`` stays unenvied by ``agent`` after any single transfer.

    Additivity means only the cheapest chore of the bundle needs checking.
    ``rows`` are an instance's ``disutility`` or the solver's integer rows.
    """
    bundle = partition[k]
    if not bundle:
        return True
    drop = min(rows[agent][c] for c in bundle)
    total = _cost(rows, agent, bundle)
    for j in range(len(partition)):
        if j == k:
            continue
        if total - drop > _cost(rows, agent, partition[j]) + drop:
            return False
    return True


def terminal_assignment(rows, partition) -> Optional[dict[int, int]]:
    """Match agents to bundles everyone accepts, if possible.

    Agents 0 and 2 accept their transfer-EFX-feasible bundles; agent 1
    accepts her cheapest bundle(s). Returns the lexicographically smallest
    perfect matching as an agent-to-bundle map, or None.
    """
    acceptable = [set(), set(), set()]
    for k in range(3):
        if tefx_feasible(rows, 0, k, partition):
            acceptable[0].add(k)
        if tefx_feasible(rows, 2, k, partition):
            acceptable[2].add(k)
    costs = [_cost(rows, 1, partition[k]) for k in range(3)]
    cheapest = min(costs)
    acceptable[1] = {k for k in range(3) if costs[k] == cheapest}
    for b0 in sorted(acceptable[0]):
        for b1 in sorted(acceptable[1] - {b0}):
            for b2 in sorted(acceptable[2] - {b0, b1}):
                return {0: b0, 1: b1, 2: b2}
    return None


@dataclass(frozen=True)
class ThreeResult:
    kind: str  # "tEFX" or "Proportional"
    alloc: SurplusAllocation  # bundle per agent, no copies
    assignment: tuple[int, int, int]  # bundle label handed to each agent
    certificate: Certificate
    trace: tuple[dict, ...]
    iterations: int


def _check_invariants(rows, bundles: list[frozenset[int]]) -> None:
    for k in (0, 1):
        if not tefx_feasible(rows, 0, k, bundles):
            raise AlgorithmBugError(f"three-agent loop: bundle {k} lost feasibility for agent 0")
        if bundles[k]:
            worst = _cost(rows, 0, bundles[k]) - min(rows[0][c] for c in bundles[k])
            if worst > _cost(rows, 0, bundles[2]):
                raise AlgorithmBugError(
                    f"three-agent loop: bundle {k} minus a chore exceeds bundle 2 for agent 0")
    if not tefx_feasible(rows, 2, 2, bundles):
        raise AlgorithmBugError("three-agent loop: bundle 2 lost feasibility for agent 2")


def _result(inst: Instance, bundles_by_agent, assignment, kind, trace, iterations) -> ThreeResult:
    alloc = SurplusAllocation(
        tuple(frozenset(ChoreCopy(c, 0) for c in bundle) for bundle in bundles_by_agent),
        inst.m)
    if kind == "tEFX":
        certificate = check_tefx(inst, alloc)
    else:
        certificate = check_proportional(inst, alloc)
    if not certificate.holds:
        raise AlgorithmBugError(
            f"certificate: {kind} claim failed on the original instance: {certificate.witness}")
    return ThreeResult(kind, alloc, tuple(assignment), certificate,
                       tuple(trace), iterations)


def solve_three(inst: Instance) -> ThreeResult:
    """Partition three agents' chores into a tEFX or proportional allocation."""
    if inst.n != 3:
        raise InputError(f"expected 3 agents, got {inst.n}")
    m = inst.m
    rows = _scaled_rows(inst)

    greedy = efx_identical(rows[0], 3)
    # Labels sorted so agent 2 ranks them: bundle2 <= bundle0 <= bundle1.
    by_agent2 = sorted(range(3), key=lambda k: (_cost(rows, 2, greedy[k]), k))
    bundles = [greedy[by_agent2[1]], greedy[by_agent2[2]], greedy[by_agent2[0]]]

    trace: list[dict] = []
    previous_phi: Optional[int] = None

    for iteration in range(m + 1):
        swapped = False
        if _cost(rows, 2, bundles[0]) > _cost(rows, 2, bundles[1]):
            bundles[0], bundles[1] = bundles[1], bundles[0]
            swapped = True
        _check_invariants(rows, bundles)
        phi = len(bundles[0]) + len(bundles[1])
        if previous_phi is not None and phi >= previous_phi:
            raise AlgorithmBugError(f"three-agent loop: potential stalled at {phi}")
        previous_phi = phi

        assignment = terminal_assignment(rows, bundles)
        if assignment is not None:
            trace.append({"iteration": iteration, "phi": phi, "branch": "terminal",
                          "swapped": swapped})
            by_agent = [bundles[assignment[a]] for a in range(3)]
            labels = [assignment[a] for a in range(3)]
            return _result(inst, by_agent, labels, "tEFX", trace, iteration + 1)

        # Only bundle 2 fits agent 2 now; move her least-cost chore over.
        mover = min(bundles[0], key=lambda c: (rows[2][c], c))
        slim = bundles[0] - {mover}
        grown = bundles[2] | {mover}
        if _cost(rows, 2, slim) <= _cost(rows, 2, grown):
            raise AlgorithmBugError(
                "three-agent loop: moved chore failed to keep bundle 0 heavier")
        candidate = [slim, bundles[1], grown]
        if tefx_feasible(rows, 0, 1, candidate):
            trace.append({"iteration": iteration, "phi": phi, "branch": "move",
                          "moved": [mover], "swapped": swapped})
            bundles = candidate
            continue

        # Rebalance: shift the cheapest chores (agent 0's view) from bundle 1
        # to bundle 0 until the order flips on the next shift.
        order = sorted(candidate[1], key=lambda c: (rows[0][c], c))
        chosen = None
        for take in range(1, len(order)):
            one = candidate[0] | set(order[:take])
            two = candidate[1] - set(order[:take])
            if _cost(rows, 0, one) < _cost(rows, 0, two):
                nxt = order[take]
                if _cost(rows, 0, one) + rows[0][nxt] >= _cost(rows, 0, two) - rows[0][nxt]:
                    chosen = (frozenset(one), frozenset(two), take)
                    break
        if chosen is None:
            raise AlgorithmBugError(
                "three-agent loop: no valid transfer prefix: rebalancing failed")
        balanced = [chosen[0], chosen[1], candidate[2]]
        if tefx_feasible(rows, 2, 2, balanced):
            trace.append({"iteration": iteration, "phi": phi, "branch": "transfer",
                          "moved": [mover] + order[:chosen[2]], "swapped": swapped})
            bundles = balanced
            continue

        # Proportional exit: agent 1 takes her cheapest bundle; agents 0 and 2
        # take their proven-proportional bundles from the remainder.
        costs1 = [_cost(rows, 1, b) for b in balanced]
        favorite = min(range(3), key=lambda k: (costs1[k], k))
        if favorite == 0:
            labels = [1, 0, 2]
        elif favorite == 1:
            labels = [0, 1, 2]
        else:
            labels = [0, 2, 1]
        trace.append({"iteration": iteration, "phi": phi, "branch": "proportional",
                      "favorite": favorite, "swapped": swapped})
        by_agent = [balanced[labels[a]] for a in range(3)]
        return _result(inst, by_agent, labels, "Proportional", trace, iteration + 1)

    raise AlgorithmBugError(f"three-agent loop: exceeded {m} iterations")
