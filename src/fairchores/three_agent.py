"""Three-agent chore division: a transfer-EFX or proportional allocation.

The solver breaks every tie between distinct chore sets, seeds the partition
with a greedy split that is EFX under the first agent's costs, and then walks
through partitions maintaining three loop invariants until either a consistent
assignment exists (transfer-EFX) or the walk exits through the proportional
branch. The final certificate is always re-verified by ``check_tefx`` or
``check_proportional`` on the instance itself, not on the tie-broken rows.

Both read the rows the instance scaled once (``row_scales``), and the walk
carries every agent's cost of every bundle, ``T[agent][bundle]``: each swap,
move and transfer updates the nine totals by the chores it shifts, so no
step re-sums a bundle.

Ties are broken in integers, the simplest form of Edelsbrunner & Mücke's
"Simulation of Simplicity" (ACM TOG 1990): every comparison in the walk is
between two chore sets under one agent's costs, so each row is scaled to
integers on its own and chore ``j``'s tie-break weight ``2^(j+1)`` sits in
the low bits (``_tie_broken_rows``). ``perturb_nondegenerate`` applies the
same order as an explicit rational epsilon and stays as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import Optional, Sequence

from .core import Certificate, ChoreCopy, Instance, SurplusAllocation, rat, row_scales
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

    ``solve_three`` does not call this: it orders sets by
    ``_tie_broken_rows``, which is this order in integers. This explicit form
    is the test oracle for that order, and the way to check non-degeneracy
    with ``check_nondegenerate``.
    """
    m = inst.m
    common = lcm(*(value.denominator for row in inst.disutility for value in row))
    eps = Fraction(1, 2 * common * 2 ** (m + 1))
    rows = tuple(
        tuple(value + eps * 2 ** (j + 1) for j, value in enumerate(row))
        for row in inst.disutility)
    return Instance(rows), eps


def _tie_broken_rows(scaled) -> list[list[int]]:
    """Integer rows that order one agent's chore sets as the perturbation does.

    ``scaled`` holds each row as ``row_scales`` gives it, ``(ints, K_i)``:
    ``K_i`` is the lcm of row ``i``'s denominators and ``ints`` is the
    ``integer_rows`` row, its entries times ``K_i``. Entry ``(i, j)`` is
    ``K_i d_ij 2^(m+1) + 2^(j+1)``. Two sets whose original costs differ then
    differ by at least ``2^(m+1)``, more than any two fingerprints
    ``sum 2^(j+1)`` can, so every strict comparison keeps its direction and
    ties break as under ``perturb_nondegenerate``. Rows are scaled apart, so
    only sets under the same agent's costs may be compared.
    """
    m = len(scaled[0][0])
    unit = 2 << m
    marks = [2 << j for j in range(m)]
    return [[value * unit + mark for value, mark in zip(ints, marks)] for ints, _ in scaled]


def efx_identical(costs: Sequence, n: int) -> tuple[frozenset[int], ...]:
    """Greedy split that is EFX when every agent shares the given costs.

    Chores are placed in non-increasing cost order (ties by ascending id),
    each going to the currently cheapest bundle (ties by ascending bundle
    index). Each bundle is a set filled in that order, so its iteration
    order, which a result's ``repr`` prints, depends on nothing else.
    """
    costs = [v if type(v) is int else rat(v) for v in costs]
    # A reversed sort is still stable: equal costs keep ascending ids.
    order = sorted(range(len(costs)), key=costs.__getitem__, reverse=True)
    if n == 3:  # the solver's split: three running totals, compared directly
        first, second, third = set(), set(), set()
        a = b = c = 0
        for chore in order:
            if a <= b and a <= c:
                first.add(chore)
                a += costs[chore]
            elif b <= c:
                second.add(chore)
                b += costs[chore]
            else:
                third.add(chore)
                c += costs[chore]
        return frozenset(first), frozenset(second), frozenset(third)
    bundles: list[set[int]] = [set() for _ in range(n)]
    totals = [0] * n
    for chore in order:
        target = totals.index(min(totals))
        bundles[target].add(chore)
        totals[target] += costs[chore]
    return tuple(frozenset(b) for b in bundles)


def _cost(row, chores):
    return sum(map(row.__getitem__, chores))


def _totals(rows, partition) -> list[list]:
    """``T[agent][bundle]``: every agent's cost of every bundle."""
    return [[_cost(row, bundle) for bundle in partition] for row in rows]


def _cheapest(row, partition) -> list:
    """The agent's cost of each bundle's cheapest chore; None for an empty bundle."""
    return [min(map(row.__getitem__, bundle)) if bundle else None for bundle in partition]


def _fits(totals, k: int, drop) -> bool:
    """Whether bundle ``k``, with the agent's bundle ``totals`` and its
    cheapest chore costing ``drop`` (None when empty), stays unenvied after
    any single transfer: the least other total decides."""
    if drop is None:
        return True
    others = totals[:k] + totals[k + 1:]
    return not others or totals[k] - drop <= min(others) + drop


def tefx_feasible(rows, agent: int, k: int, partition) -> bool:
    """Whether bundle ``k`` stays unenvied by ``agent`` after any single transfer.

    Additivity means only the cheapest chore of the bundle needs checking.
    ``rows`` are an instance's ``disutility`` or the solver's integer rows.
    """
    row = rows[agent]
    return _fits([_cost(row, bundle) for bundle in partition], k, _cheapest(row, partition)[k])


def _match(totals, cheapest) -> Optional[dict[int, int]]:
    """``terminal_assignment`` from the totals and from the cheapest chores
    of agents 0 and 2 (``cheapest[0]`` and ``cheapest[2]``)."""
    fits0 = [k for k in range(3) if _fits(totals[0], k, cheapest[0][k])]
    fits2 = [k for k in range(3) if _fits(totals[2], k, cheapest[2][k])]
    least = min(totals[1])
    fits1 = [k for k in range(3) if totals[1][k] == least]
    for b0 in fits0:
        for b1 in fits1:
            if b1 != b0:
                for b2 in fits2:
                    if b2 != b0 and b2 != b1:
                        return {0: b0, 1: b1, 2: b2}
    return None


def terminal_assignment(rows, partition) -> Optional[dict[int, int]]:
    """Match agents to bundles everyone accepts, if possible.

    Agents 0 and 2 accept their transfer-EFX-feasible bundles; agent 1
    accepts her cheapest bundle(s). Returns the lexicographically smallest
    perfect matching as an agent-to-bundle map, or None.
    """
    cheapest = [_cheapest(rows[0], partition), None, _cheapest(rows[2], partition)]
    return _match(_totals(rows, partition), cheapest)


@dataclass(frozen=True)
class ThreeResult:
    kind: str  # "tEFX" or "Proportional"
    alloc: SurplusAllocation  # bundle per agent, no copies
    assignment: tuple[int, int, int]  # bundle label handed to each agent
    certificate: Certificate
    trace: tuple[dict, ...]
    iterations: int


def _check_invariants(rows, bundles, totals) -> list:
    """Raise on a broken loop invariant. ``totals`` are the loop's carried
    ``T[agent][bundle]``; returns the cheapest chores of agents 0 and 2, as
    ``_match`` reads them."""
    cheapest = [_cheapest(rows[0], bundles), None, _cheapest(rows[2], bundles)]
    own = totals[0]
    for k in (0, 1):
        drop = cheapest[0][k]
        if not _fits(own, k, drop):
            raise AlgorithmBugError(f"three-agent loop: bundle {k} lost feasibility for agent 0")
        if drop is not None and own[k] - drop > own[2]:
            raise AlgorithmBugError(
                f"three-agent loop: bundle {k} minus a chore exceeds bundle 2 for agent 0")
    if not _fits(totals[2], 2, cheapest[2][2]):
        raise AlgorithmBugError("three-agent loop: bundle 2 lost feasibility for agent 2")
    return cheapest


def _result(inst: Instance, bundles_by_agent, assignment, kind, trace,
            iterations) -> ThreeResult:
    # One unit per chore, made without the named tuple's Python-level
    # constructor; each bundle maps its chores to them in its own set order.
    m = inst.m
    units = list(map(tuple.__new__, repeat(ChoreCopy, m), zip(range(m), repeat(0))))
    alloc = SurplusAllocation(
        tuple(frozenset(map(units.__getitem__, bundle)) for bundle in bundles_by_agent), m)
    certificate = (check_tefx if kind == "tEFX" else check_proportional)(inst, alloc)
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
    rows = _tie_broken_rows(row_scales(inst))

    greedy = efx_identical(rows[0], 3)
    totals = _totals(rows, greedy)
    # Labels sorted so agent 2 ranks them: bundle2 <= bundle0 <= bundle1.
    # The sort is stable, so equal costs keep ascending labels.
    low, middle, high = sorted(range(3), key=totals[2].__getitem__)
    bundles = [greedy[middle], greedy[high], greedy[low]]
    totals = [[t[middle], t[high], t[low]] for t in totals]

    trace: list[dict] = []
    previous_phi: Optional[int] = None

    for iteration in range(m + 1):
        swapped = False
        if totals[2][0] > totals[2][1]:
            bundles[0], bundles[1] = bundles[1], bundles[0]
            for t in totals:
                t[0], t[1] = t[1], t[0]
            swapped = True
        cheapest = _check_invariants(rows, bundles, totals)
        phi = len(bundles[0]) + len(bundles[1])
        if previous_phi is not None and phi >= previous_phi:
            raise AlgorithmBugError(f"three-agent loop: potential stalled at {phi}")
        previous_phi = phi

        assignment = _match(totals, cheapest)
        if assignment is not None:
            trace.append({"iteration": iteration, "phi": phi, "branch": "terminal",
                          "swapped": swapped})
            by_agent = [bundles[assignment[a]] for a in range(3)]
            labels = [assignment[a] for a in range(3)]
            return _result(inst, by_agent, labels, "tEFX", trace, iteration + 1)

        # Only bundle 2 fits agent 2 now; move her least-cost chore over.
        # Every row's entries are distinct, so the least cost names one chore.
        row0, row2 = rows[0], rows[2]
        mover = min(bundles[0], key=row2.__getitem__)
        step = [row[mover] for row in rows]
        if totals[2][0] - step[2] <= totals[2][2] + step[2]:
            raise AlgorithmBugError(
                "three-agent loop: moved chore failed to keep bundle 0 heavier")
        totals = [[t[0] - d, t[1], t[2] + d] for t, d in zip(totals, step)]
        candidate = [bundles[0] - {mover}, bundles[1], bundles[2] | {mover}]
        if _fits(totals[0], 1, cheapest[0][1]):
            trace.append({"iteration": iteration, "phi": phi, "branch": "move",
                          "moved": [mover], "swapped": swapped})
            bundles = candidate
            continue

        # Rebalance: shift the cheapest chores (agent 0's view) from bundle 1
        # to bundle 0 until the order flips on the next shift.
        order = sorted(candidate[1], key=row0.__getitem__)
        one, two = totals[0][0], totals[0][1]
        take = None
        for index in range(1, len(order)):
            shift = row0[order[index - 1]]
            one += shift
            two -= shift
            if one < two:
                nxt = row0[order[index]]
                if one + nxt >= two - nxt:
                    take = index
                    break
        if take is None:
            raise AlgorithmBugError(
                "three-agent loop: no valid transfer prefix: rebalancing failed")
        shifted = order[:take]
        moving = set(shifted)
        balanced = [candidate[0] | moving, candidate[1] - moving, candidate[2]]
        totals = [[t[0] + s, t[1] - s, t[2]]
                  for t, s in zip(totals, (_cost(row, shifted) for row in rows))]
        # Bundle 2 gained the mover, so its cheapest chore for agent 2 is the
        # cheaper of the two.
        drop = step[2] if cheapest[2][2] is None else min(cheapest[2][2], step[2])
        if _fits(totals[2], 2, drop):
            trace.append({"iteration": iteration, "phi": phi, "branch": "transfer",
                          "moved": [mover] + shifted, "swapped": swapped})
            bundles = balanced
            continue

        # Proportional exit: agent 1 takes her cheapest bundle; agents 0 and 2
        # take their proven-proportional bundles from the remainder.
        costs1 = totals[1]
        favorite = costs1.index(min(costs1))
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
