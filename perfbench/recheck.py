"""Re-check solver outputs with plain Fraction arithmetic.

Nothing here calls the library's own ``check_*`` functions, so a broken
verifier cannot also pass the benchmark. Inputs are plain data: the instance
rows as generated, bundles as lists of (chore, copy) pairs, and prices and
epsilon as rationals. Each check returns the list of problems found; an empty
list means the output is correct.
"""

from __future__ import annotations

from fractions import Fraction


def _unit_problems(m: int, bundles) -> list[str]:
    units = [unit for bundle in bundles for unit in bundle]
    if len(set(units)) != len(units):
        return ["a chore copy is held twice"]
    bad = [unit for unit in units if not (0 <= unit[0] < m and unit[1] >= 0)]
    if bad:
        return [f"unit {bad[0]} is out of range"]
    missing = set(range(m)) - {c for c, k in units if k == 0}
    if missing:
        return [f"chores never allocated: {sorted(missing)}"]
    return []


def check_surplus(rows, bundles, prices, eps, exact: bool) -> list[str]:
    """Coverage, at most n-1 copies, EF1, min-pain-per-buck units (so fPO),
    the payment window [1-eps, removal below 1-eps], and the epsilon route."""
    n, m = len(rows), len(rows[0])
    rows = [[Fraction(v) for v in row] for row in rows]
    if len(bundles) != n:
        return [f"{len(bundles)} bundles for {n} agents"]
    problems = _unit_problems(m, bundles)
    if problems:
        return problems
    copies = sum(1 for bundle in bundles for _, k in bundle if k > 0)
    if copies > n - 1:
        problems.append(f"{copies} copies exceed n-1 = {n - 1}")

    prices = [Fraction(p) for p in prices]
    eps = Fraction(eps)
    if len(prices) != m or any(p <= 0 for p in prices):
        return problems + ["prices are not m strictly positive rationals"]
    if exact and eps != 0:
        problems.append(f"exact route returned epsilon {eps}, not 0")
    if not 0 <= eps <= Fraction(1, 5 * n * m):
        problems.append(f"epsilon {eps} is outside [0, 1/(5nm)]")

    for i in range(n):
        own = [c for c, _ in bundles[i]]
        best = min(rows[i][c] / prices[c] for c in range(m))
        for c in own:
            if rows[i][c] / prices[c] != best:
                problems.append(f"agent {i} holds chore {c}, not a min-pain-per-buck chore")
        cost = sum((rows[i][c] for c in own), Fraction(0))
        drop = max((rows[i][c] for c in own), default=Fraction(0))
        for j in range(n):
            other = sum((rows[i][c] for c, _ in bundles[j]), Fraction(0))
            if j != i and cost - drop > other:
                problems.append(f"agent {i} envies agent {j} beyond one chore")
        held = sum((prices[c] for c in own), Fraction(0))
        if held < 1 - eps:
            problems.append(f"agent {i} is paid {held} < 1 - eps")
        elif min(held - prices[c] for c in own) > 1 - eps:
            problems.append(f"agent {i} stays above 1 - eps after every removal")
    return problems


def check_three(rows, bundles, kind: str) -> list[str]:
    """A partition of the chores among three agents that is tEFX or
    proportional, whichever ``kind`` claims."""
    m = len(rows[0])
    rows = [[Fraction(v) for v in row] for row in rows]
    if len(bundles) != 3:
        return [f"{len(bundles)} bundles for 3 agents"]
    problems = _unit_problems(m, bundles)
    if any(k != 0 for bundle in bundles for _, k in bundle):
        problems.append("a three-agent split holds a copy")
    if problems:
        return problems
    cost = [[sum((rows[i][c] for c, _ in bundles[j]), Fraction(0)) for j in range(3)]
            for i in range(3)]
    if kind == "tEFX":
        for i in range(3):
            for c, _ in bundles[i]:
                for j in range(3):
                    if j != i and cost[i][i] - rows[i][c] > cost[i][j] + rows[i][c]:
                        problems.append(
                            f"agent {i} still envies agent {j} after chore {c} moves")
    elif kind == "Proportional":
        for i in range(3):
            if 3 * cost[i][i] > sum(rows[i], Fraction(0)):
                problems.append(f"agent {i} pays more than a third")
    else:
        problems.append(f"unknown result kind {kind!r}")
    return problems
