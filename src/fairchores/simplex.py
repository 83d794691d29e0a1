"""Primal simplex over exact rationals, pivoted in integers, from a feasible basis.

``solve_lp`` runs phase 2 only: the caller names a feasible basis, and
Bland's rule (lowest entering column, ties in the ratio test to the lowest
basic index) then terminates from it without cycling (Bland, *New finite
pivoting rules for the simplex method*, Math. Oper. Res. 1977), with
bit-identical results on every run. Its one caller, ``verifiers.check_fpo``,
starts at the allocation under test, which is such a basis. Problem sizes
here are small (at most a few hundred variables), which a dense exact
tableau handles comfortably.

The tableau is one integer matrix over one common denominator ``d`` and is
pivoted by integer-preserving (fraction-free) elimination: Bareiss,
*Sylvester's identity and multistep integer-preserving Gaussian elimination*
(Math. Comp. 1968); Edmonds, *Systems of distinct representatives and linear
algebra* (1967). Pivoting tableau ``T`` on ``q = T[p][c]`` maps every other row
to ``(q*row - row[c]*T[p]) // d``, a division that is exact by Sylvester's
identity, and then sets ``d = q``. Dividing the integer tableau by ``d > 0``
gives the rational tableau entry by entry, so every sign test and ratio
comparison decides as it would over ``Fraction``s; fractions are only built
for the returned solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import over_common_denominator, scaled
from .errors import AlgorithmBugError


@dataclass(frozen=True)
class LpResult:
    objective: Fraction
    solution: tuple[Fraction, ...]


def solve_lp(cost, a_eq, b_eq, a_ub, b_ub, start) -> LpResult:
    """Minimize ``cost @ x`` subject to ``a_eq @ x == b_eq``, ``a_ub @ x <= b_ub``, ``x >= 0``,
    starting from the basis in which column ``start[r]`` is basic in equality
    row ``r`` and every inequality row's slack is basic in its row.

    All data must be ints or Fractions, read through their ``numerator`` and
    ``denominator``; the optimum and solution come back exact. Raises
    ``AlgorithmBugError`` when the start is not a feasible basis or the
    program is unbounded below; the caller rules out both.
    """
    n = len(cost)
    slack_count = len(a_ub)
    rows = [list(row) + [b] for row, b in zip(a_ub, b_ub)]
    rows += [list(row) + [b] for row, b in zip(a_eq, b_eq)]
    scale = lcm(*(v.denominator for row in rows for v in row))
    # Columns are [structural | slack | rhs]: inequality rows first, each
    # with its slack basic at coefficient 1, then the equality rows.
    tableau = []
    for r, row in enumerate(rows):
        line = scaled(row, scale)
        tableau.append(line[:-1] + [int(s == r) for s in range(slack_count)] + line[-1:])
    basis = [n + r for r in range(slack_count)] + list(start)
    m_rows = len(tableau)
    denominator = 1  # the rational tableau is tableau / denominator

    def pivot(row: int, col: int) -> None:
        # Every row but the pivot row, the reduced costs' row included once
        # it is appended, by the same rule.
        nonlocal denominator
        d, q, base = denominator, tableau[row][col], tableau[row]
        for r, line in enumerate(tableau):
            if r == row:
                continue
            coeff = line[col]
            if coeff:
                tableau[r] = [(q * v - coeff * b) // d for v, b in zip(line, base)]
            elif q != d:
                tableau[r] = [q * v // d for v in line]
        denominator = q
        basis[row] = col

    for r in range(slack_count, m_rows):
        # An equality may be negated freely: this keeps the denominator
        # positive, so that signs read off directly.
        if tableau[r][basis[r]] < 0:
            tableau[r] = [-v for v in tableau[r]]
        if tableau[r][basis[r]] == 0:
            raise AlgorithmBugError(f"solve_lp: start column {basis[r]} is not basic in row {r}")
        pivot(r, basis[r])
    if any(line[-1] < 0 for line in tableau):
        raise AlgorithmBugError("solve_lp: the start basis is infeasible")

    # Reduced costs in a dedicated last row: the objective restated over the
    # current basis, times the denominator.
    objective = over_common_denominator(cost)[0] + [0] * slack_count
    z = [denominator * v for v in objective] + [0]
    for r in range(m_rows):
        coeff = objective[basis[r]]
        if coeff:
            z = [v - coeff * b for v, b in zip(z, tableau[r])]
    tableau.append(z)
    while True:
        z = tableau[m_rows]
        entering = next((col for col in range(n + slack_count) if z[col] < 0), -1)
        if entering < 0:
            break
        # Least ratio rhs/coeff by cross-multiplication, ties to the lowest
        # basic index.
        leaving = -1
        for r in range(m_rows):
            coeff = tableau[r][entering]
            if coeff > 0:
                if leaving < 0:
                    leaving = r
                    continue
                mine = tableau[r][-1] * tableau[leaving][entering]
                best = tableau[leaving][-1] * coeff
                if mine < best or (mine == best and basis[r] < basis[leaving]):
                    leaving = r
        if leaving < 0:
            raise AlgorithmBugError("solve_lp: the program is unbounded below")
        pivot(leaving, entering)

    solution = [Fraction(0)] * n
    for r in range(m_rows):
        if basis[r] < n:
            solution[basis[r]] = Fraction(tableau[r][-1], denominator)
    return LpResult(sum((cost[j] * solution[j] for j in range(n)), Fraction(0)),
                    tuple(solution))
