"""Two-phase primal simplex over exact rationals, pivoted in integers.

Dense tableau with Bland's rule, so it cannot cycle and gives bit-identical
results on every run. Problem sizes here are tiny (tens of variables), which
a dense exact tableau handles comfortably.

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
from typing import Optional

from .core import over_common_denominator, scaled
from .errors import InputError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpResult:
    status: str
    objective: Optional[Fraction]
    solution: Optional[tuple[Fraction, ...]]


def solve_lp(cost, a_eq=None, b_eq=None, a_ub=None, b_ub=None) -> LpResult:
    """Minimize ``cost @ x`` subject to ``a_eq @ x == b_eq``, ``a_ub @ x <= b_ub``, ``x >= 0``.

    All data must be ints or Fractions, read through their ``numerator`` and
    ``denominator``; the optimum and solution come back exact.
    """
    cost = list(cost)
    n = len(cost)
    rows: list[list] = []
    rhs: list = []
    slack_count = 0
    if a_ub:
        slack_count = len(a_ub)
    for idx, row in enumerate(a_ub or []):
        if len(row) != n:
            raise InputError("inequality row width mismatch")
        slack = [0] * slack_count
        slack[idx] = 1
        rows.append(list(row) + slack)
        rhs.append(b_ub[idx])
    for idx, row in enumerate(a_eq or []):
        if len(row) != n:
            raise InputError("equality row width mismatch")
        rows.append(list(row) + [0] * slack_count)
        rhs.append(b_eq[idx])

    total_vars = n + slack_count
    m_rows = len(rows)
    # One scale for every row: a factor per row would reweight the phase-1
    # artificials and could change the pivot path.
    scale = lcm(*(v.denominator for row in rows for v in row),
                *(v.denominator for v in rhs))
    # Tableau layout: columns are [structural + slack | artificial | rhs].
    # A row with a negative right-hand side is negated, in integers.
    tableau = []
    for r in range(m_rows):
        line = scaled(rows[r] + [0] * m_rows + [rhs[r]], scale)
        if rhs[r] < 0:
            line = [-v for v in line]
        line[total_vars + r] = 1
        tableau.append(line)
    basis = [total_vars + r for r in range(m_rows)]
    width = total_vars + m_rows + 1
    denominator = 1  # the rational tableau is tableau / denominator

    def pivot(row: int, col: int) -> None:
        # Every row but the pivot row, the reduced costs' row included while
        # a phase runs, by the same rule.
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
        if q < 0:
            # Only a lingering artificial's pivot can be negative. Keep the
            # denominator positive so that signs read off directly.
            for r, line in enumerate(tableau):
                tableau[r] = [-v for v in line]
            q = -q
        denominator = q
        basis[row] = col

    def run_phase(objective: list[int]) -> str:
        # Reduced costs maintained in a dedicated last row: the objective
        # restated over the current basis, times the denominator.
        z = [denominator * v for v in objective] + [0]
        for r in range(m_rows):
            coeff = objective[basis[r]]
            if coeff:
                z = [v - coeff * b for v, b in zip(z, tableau[r])]
        tableau.append(z)
        while True:
            z = tableau[m_rows]
            entering = next((col for col in range(width - 1) if z[col] < 0), -1)
            if entering < 0:
                tableau.pop()
                return OPTIMAL
            # Least ratio rhs/coeff by cross-multiplication, ties to the
            # lowest basic index.
            leaving = -1
            for r in range(m_rows):
                coeff = tableau[r][entering]
                if coeff > 0:
                    if leaving < 0:
                        leaving = r
                        continue
                    mine = tableau[r][width - 1] * tableau[leaving][entering]
                    best = tableau[leaving][width - 1] * coeff
                    if mine < best or (mine == best and basis[r] < basis[leaving]):
                        leaving = r
            if leaving < 0:
                tableau.pop()
                return UNBOUNDED
            pivot(leaving, entering)

    # Phase 1: drive the artificial variables to zero.
    run_phase([0] * total_vars + [1] * m_rows)
    infeasibility = sum(tableau[r][width - 1] for r in range(m_rows) if basis[r] >= total_vars)
    if infeasibility != 0:
        return LpResult(INFEASIBLE, None, None)
    # Pivot lingering zero-valued artificials out of the basis where possible.
    for r in range(m_rows):
        if basis[r] >= total_vars:
            for col in range(total_vars):
                if tableau[r][col] != 0:
                    pivot(r, col)
                    break

    # Forbid re-entering artificial columns.
    for r in range(m_rows):
        for col in range(total_vars, total_vars + m_rows):
            tableau[r][col] = 0
    phase2_cost, _ = over_common_denominator(cost)
    status = run_phase(phase2_cost + [0] * (slack_count + m_rows))
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)

    solution = [Fraction(0)] * n
    for r in range(m_rows):
        if basis[r] < n:
            solution[basis[r]] = Fraction(tableau[r][width - 1], denominator)
    objective = sum((cost[j] * solution[j] for j in range(n)), Fraction(0))
    return LpResult(OPTIMAL, objective, tuple(solution))
