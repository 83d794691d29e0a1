"""Primal simplex over exact rationals, pivoted in integers, from a feasible basis.

``solve_lp`` runs phase 2 only: the caller names a feasible basis, and
Bland's rule (lowest entering column, ties in the ratio test to the lowest
basic index) then terminates from it without cycling (Bland, *New finite
pivoting rules for the simplex method*, Math. Oper. Res. 1977), with
bit-identical results on every run. Its one caller, ``verifiers.check_fpo``,
starts at the allocation under test, which is such a basis. Problem sizes
here are small (at most a few hundred variables), which a dense exact
tableau handles comfortably.

The tableau is an integer matrix pivoted by integer-preserving
(fraction-free) elimination: Bareiss, *Sylvester's identity and multistep
integer-preserving Gaussian elimination* (Math. Comp. 1968); Edmonds,
*Systems of distinct representatives and linear algebra* (1967). With one
common denominator ``d``, pivoting on ``q = T[p][c]`` maps every other row to
``(q*row - row[c]*T[p]) // d``, a division that is exact by Sylvester's
identity, and then sets ``d = q``.

Each row keeps its own denominator instead: row ``r`` of the rational
tableau is ``T[r] / dens[r]``, where ``dens[r]`` is ``d`` as it stood when the
row was last written. A pivot skips every row with a zero in the pivot
column, where the common-denominator rule would only rescale it by ``q/d``.
Those skipped ratios telescope, so ``T[r] * d // dens[r]`` is exact and is
the row the common-denominator rule would hold; a row is lifted to it only
when it becomes the pivot row or the reduced costs are first built from it.
A row the pivot does change is rewritten from its stored values, with the
pivot row lifted: ``(q*row - row[c]*T[p]) // dens[r]`` is ``q`` times the
new rational row, the integer row the common-denominator rule would write,
so this division is exact too. When ``q`` equals ``dens[r]``, as at every
start pivot of the fPO program, that is ``row - row[c]*T[p] // q``, which
moves only the pivot row's nonzero columns, in place, and keeps
``dens[r]``. Every denominator is positive, so a sign reads off a stored entry
directly, and the ratio test compares ``rhs / coeff`` within one row, which
no row scale changes: neither needs a lift. Fractions are built only for the
optimum, from the reduced costs' right-hand side, and for the nonzero basic
entries of the solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm

from .core import ZERO, over_common_denominator, scaled
from .errors import AlgorithmBugError


@dataclass(frozen=True)
class LpResult:
    objective: Fraction
    solution: tuple[Fraction, ...]


def _subtract(line: list[int], coeff: int, base: list[int], den: int) -> None:
    """``line -= coeff * base // den`` in place, over ``base``'s nonzero
    columns only; every quotient must be exact."""
    for k in compress(range(len(base)), base):
        line[k] -= coeff * base[k] // den


def solve_lp(cost, a_eq, b_eq, a_ub, b_ub, start) -> LpResult:
    """Minimize ``cost @ x`` subject to ``a_eq @ x == b_eq``, ``a_ub @ x <= b_ub``, ``x >= 0``,
    starting from the basis in which column ``start[r]`` is basic in equality
    row ``r`` and every inequality row's slack is basic in its row.

    All data must be ints or Fractions, read through their ``numerator`` and
    ``denominator``; the optimum and solution come back exact. The tableau
    is pivoted in integers with one denominator per row (see the module
    docstring): a pivot rewrites only the rows with a nonzero in its column,
    and a row skipped so far is lifted to the current denominator only when
    it is pivoted on or read into the reduced costs. Integer data skips the
    scaling to a common denominator. Raises ``AlgorithmBugError`` when the
    start is not a feasible basis or the program is unbounded below; the
    caller rules out both.
    """
    n = len(cost)
    slack_count = len(a_ub)
    tableau = [list(row) + [b] for row, b in zip(a_ub, b_ub)]
    tableau += [list(row) + [b] for row, b in zip(a_eq, b_eq)]
    values = set().union(*tableau)
    if not all(type(v) is int for v in values):
        scale = lcm(*(v.denominator for v in values))
        tableau = [scaled(row, scale) for row in tableau]
    # Columns are [structural | slack | rhs]: inequality rows first, each
    # with its slack basic at coefficient 1, then the equality rows.
    for r, line in enumerate(tableau):
        line[-1:-1] = [0] * slack_count
        if r < slack_count:
            line[n + r] = 1
    basis = [n + r for r in range(slack_count)] + list(start)
    m_rows = len(tableau)
    dens = [1] * m_rows  # the rational tableau row r is tableau[r] / dens[r]
    denominator = 1  # the last pivot entry, over which a lifted row sits

    def lifted(r: int) -> list[int]:
        line, den = tableau[r], dens[r]
        if den != denominator:
            line = [v * denominator // den for v in line]
            tableau[r], dens[r] = line, denominator
        return line

    def pivot(row: int, col: int) -> None:
        # Every row but the pivot row, the reduced costs' row included once
        # it is appended, by the same rule; rows with a zero in ``col`` keep
        # their values and their denominators.
        nonlocal denominator
        base = lifted(row)
        q = base[col]
        for r, line in enumerate(tableau):
            coeff = line[col]
            if not coeff or r == row:
                continue
            den = dens[r]
            if q == den:
                _subtract(line, coeff, base, den)
            else:
                tableau[r] = [(q * v - coeff * b) // den for v, b in zip(line, base)]
                dens[r] = q
        denominator = dens[row] = q
        basis[row] = col

    for r in range(slack_count, m_rows):
        # An equality may be negated freely: this keeps the denominators
        # positive, so that signs read off directly.
        if tableau[r][basis[r]] < 0:
            tableau[r] = [-v for v in tableau[r]]
        if tableau[r][basis[r]] == 0:
            raise AlgorithmBugError(f"solve_lp: start column {basis[r]} is not basic in row {r}")
        pivot(r, basis[r])
    if any(line[-1] < 0 for line in tableau):
        raise AlgorithmBugError("solve_lp: the start basis is infeasible")

    # Reduced costs in a dedicated last row: the objective over ``unit``,
    # restated over the current basis, times the denominator.
    objective, unit = over_common_denominator(cost)
    z = [denominator * v for v in objective] + [0] * (slack_count + 1)
    for r in range(m_rows):
        coeff = objective[basis[r]] if basis[r] < n else 0
        if coeff:
            _subtract(z, coeff, lifted(r), 1)
    tableau.append(z)
    dens.append(denominator)
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

    solution = [ZERO] * n
    for r in range(m_rows):
        if basis[r] < n and tableau[r][-1]:
            solution[basis[r]] = Fraction(tableau[r][-1], dens[r])
    return LpResult(Fraction(-tableau[m_rows][-1], dens[m_rows] * unit), tuple(solution))
