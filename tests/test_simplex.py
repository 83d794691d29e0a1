import random
from fractions import Fraction

import pytest
from scipy.optimize import linprog

from fairchores import verifiers
from fairchores.core import ChoreCopy, Instance, SurplusAllocation
from fairchores.errors import AlgorithmBugError
from fairchores.rounding import fair_and_efficient
from fairchores.simplex import LpResult, solve_lp

F = Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def test_box_corner():
    result = solve_lp([-1, -1], [], [], [[1, 0], [0, 1]], [1, 1], [])
    assert result == LpResult(F(-2), (F(1), F(1)))


def test_equality_pins_variable():
    assert solve_lp([1], [[1]], [5], [], [], [0]).objective == 5


def test_exact_rational_optimum():
    # min x0 + x1 with 3 x0 + x1 - x2 == 1 and x0 + 3 x1 - x3 == 1, started
    # at x0 = 1 with the surplus x2 = 2 basic in the first row, whose start
    # entry is negative.
    result = solve_lp([1, 1, 0, 0], [[3, 1, -1, 0], [1, 3, 0, -1]], [1, 1], [], [], [2, 0])
    assert result == LpResult(F(1, 2), (F(1, 4), F(1, 4), F(0), F(0)))


def test_infeasible_detected():
    # x0 == 1 breaks x0 <= 1/2, though x1 == 1 would not.
    with pytest.raises(AlgorithmBugError, match="infeasible"):
        solve_lp([0, 0], [[1, 1]], [1], [[1, 0]], [F(1, 2)], [0])
    # x0 - x1 == -1 puts x0 at -1.
    with pytest.raises(AlgorithmBugError, match="infeasible"):
        solve_lp([0, 0], [[1, -1]], [-1], [], [], [0])


def test_start_that_is_not_a_basis_raises():
    with pytest.raises(AlgorithmBugError, match="not basic"):
        solve_lp([1, 1], [[0, 1]], [1], [], [], [0])
    with pytest.raises(AlgorithmBugError, match="not basic"):
        solve_lp([1, 1], [[1, 1], [2, 2]], [1, 2], [], [], [0, 1])


def test_unbounded_detected():
    with pytest.raises(AlgorithmBugError, match="unbounded"):
        solve_lp([-1, 0], [], [], [[0, 1]], [1], [])
    with pytest.raises(AlgorithmBugError, match="unbounded"):
        solve_lp([-1, 0], [[-1, 1]], [1], [], [], [1])


def test_degenerate_constraints_no_cycling():
    # Beale's example, on which the largest-coefficient rule cycles through
    # degenerate bases from the origin; Bland's rule reaches the optimum.
    args = ([F(-3, 4), 20, F(-1, 2), 6], [], [],
            [[F(1, 4), -8, -1, 9], [F(1, 2), -12, F(-1, 2), 3], [0, 0, 1, 0]], [0, 0, 1], [])
    result = solve_lp(*args)
    assert fraction_solve_from(*args)[0] == result
    assert result == LpResult(F(-5, 4), (F(1), F(0), F(1), F(0)))


def test_ratio_tie_leaves_by_lowest_basic_index():
    # min -x0 - x1 s.t. 2 x0 + x1 <= 2 and 2 x0 + x2 + x3 == 2, from x3 = 2.
    # x0 enters with both rows at ratio 1. The equality row comes second but
    # its basic x3, column 3, is below the slack's column 4, so it leaves.
    # Leaving by the slack ends at (0, 2, 0, 2), as optimal.
    args = ([-1, -1, 0, 0], [[2, 0, 1, 1]], [2], [[2, 1, 0, 0]], [2], [3])
    result = solve_lp(*args)
    assert fraction_solve_from(*args) == (result, 1)
    assert result == LpResult(F(-2), (F(0), F(2), F(2), F(0)))


def tableau_rows(a_eq, b_eq, a_ub, b_ub):
    """[structural | slack | rhs] rows as Fractions, inequality rows first."""
    slack_count = len(a_ub)
    rows = [[F(v) for v in row] + [F(int(s == r)) for s in range(slack_count)] + [F(b)]
            for r, (row, b) in enumerate(zip(a_ub, b_ub))]
    rows += [[F(v) for v in row] + [F(0)] * slack_count + [F(b)] for row, b in zip(a_eq, b_eq)]
    return rows


def fraction_pivot(tableau, basis, row, col):
    """Divide ``row`` by its entry in ``col`` and clear ``col`` from every
    other row of ``tableau``, in place, touching only the pivot row's nonzero
    entries."""
    factor = tableau[row][col]
    tableau[row][:] = [v / factor for v in tableau[row]]
    support = [(k, b) for k, b in enumerate(tableau[row]) if b]
    for r, line in enumerate(tableau):
        coeff = line[col]
        if r != row and coeff:
            for k, b in support:
                line[k] -= coeff * b
    basis[row] = col


def bland_phase(tableau, basis, objective):
    """Bland's rule on a Fraction tableau in place: the lowest column with a
    negative reduced cost enters, and ratio ties leave by the lowest basic
    index. Returns the status and the number of ratio ties met."""
    m_rows, width = len(tableau), len(objective)
    ties = 0
    # Reduced costs: the objective restated over the current basis.
    z = objective + [F(0)]
    for r in range(m_rows):
        coeff = z[basis[r]]
        if coeff:
            z = [v - coeff * b for v, b in zip(z, tableau[r])]
    tableau.append(z)  # pivoted with the rows, read off as the last row
    while True:
        z = tableau[-1]
        entering = next((col for col in range(width) if z[col] < 0), -1)
        if entering < 0:
            tableau.pop()
            return OPTIMAL, ties
        leaving, best = -1, None
        for r in range(m_rows):
            coeff = tableau[r][entering]
            if coeff > 0:
                ratio = tableau[r][-1] / coeff
                if best is not None and ratio == best:
                    ties += 1
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    best, leaving = ratio, r
        if leaving < 0:
            tableau.pop()
            return UNBOUNDED, ties
        fraction_pivot(tableau, basis, leaving, entering)


def solution_of(tableau, basis, cost):
    solution = [F(0)] * len(cost)
    for r, col in enumerate(basis):
        if col < len(cost):
            solution[col] = tableau[r][-1]
    return LpResult(sum((F(c) * v for c, v in zip(cost, solution)), F(0)), tuple(solution))


def fraction_solve_lp(cost, a_eq, b_eq, a_ub, b_ub):
    """A two-phase simplex from scratch over a ``Fraction`` tableau, kept as
    the objective oracle: it needs no start. Returns the status and, at an
    optimum, the result."""
    n = len(cost)
    rows = tableau_rows(a_eq, b_eq, a_ub, b_ub)
    rows = [[-v for v in row] if row[-1] < 0 else row for row in rows]
    m_rows, total_vars = len(rows), n + len(a_ub)
    # Columns are [structural + slack | artificial | rhs].
    tableau = [row[:-1] + [F(int(a == r)) for a in range(m_rows)] + row[-1:]
               for r, row in enumerate(rows)]
    basis = [total_vars + r for r in range(m_rows)]
    bland_phase(tableau, basis, [F(0)] * total_vars + [F(1)] * m_rows)
    if any(tableau[r][-1] for r in range(m_rows) if basis[r] >= total_vars):
        return INFEASIBLE, None
    # Pivot lingering zero-valued artificials out where possible, then drop
    # the artificial columns, so that none re-enters.
    for r in range(m_rows):
        if basis[r] >= total_vars:
            col = next((c for c in range(total_vars) if tableau[r][c] != 0), None)
            if col is not None:
                fraction_pivot(tableau, basis, r, col)
    keep = [r for r in range(m_rows) if basis[r] < total_vars]
    tableau = [tableau[r][:total_vars] + tableau[r][-1:] for r in keep]
    basis = [basis[r] for r in keep]
    status, _ = bland_phase(tableau, basis, [F(v) for v in cost] + [F(0)] * (total_vars - n))
    if status == UNBOUNDED:
        return UNBOUNDED, None
    return OPTIMAL, solution_of(tableau, basis, cost)


def fraction_solve_from(cost, a_eq, b_eq, a_ub, b_ub, start):
    """``solve_lp`` over a ``Fraction`` tableau, kept as the oracle for the
    integer-preserving pivots: the same start, the same pivot path and the
    same answer. Returns the result, or None when unbounded, and the number
    of ratio ties met."""
    n = len(cost)
    tableau = tableau_rows(a_eq, b_eq, a_ub, b_ub)
    basis = [n + r for r in range(len(a_ub))] + list(start)
    for r in range(len(a_ub), len(tableau)):
        fraction_pivot(tableau, basis, r, basis[r])
    assert all(row[-1] >= 0 for row in tableau)
    objective = [F(v) for v in cost] + [F(0)] * len(a_ub)
    status, ties = bland_phase(tableau, basis, objective)
    return (solution_of(tableau, basis, cost) if status == OPTIMAL else None), ties


def pivots_cleanly(a_eq, start):
    """Whether pivoting each equality row onto its start column in turn meets
    no zero: the start names a basis, row by row."""
    rows = [[F(v) for v in row] for row in a_eq]
    for r, col in enumerate(start):
        if rows[r][col] == 0:
            return False
        for s in range(r + 1, len(rows)):
            coeff = rows[s][col] / rows[r][col]
            rows[s] = [v - coeff * b for v, b in zip(rows[s], rows[r])]
    return True


def vertex_lp(rng):
    """A small LP with rational data built around a known vertex: ``start``
    columns at values that are often 0, and inequality slacks that are often
    0, so degenerate pivots and ratio ties are common. Zero costs leave many
    optimal vertices, so the one returned depends on the whole pivot path."""
    n = rng.randint(1, 7)
    me, mu = rng.randint(0, min(3, n)), rng.randint(0, 5)

    def value(low, high):
        if rng.random() < 0.3:
            return F(0)
        return F(rng.randint(low, high), rng.choice((1, 1, 2, 3, 5)))

    start = rng.sample(range(n), me)
    x = [F(0)] * n
    for col in start:
        x[col] = F(0) if rng.random() < 0.5 else F(rng.randint(1, 4), rng.choice((1, 2, 3)))
    a_eq = [[value(-4, 4) for _ in range(n)] for _ in range(me)]
    while not pivots_cleanly(a_eq, start):
        a_eq = [[value(-4, 4) for _ in range(n)] for _ in range(me)]
    b_eq = [sum((a * v for a, v in zip(row, x)), F(0)) for row in a_eq]
    a_ub = [[value(-4, 4) for _ in range(n)] for _ in range(mu)]
    b_ub = [sum((a * v for a, v in zip(row, x)), F(0))
            + (F(0) if rng.random() < 0.6 else F(rng.randint(1, 3), rng.choice((1, 2))))
            for row in a_ub]
    cost = [value(-5, 5) if rng.random() < 0.6 else F(0) for _ in range(n)]
    return cost, a_eq, b_eq, a_ub, b_ub, start


def fpo_programs(rng, count, monkeypatch):
    """The programs ``check_fpo`` builds, with their starts: random
    allocations with copies, rational entries and zero entries (mostly not
    fPO), then pipeline outputs (all fPO)."""
    programs = []

    def record(*args):
        programs.append(args)
        return solve_lp(*args)

    monkeypatch.setattr(verifiers, "solve_lp", record)
    while len(programs) < count:
        n = rng.randint(2, 4)
        m = rng.randint(n, 8)
        inst = Instance.from_rows(
            [[F(0) if rng.random() < 0.1 else F(rng.randint(1, 20), rng.choice((1, 2, 3, 7)))
              for _ in range(m)] for _ in range(n)])
        bundles = [set() for _ in range(n)]
        for c in range(m):
            bundles[rng.randrange(n)].add(ChoreCopy(c, 0))
        for copy in range(1, rng.randint(1, n)):
            bundles[rng.randrange(n)].add(ChoreCopy(rng.randrange(m), copy))
        verifiers.check_fpo(inst, SurplusAllocation(tuple(frozenset(b) for b in bundles), m))
    for _ in range(12):
        n = rng.randint(2, 5)
        m = rng.randint(n, 10)
        fair_and_efficient(Instance.from_rows(
            [[rng.randint(1, 20) for _ in range(m)] for _ in range(n)]))
    return programs


def check_programs(programs):
    """Each program solved from its start in integers equals the ``Fraction``
    tableau from the same start, solution and all; each optimum equals the
    two-phase oracle's and scipy's. Returns counts of what the programs hit."""
    seen = {"optimal": 0, "unbounded": 0, "tied": 0}
    for cost, a_eq, b_eq, a_ub, b_ub, start in programs:
        expected, ties = fraction_solve_from(cost, a_eq, b_eq, a_ub, b_ub, start)
        status, two_phase = fraction_solve_lp(cost, a_eq, b_eq, a_ub, b_ub)
        ref = linprog([float(c) for c in cost],
                      A_eq=[[float(v) for v in row] for row in a_eq] or None,
                      b_eq=[float(v) for v in b_eq] or None,
                      A_ub=[[float(v) for v in row] for row in a_ub] or None,
                      b_ub=[float(v) for v in b_ub] or None,
                      bounds=(0, None), method="highs")
        if expected is None:
            with pytest.raises(AlgorithmBugError, match="unbounded"):
                solve_lp(cost, a_eq, b_eq, a_ub, b_ub, start)
            assert status == UNBOUNDED and ref.status == 3
            seen["unbounded"] += 1
            continue
        mine = solve_lp(cost, a_eq, b_eq, a_ub, b_ub, start)
        assert mine == expected
        assert status == OPTIMAL and two_phase.objective == mine.objective
        assert ref.status == 0
        assert abs(float(mine.objective) - ref.fun) <= 1e-7 * max(1, abs(ref.fun))
        seen["optimal"] += 1
        seen["tied"] += ties > 0
    return seen


def test_matches_reference_solver_on_random_problems():
    rng = random.Random(5)
    optima = unbounded = 0
    for _ in range(80):
        cost, a_eq, b_eq, a_ub, b_ub, start = vertex_lp(rng)
        ref = linprog([float(c) for c in cost],
                      A_eq=[[float(v) for v in row] for row in a_eq] or None,
                      b_eq=[float(v) for v in b_eq] or None,
                      A_ub=[[float(v) for v in row] for row in a_ub] or None,
                      b_ub=[float(v) for v in b_ub] or None,
                      bounds=(0, None), method="highs")
        try:
            mine = solve_lp(cost, a_eq, b_eq, a_ub, b_ub, start)
        except AlgorithmBugError as err:
            assert "unbounded" in str(err)
            assert ref.status == 3
            unbounded += 1
            continue
        assert ref.status == 0
        assert abs(float(mine.objective) - ref.fun) <= 1e-7 * max(1, abs(ref.fun))
        for row, b in zip(a_eq, b_eq):
            assert sum((a * s for a, s in zip(row, mine.solution)), F(0)) == b
        for row, b in zip(a_ub, b_ub):
            assert sum((a * s for a, s in zip(row, mine.solution)), F(0)) <= b
        assert all(s >= 0 for s in mine.solution)
        assert mine.objective == sum((c * s for c, s in zip(cost, mine.solution)), F(0))
        optima += 1
    # the fuzz actually exercised both the optimal and the unbounded path
    assert optima >= 10 and unbounded >= 5, (optima, unbounded)


def test_integer_pivots_match_the_fraction_tableau_on_random_lps():
    programs = [vertex_lp(random.Random(f"vertex:{k}")) for k in range(500)]
    seen = check_programs(programs)
    assert min(seen.values()) >= 40, seen
    negative = sum(bool(a_eq) and a_eq[0][start[0]] < 0 for _, a_eq, _, _, _, start in programs)
    assert negative >= 50, negative


def test_integer_pivots_match_the_fraction_tableau_on_fpo_programs(monkeypatch):
    seen = check_programs(fpo_programs(random.Random(43), 200, monkeypatch))
    assert seen["unbounded"] == 0
    assert seen["optimal"] >= 200 and seen["tied"] >= 30, seen


def block_fpo_lp(rng):
    """An fPO-shaped program over ``k >= 12`` items: one clearing row per item,
    one cap row per agent over its own block of variables, rational costs
    (about 10% zeros) and the start at a random allocation. Each agent's
    costs are weighted in the objective, so the optimum need not be the
    least total. A pivot has a zero in every clearing row but its item's and
    in every cap row but its agent's."""
    n, k = rng.randint(2, 4), rng.randint(12, 16)
    costs = [[F(0) if rng.random() < 0.1 else F(rng.randint(1, 20), rng.choice((1, 2, 3, 7)))
              for _ in range(k)] for _ in range(n)]
    owner = [rng.randrange(n) for _ in range(k)]
    a_eq = [[F(int(v % k == t)) for v in range(n * k)] for t in range(k)]
    a_ub = [[costs[i][v % k] if v // k == i else F(0) for v in range(n * k)] for i in range(n)]
    b_ub = [sum((costs[i][t] for t in range(k) if owner[t] == i), F(0)) for i in range(n)]
    weights = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
    cost = [weights[v // k] * costs[v // k][v % k] for v in range(n * k)]
    return cost, a_eq, [1] * k, a_ub, b_ub, [owner[t] * k + t for t in range(k)]


def block_vertex_lp(rng, blocks):
    """``vertex_lp`` draws side by side over disjoint variables: a pivot in one
    block has a zero in every row of the others."""
    programs = [vertex_lp(rng) for _ in range(blocks)]
    width = sum(len(cost) for cost, *_ in programs)
    joined = [], [], [], [], [], []
    offset = 0
    for cost, a_eq, b_eq, a_ub, b_ub, start in programs:
        def pad(row):
            return [F(0)] * offset + row + [F(0)] * (width - offset - len(cost))
        for whole, part in zip(joined, (cost, [pad(row) for row in a_eq], b_eq,
                                        [pad(row) for row in a_ub], b_ub,
                                        [offset + col for col in start])):
            whole.extend(part)
        offset += len(cost)
    return joined


def test_integer_pivots_match_the_fraction_tableau_when_most_rows_sit_out(monkeypatch):
    # Rows with a zero in the pivot column keep their stored values and
    # their own denominators, and are lifted only when read; the answers,
    # and the raised errors, must still be the Fraction tableau's.
    sat_out = rewritten = 0
    pivot = fraction_pivot

    def counted(tableau, basis, row, col):
        nonlocal sat_out, rewritten
        zeros = sum(not line[col] for line in tableau)
        sat_out += zeros
        rewritten += len(tableau) - 1 - zeros
        pivot(tableau, basis, row, col)

    programs = [block_fpo_lp(random.Random(f"block-fpo:{k}")) for k in range(30)]
    programs += [block_vertex_lp(random.Random(f"block-vertex:{k}"), 3) for k in range(120)]
    monkeypatch.setitem(globals(), "fraction_pivot", counted)
    seen = check_programs(programs)
    assert seen["optimal"] >= 70 and seen["unbounded"] >= 50 and seen["tied"] >= 15, seen
    # The oracles' pivots meet more than three rows with a zero in the
    # pivot column for each row they rewrite.
    assert sat_out > 3 * rewritten, (sat_out, rewritten)


def test_scaling_the_cost_scales_only_the_objective():
    # check_fpo's integer cost is the total disutility times L = lcm(K_i):
    # a positive integer factor on the cost must leave the pivot path, and
    # so the solution, as they are.
    rng = random.Random(11)
    programs = [vertex_lp(random.Random(f"scale:{k}")) for k in range(150)]
    programs += [block_fpo_lp(random.Random(f"scale-fpo:{k}")) for k in range(20)]
    optima = unbounded = 0
    for cost, *constraints in programs:
        factor = rng.choice((2, 3, 7, 10**6, 2**61 - 1))
        try:
            result = solve_lp(cost, *constraints)
        except AlgorithmBugError:
            with pytest.raises(AlgorithmBugError, match="unbounded"):
                solve_lp([factor * c for c in cost], *constraints)
            unbounded += 1
            continue
        assert solve_lp([factor * c for c in cost], *constraints) == LpResult(
            factor * result.objective, result.solution)
        optima += 1
    assert optima >= 100 and unbounded >= 10, (optima, unbounded)
