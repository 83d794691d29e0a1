import random
from fractions import Fraction
from typing import Optional

from scipy.optimize import linprog

from fairchores import verifiers
from fairchores.core import Instance, SurplusAllocation, originals
from fairchores.errors import InputError
from fairchores.rounding import fair_and_efficient
from fairchores.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult, solve_lp

F = Fraction


def test_box_corner():
    result = solve_lp([-1, -1], a_ub=[[1, 0], [0, 1]], b_ub=[1, 1])
    assert result.status == OPTIMAL
    assert result.objective == -2
    assert result.solution == (F(1), F(1))


def test_equality_pins_variable():
    result = solve_lp([1], a_eq=[[1]], b_eq=[5])
    assert result.status == OPTIMAL and result.objective == 5


def test_infeasible_detected():
    assert solve_lp([-1], a_eq=[[0]], b_eq=[1]).status == INFEASIBLE


def test_unbounded_detected():
    assert solve_lp([-1, 0], a_ub=[[0, 1]], b_ub=[1]).status == UNBOUNDED


def test_exact_rational_optimum():
    # min x0 + x1 with 3 x0 + x1 >= 1 and x0 + 3 x1 >= 1 (negated to <=)
    result = solve_lp([1, 1], a_ub=[[-3, -1], [-1, -3]], b_ub=[-1, -1])
    assert result.status == OPTIMAL
    assert result.objective == F(1, 2)
    assert result.solution == (F(1, 4), F(1, 4))


def test_degenerate_constraints_no_cycling():
    # Redundant equalities plus ties in every ratio test.
    result = solve_lp([0, 0, 1],
                      a_eq=[[1, 1, 0], [2, 2, 0]],
                      b_eq=[1, 2],
                      a_ub=[[1, 0, -1]],
                      b_ub=[0])
    assert result.status == OPTIMAL
    assert result.objective == 0


def test_matches_reference_solver_on_random_problems():
    rng = random.Random(5)
    optima = 0
    for _ in range(80):
        n = rng.randint(1, 5)
        me, mu = rng.randint(1, 3), rng.randint(0, 3)
        c = [rng.randint(-5, 5) for _ in range(n)]
        a_eq = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(me)]
        b_eq = [rng.randint(0, 6) for _ in range(me)]
        a_ub = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(mu)]
        b_ub = [rng.randint(0, 6) for _ in range(mu)]
        mine = solve_lp(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)
        ref = linprog(c, A_eq=a_eq, b_eq=b_eq, A_ub=a_ub or None, b_ub=b_ub or None,
                      bounds=(0, None), method="highs")
        if mine.status == OPTIMAL:
            assert ref.status == 0
            assert abs(float(mine.objective) - ref.fun) < 1e-7
            for row, b in zip(a_eq, b_eq):
                assert sum(F(a) * s for a, s in zip(row, mine.solution)) == b
            for row, b in zip(a_ub, b_ub):
                assert sum(F(a) * s for a, s in zip(row, mine.solution)) <= b
            assert all(s >= 0 for s in mine.solution)
            optima += 1
        elif mine.status == INFEASIBLE:
            assert ref.status == 2
        else:
            assert ref.status == 3
    assert optima >= 10  # the fuzz actually exercised the optimal path


def fraction_solve_lp(cost, a_eq=None, b_eq=None, a_ub=None, b_ub=None) -> LpResult:
    """``solve_lp`` as it was over a ``Fraction`` tableau, kept as the oracle
    for the integer-preserving pivots: same pivot path, same answer."""
    cost = [Fraction(v) for v in cost]
    n = len(cost)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    slack_count = 0
    if a_ub:
        slack_count = len(a_ub)
    for idx, row in enumerate(a_ub or []):
        if len(row) != n:
            raise InputError("inequality row width mismatch")
        slack = [Fraction(0)] * slack_count
        slack[idx] = Fraction(1)
        rows.append([Fraction(v) for v in row] + slack)
        rhs.append(Fraction(b_ub[idx]))
    for idx, row in enumerate(a_eq or []):
        if len(row) != n:
            raise InputError("equality row width mismatch")
        rows.append([Fraction(v) for v in row] + [Fraction(0)] * slack_count)
        rhs.append(Fraction(b_eq[idx]))

    total_vars = n + slack_count
    m_rows = len(rows)
    for r in range(m_rows):
        if rhs[r] < 0:
            rows[r] = [-v for v in rows[r]]
            rhs[r] = -rhs[r]

    # Tableau layout: columns are [structural + slack | artificial | rhs].
    tableau = [rows[r] + [Fraction(0)] * m_rows + [rhs[r]] for r in range(m_rows)]
    for r in range(m_rows):
        tableau[r][total_vars + r] = Fraction(1)
    basis = [total_vars + r for r in range(m_rows)]
    width = total_vars + m_rows + 1

    def pivot(row: int, col: int) -> None:
        factor = tableau[row][col]
        tableau[row] = [v / factor for v in tableau[row]]
        for r in range(m_rows):
            if r != row and tableau[r][col] != 0:
                coeff = tableau[r][col]
                base = tableau[row]
                tableau[r] = [v - coeff * base[k] for k, v in enumerate(tableau[r])]
        basis[row] = col

    def run_phase(objective: list[Fraction]) -> str:
        # Reduced costs maintained in a dedicated row: z = objective restated
        # over the current basis.
        z = objective[:]
        obj_value = Fraction(0)
        for r in range(m_rows):
            col = basis[r]
            if z[col] != 0:
                coeff = z[col]
                row = tableau[r]
                for k in range(width - 1):
                    z[k] -= coeff * row[k]
                obj_value -= coeff * row[width - 1]
        while True:
            entering = -1
            for col in range(width - 1):
                if z[col] < 0:
                    entering = col
                    break
            if entering < 0:
                return OPTIMAL
            leaving = -1
            best: Optional[Fraction] = None
            for r in range(m_rows):
                coeff = tableau[r][entering]
                if coeff > 0:
                    ratio = tableau[r][width - 1] / coeff
                    if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                        best, leaving = ratio, r
            if leaving < 0:
                return UNBOUNDED
            pivot(leaving, entering)
            coeff = z[entering]
            row = tableau[leaving]
            for k in range(width - 1):
                z[k] -= coeff * row[k]

    # Phase 1: drive the artificial variables to zero.
    phase1_cost = [Fraction(0)] * total_vars + [Fraction(1)] * m_rows + [Fraction(0)]
    run_phase(phase1_cost)
    infeasibility = sum((tableau[r][width - 1] for r in range(m_rows) if basis[r] >= total_vars),
                        Fraction(0))
    if infeasibility != 0:
        return LpResult(INFEASIBLE, None, None)
    # Pivot lingering zero-valued artificials out of the basis where possible.
    for r in range(m_rows):
        if basis[r] >= total_vars:
            for col in range(total_vars):
                if tableau[r][col] != 0:
                    pivot(r, col)
                    break

    phase2_cost = cost + [Fraction(0)] * slack_count + [Fraction(0)] * m_rows + [Fraction(0)]
    # Forbid re-entering artificial columns.
    for r in range(m_rows):
        for col in range(total_vars, total_vars + m_rows):
            tableau[r][col] = Fraction(0)
    status = run_phase(phase2_cost)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)

    solution = [Fraction(0)] * n
    for r in range(m_rows):
        if basis[r] < n:
            solution[basis[r]] = tableau[r][width - 1]
    objective = sum((cost[j] * solution[j] for j in range(n)), Fraction(0))
    return LpResult(OPTIMAL, objective, tuple(solution))


def random_lp(rng):
    """A small LP with rational data: negative right-hand sides, redundant
    equalities (rational multiples of another row) and many zero entries and
    zero right-hand sides, so ratio ties and degenerate pivots are common."""
    n = rng.randint(1, 6)
    me, mu = rng.randint(0, 3), rng.randint(0, 3)
    if me + mu == 0:
        mu = 1

    def value(low, high):
        if rng.random() < 0.3:
            return F(0)
        return F(rng.randint(low, high), rng.choice((1, 1, 2, 3, 5)))

    # A zero cost (a pure feasibility program) or a sparse one leaves many
    # optimal vertices, so the returned one depends on the whole pivot path.
    c = [value(-5, 5) if rng.random() < 0.5 else F(0) for _ in range(n)]
    a_eq = [[value(-4, 4) for _ in range(n)] for _ in range(me)]
    b_eq = [value(-6, 6) for _ in range(me)]
    if a_eq and rng.random() < 0.4:
        src = rng.randrange(len(a_eq))
        k = F(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 7)))
        a_eq.append([k * v for v in a_eq[src]])
        b_eq.append(k * b_eq[src])
    a_ub = [[value(-4, 4) for _ in range(n)] for _ in range(mu)]
    b_ub = [value(-3, 6) for _ in range(mu)]
    return c, a_eq, b_eq, a_ub, b_ub


def test_integer_pivots_match_the_fraction_tableau_on_random_lps():
    rng = random.Random(41)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(700):
        c, a_eq, b_eq, a_ub, b_ub = random_lp(rng)
        mine = solve_lp(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)
        assert mine == fraction_solve_lp(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)
        statuses[mine.status] += 1
    assert min(statuses.values()) >= 20, statuses


def test_ratio_tie_leaves_by_lowest_basic_index():
    # min x0 s.t. 2 x0 - x1 + x2 <= 4 and x0 + 2 x1 + x2 == 2. Phase 1 enters
    # x0 with both rows at ratio 2; the inequality row's artificial has the
    # lower index and leaves. The other choice ends at (0, 1, 0), as optimal.
    args = ([1, 0, 0], [[1, 2, 1]], [2], [[2, -1, 1]], [4])
    result = solve_lp(*args)
    assert result == fraction_solve_lp(*args)
    assert result.solution == (0, 0, 2)

def test_integer_pivots_match_the_fraction_tableau_on_fpo_programs(monkeypatch):
    """The programs check_fpo builds, on criterion-1 shapes: pipeline outputs
    (fPO) and random partitions with rational disutilities (mostly not)."""
    programs = []

    def both(cost, a_eq=None, b_eq=None, a_ub=None, b_ub=None):
        mine = solve_lp(cost, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)
        assert mine == fraction_solve_lp(cost, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)
        programs.append(mine)
        return mine

    monkeypatch.setattr(verifiers, "solve_lp", both)
    rng = random.Random(43)
    for _ in range(12):
        n = rng.randint(2, 5)
        m = rng.randint(n, 10)
        fair_and_efficient(Instance.from_rows(
            [[rng.randint(1, 20) for _ in range(m)] for _ in range(n)]))
    dominated = 0
    while dominated < 12:
        n = rng.randint(2, 4)
        m = rng.randint(n, 7)
        inst = Instance.from_rows(
            [[F(rng.randint(1, 20), rng.choice((1, 2, 3, 7))) for _ in range(m)]
             for _ in range(n)])
        bundles = [set() for _ in range(n)]
        for c in range(m):
            bundles[rng.randrange(n)].add(c)
        alloc = SurplusAllocation(tuple(frozenset(originals(b)) for b in bundles), m)
        dominated += not verifiers.check_fpo(inst, alloc).holds
    assert len(programs) >= 24
