import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from fairchores import three_agent
from fairchores.core import Instance, row_scales
from fairchores.errors import InputError
from fairchores.three_agent import (
    _tie_broken_rows,
    efx_identical,
    perturb_nondegenerate,
    solve_three,
    tefx_feasible,
    terminal_assignment,
)
from fairchores.verifiers import (
    check_efx,
    check_nondegenerate,
    check_proportional,
    check_tefx,
)

F = Fraction

# Found by seeded search over random 3-agent instances; the loop exits through
# the proportional branch on this one.
PROPORTIONAL_FIXTURE = [
    [12, 16, 3, 1, 3, 0, 19],
    [11, 2, 3, 8, 7, 10, 8],
    [10, 0, 18, 6, 0, 9, 10],
]


class TestPerturbation:
    def test_formula_on_two_chores(self):
        pert, eps = perturb_nondegenerate(Instance.from_rows([[1, 2]]))
        assert eps == F(1, 16)
        assert pert.disutility[0] == (F(9, 8), F(9, 4))

    def test_zero_instance_becomes_positive(self):
        pert, eps = perturb_nondegenerate(Instance.from_rows([[0, 0]]))
        assert pert.disutility[0] == (2 * eps, 4 * eps)
        assert check_nondegenerate(pert).holds

    def test_degenerate_instance_fixed(self):
        pert, _ = perturb_nondegenerate(Instance.from_rows([[1, 1], [1, 1]]))
        assert check_nondegenerate(pert).holds

    def test_rational_entries_use_common_denominator(self):
        inst = Instance.from_rows([["1/3", "1/6"]])
        pert, eps = perturb_nondegenerate(inst)
        assert eps == F(1, 2 * 6 * 2 ** 3)
        assert pert.disutility[0][0] == F(1, 3) + 2 * eps

    def test_order_preservation(self):
        rng = random.Random(64)
        for _ in range(60):
            m = rng.randint(2, 10)
            inst = Instance.from_rows(
                [[rng.randint(0, 20) for _ in range(m)] for _ in range(3)])
            pert, _ = perturb_nondegenerate(inst)
            for _ in range(20):
                s = {c for c in range(m) if rng.random() < 0.5}
                t = {c for c in range(m) if rng.random() < 0.5}
                agent = rng.randrange(3)
                before_s = sum(inst.d(agent, c) for c in s)
                before_t = sum(inst.d(agent, c) for c in t)
                if before_s > before_t:
                    after_s = sum(pert.d(agent, c) for c in s)
                    after_t = sum(pert.d(agent, c) for c in t)
                    assert after_s > after_t


def mixed_instance(rng, m):
    """Three rows with zeros and different denominators, some rows identical."""
    rows = [[F(rng.choice([0, 0, rng.randint(1, 12)]), rng.randint(1, 9)) for _ in range(m)]
            for _ in range(3)]
    shape = rng.randrange(3)
    if shape == 1:
        rows[2] = rows[0]
    elif shape == 2:
        rows = [[F(rng.randint(0, 3)) for _ in range(m)]] * 3
    return Instance.from_rows(rows)


def random_partition(rng, m):
    bundles = [set(), set(), set()]
    for c in range(m):
        bundles[rng.randrange(3)].add(c)
    return tuple(frozenset(b) for b in bundles)


def sign(x):
    return (x > 0) - (x < 0)


def tie_broken(inst):
    return _tie_broken_rows(row_scales(inst))


def perturbed_rows(scaled):
    """``_tie_broken_rows``'s stand-in: the explicit perturbation of the
    instance whose rows ``row_scales`` gave as ``scaled``."""
    rows = [[F(value, K) for value in ints] for ints, K in scaled]
    return perturb_nondegenerate(Instance.from_rows(rows))[0].disutility


class TestScaledRows:
    """The integer rows ``solve_three`` uses order sets as the perturbation does."""

    def test_formula_per_row(self):
        scaled = tie_broken(Instance.from_rows([["1/3", "1/6"], [1, 2], [0, 0]]))
        assert scaled == [[2 * 8 + 2, 1 * 8 + 4], [8 + 2, 16 + 4], [2, 4]]
        assert tie_broken(Instance.from_rows([[], [], []])) == [[], [], []]

    def test_sign_agrees_with_perturbation(self):
        rng = random.Random(15)
        for _ in range(80):
            m = rng.randint(0, 12)
            inst = mixed_instance(rng, m)
            pert, _ = perturb_nondegenerate(inst)
            scaled = tie_broken(inst)
            for _ in range(25):
                s = [c for c in range(m) if rng.random() < 0.5]
                t = [c for c in range(m) if rng.random() < 0.5]
                agent = rng.randrange(3)
                exact = sum(pert.d(agent, c) for c in s) - sum(pert.d(agent, c) for c in t)
                fast = sum(scaled[agent][c] for c in s) - sum(scaled[agent][c] for c in t)
                assert sign(fast) == sign(exact)

    def test_helpers_agree_with_perturbation(self):
        rng = random.Random(16)
        for _ in range(150):
            m = rng.randint(0, 9)
            inst = mixed_instance(rng, m)
            pert = perturb_nondegenerate(inst)[0].disutility
            scaled = tie_broken(inst)
            partition = random_partition(rng, m)
            for agent in range(3):
                for k in range(3):
                    assert (tefx_feasible(scaled, agent, k, partition)
                            == tefx_feasible(pert, agent, k, partition))
            assert terminal_assignment(scaled, partition) == terminal_assignment(pert, partition)

    def test_solve_agrees_with_perturbation(self, monkeypatch):
        rng = random.Random(17)
        instances = [mixed_instance(rng, rng.randint(0, 30)) for _ in range(120)]
        fast = [solve_three(inst) for inst in instances]
        branches = {event["branch"] for result in fast for event in result.trace}
        assert branches == {"terminal", "move", "transfer", "proportional"}
        monkeypatch.setattr(three_agent, "_tie_broken_rows", perturbed_rows)
        assert [solve_three(inst) for inst in instances] == fast

    def test_stand_in_rows_are_the_perturbation(self):
        rng = random.Random(18)
        for _ in range(30):
            inst = mixed_instance(rng, rng.randint(0, 9))
            assert perturbed_rows(row_scales(inst)) == perturb_nondegenerate(inst)[0].disutility


class TestGreedyIdentical:
    def test_empty(self):
        assert efx_identical([], 3) == (frozenset(), frozenset(), frozenset())

    def test_hand_traced_split(self):
        assert efx_identical([5, 3, 2, 2], 2) == (frozenset({0, 3}), frozenset({1, 2}))

    def test_unit_chores_spread(self):
        assert efx_identical([1, 1, 1], 3) == (
            frozenset({0}), frozenset({1}), frozenset({2}))

    @staticmethod
    def scan_split(costs, n):
        """``efx_identical`` as a scan of the running totals for each chore,
        kept as the oracle for its bundles and their set order."""
        costs = [v if type(v) is int else Fraction(v) for v in costs]
        bundles = [set() for _ in range(n)]
        totals = [0] * n
        for c in sorted(range(len(costs)), key=costs.__getitem__, reverse=True):
            target = totals.index(min(totals))
            bundles[target].add(c)
            totals[target] += costs[c]
        return tuple(frozenset(b) for b in bundles)

    def test_split_and_set_order_match_the_scan(self):
        rng = random.Random(39)
        for m in range(41):
            for n in range(1, 6):
                draws = [
                    [rng.randint(0, 4) for _ in range(m)],  # ints with many ties
                    [F(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(m)],
                    _tie_broken_rows([([rng.randint(0, 20) for _ in range(m)], 1)])[0],
                ]
                for costs in draws:
                    split = efx_identical(costs, n)
                    expected = self.scan_split(costs, n)
                    assert split == expected
                    assert [list(b) for b in split] == [list(b) for b in expected]

    def test_output_is_efx_for_identical_costs(self):
        from fairchores.core import ChoreCopy, SurplusAllocation

        rng = random.Random(12)
        for _ in range(80):
            n = rng.randint(2, 5)
            m = rng.randint(0, 12)
            costs = [rng.randint(0, 20) for _ in range(m)]
            bundles = efx_identical(costs, n)
            inst = Instance.from_rows([costs] * n) if m else Instance.from_rows([[]] * n)
            alloc = SurplusAllocation(
                tuple(frozenset(ChoreCopy(c, 0) for c in b) for b in bundles), m)
            assert check_efx(inst, alloc).holds


class TestFeasibility:
    def test_empty_bundle(self):
        rows = [[1, 1, 1]] * 3
        assert tefx_feasible(rows, 0, 1, (frozenset({0, 1, 2}), frozenset(), frozenset()))

    def test_singleton_always_feasible(self):
        rows = [[9, 1, 1]] * 3
        assert tefx_feasible(rows, 0, 0, (frozenset({0}), frozenset({1}), frozenset({2})))

    def test_lump_infeasible(self):
        rows = [[1, 1, 1]] * 3
        partition = (frozenset({0, 1, 2}), frozenset(), frozenset())
        assert not tefx_feasible(rows, 0, 0, partition)


def brute_terminal_exists(inst, partition):
    """Oracle: any bundle permutation where 0 and 2 get feasible bundles and 1
    gets a cheapest bundle."""
    costs = [sum((inst.d(1, c) for c in partition[k]), F(0)) for k in range(3)]
    cheapest = min(costs)
    for perm in itertools.permutations(range(3)):
        b0, b1, b2 = perm
        if (tefx_feasible(inst.disutility, 0, b0, partition)
                and costs[b1] == cheapest
                and tefx_feasible(inst.disutility, 2, b2, partition)):
            return True
    return False


class TestTerminalAssignment:
    def test_everyone_flexible(self):
        inst = Instance.from_rows([[1, 1, 1]] * 3)
        partition = (frozenset({0}), frozenset({1}), frozenset({2}))
        assignment = terminal_assignment(inst.disutility, partition)
        assert assignment == {0: 0, 1: 1, 2: 2}

    def test_matches_brute_force_existence(self):
        rng = random.Random(55)
        for _ in range(150):
            m = rng.randint(1, 7)
            inst = Instance.from_rows(
                [[rng.randint(1, 9) for _ in range(m)] for _ in range(3)])
            bundles = [set(), set(), set()]
            for c in range(m):
                bundles[rng.randrange(3)].add(c)
            partition = tuple(frozenset(b) for b in bundles)
            assignment = terminal_assignment(inst.disutility, partition)
            assert (assignment is not None) == brute_terminal_exists(inst, partition)
            if assignment is not None:
                assert sorted(assignment.values()) == [0, 1, 2]
                assert tefx_feasible(inst.disutility, 0, assignment[0], partition)
                assert tefx_feasible(inst.disutility, 2, assignment[2], partition)


class TestSolveThree:
    def test_wrong_agent_count(self):
        with pytest.raises(InputError):
            solve_three(Instance.from_rows([[1], [1]]))

    def test_identical_costs_terminal_immediately(self):
        result = solve_three(Instance.from_rows([[3, 2, 2, 1]] * 3))
        assert result.kind == "tEFX"
        assert result.iterations == 1
        assert result.trace[0]["branch"] == "terminal"
        assert result.trace[0]["iteration"] == 0
        assert check_tefx(Instance.from_rows([[3, 2, 2, 1]] * 3), result.alloc).holds

    def test_three_chores_are_singletons(self):
        rng = random.Random(2)
        for _ in range(20):
            inst = Instance.from_rows(
                [[rng.randint(0, 9) for _ in range(3)] for _ in range(3)])
            result = solve_three(inst)
            assert result.kind == "tEFX"

    def test_empty_instance(self):
        result = solve_three(Instance.from_rows([[], [], []]))
        assert result.kind == "tEFX"
        assert all(not b for b in result.alloc.bundles)

    def test_proportional_fixture(self):
        inst = Instance.from_rows(PROPORTIONAL_FIXTURE)
        result = solve_three(inst)
        assert result.kind == "Proportional"
        assert result.trace[-1]["branch"] == "proportional"
        assert check_proportional(inst, result.alloc).holds
        for i in range(3):
            own = sum(inst.d(i, u.chore) for u in result.alloc.bundles[i])
            assert own <= sum(inst.disutility[i]) / 3

    def test_fuzz_certificates_and_termination(self):
        rng = random.Random(606)
        seen = set()
        for _ in range(120):
            m = rng.randint(3, 10)
            inst = Instance.from_rows(
                [[rng.randint(0, 20) for _ in range(m)] for _ in range(3)])
            result = solve_three(inst)
            seen.add(result.kind)
            assert result.kind in {"tEFX", "Proportional"}
            assert result.certificate.holds
            assert result.iterations <= m + 1
            phis = [e["phi"] for e in result.trace]
            assert all(a > b for a, b in zip(phis, phis[1:]))
            cover = {u.chore for b in result.alloc.bundles for u in b}
            assert cover == set(range(m))
        assert "tEFX" in seen

    def test_carried_totals_are_fresh_sums_at_every_iteration(self, monkeypatch):
        # The loop carries T[agent][bundle] through swaps, moves and
        # transfers; every iteration's invariant check sees them next to the
        # bundles, where they must equal sums taken afresh.
        checked = []
        original = three_agent._check_invariants

        def fresh(rows, bundles, totals):
            assert totals == [[sum(row[c] for c in bundle) for bundle in bundles]
                              for row in rows]
            checked.append(bundles)
            return original(rows, bundles, totals)

        monkeypatch.setattr(three_agent, "_check_invariants", fresh)
        rng = random.Random(23)
        instances = [mixed_instance(rng, rng.randint(0, 30)) for _ in range(150)]
        results = [solve_three(inst) for inst in instances]
        assert len(checked) == sum(result.iterations for result in results)
        assert {event["branch"] for result in results for event in result.trace} == {
            "terminal", "move", "transfer", "proportional"}
        # The proportional exit reads agent 1's totals after the last transfer,
        # which no later check sees: its favourite is her cheapest bundle.
        exits = [(inst, result) for inst, result in zip(instances, results)
                 if result.kind == "Proportional"]
        assert exits
        for inst, result in exits:
            row = tie_broken(inst)[1]
            balanced = [None] * 3
            for agent, label in enumerate(result.assignment):
                balanced[label] = [unit.chore for unit in result.alloc.bundles[agent]]
            costs = [sum(row[c] for c in bundle) for bundle in balanced]
            assert result.trace[-1]["favorite"] == costs.index(min(costs))


def pinned_draws():
    """300 instances, m 0..40: integer rows, rows with many zeros, and rows of
    ``p/q`` entries, in turn."""
    rng = random.Random(30)
    draws = []
    for index in range(300):
        m = rng.randint(0, 40)
        kind = index % 3
        if kind == 0:
            rows = [[rng.randint(1, 20) for _ in range(m)] for _ in range(3)]
        elif kind == 1:
            rows = [[rng.choice([0, 0, rng.randint(0, 20)]) for _ in range(m)]
                    for _ in range(3)]
        else:
            rows = [[f"{rng.randint(0, 20)}/{rng.randint(1, 12)}" for _ in range(m)]
                    for _ in range(3)]
        draws.append(Instance.from_rows(rows))
    return draws


def test_outputs_match_the_pinned_digest():
    # sha256 of the results' reprs, one per line, as the solver that re-summed
    # every bundle on every query computed them. A repr prints each bundle's
    # units in set order, so this also pins how the bundles are built.
    results = [solve_three(inst) for inst in pinned_draws()]
    assert {event["branch"] for result in results for event in result.trace} == {
        "terminal", "move", "transfer", "proportional"}
    digest = hashlib.sha256("\n".join(map(repr, results)).encode()).hexdigest()
    assert digest == "03d063ab44f84007db51fbac281d72a6fde4aa8f797ec1b48cb4baf36971f23a"
