import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from fairchores import core, equilibrium
from fairchores.core import (
    ChoreCopy,
    FractionalAllocation,
    Instance,
    MarketOutcome,
    PriceVector,
    bundle_payment,
)
from fairchores.equilibrium import (
    approx_ceei,
    default_epsilon,
    exact_ceei,
    make_acyclic,
    verify_fisher_equilibrium,
)
from fairchores.errors import BudgetExhaustedError, InputError
from fairchores.rounding import (
    RoundingState,
    SolveOptions,
    fair_and_efficient,
    phase1,
    phase2,
)
from fairchores.serialize import bundles_to_list, dumps, fmt_rat
from fairchores.verifiers import (
    FPO,
    Certificate,
    check_ef1,
    check_fisher_integral,
    check_pef1,
)

F = Fraction


def patch_every_binding(monkeypatch, real, calls, body=None):
    """Count calls to ``real`` through every fairchores module that binds it,
    running ``body`` in its place when given."""
    def counted(*args):
        calls.append(args)
        return (body or real)(*args)

    for name, module in list(sys.modules.items()):
        if name == "fairchores" or name.startswith("fairchores."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)


def earnings(state):
    """The state's weights as rationals, over its unit."""
    return {edge: F(weight, state.unit) for edge, weight in state.weights.items()}


def shared_path_state(eps=F(1, 30)):
    """Two agents, three unit chores; c1 is split half-half between them."""
    inst = Instance.from_rows([[1, 1, 1], [1, 1, 1]])
    x = FractionalAllocation.from_rows([[1, F(1, 2), 0], [0, F(1, 2), 1]])
    out = MarketOutcome(x, PriceVector.from_values([F(2, 3)] * 3), eps)
    return inst, RoundingState.from_outcome(inst, out)


class TestPhase1:
    def test_integral_input_all_assigned_no_deletions(self):
        inst = Instance.from_rows([[1, 2], [2, 1]])
        x = FractionalAllocation.from_rows([[1, 0], [0, 1]])
        out = MarketOutcome(x, PriceVector.from_values([1, 1]), F(0))
        state = phase1(RoundingState.from_outcome(inst, out))
        assert state.bundles == [{0}, {1}]
        assert not any(e["event"] == "delete-edge" for e in state.trace)

    def test_fully_shared_chore_never_enters_loop(self):
        inst = Instance.from_rows([[1], [1], [1]])
        x = FractionalAllocation.from_rows([[F(1, 3)], [F(1, 3)], [F(1, 3)]])
        out = MarketOutcome(x, PriceVector.from_values([3]), F(1, 15))
        state = phase1(RoundingState.from_outcome(inst, out))
        assert state.bundles == [set(), set(), set()]
        assert state.allocated == set()
        assert state.checkpoints >= 1

    def test_path_example_hand_derived(self):
        # Leaf chores are assigned; the deletion test never fires because some
        # single removal always lands at or below 1 - eps; c1 stays shared.
        inst, state = shared_path_state()
        phase1(state)
        assert state.bundles == [{0}, {2}]
        assert state.allocated == {0, 2}
        # no edge was deleted: allocated chores keep theirs, c1 stays shared
        assert sorted(state.weights) == [(0, 0), (0, 1), (1, 1), (1, 2)]
        shared = [F(state.weights[(i, 1)], state.unit) for i in (0, 1)]
        assert shared == [F(1, 3), F(1, 3)]

    def test_price_reads_linear_in_edges(self):
        # Bundles only grow, so each payment edge costs a few price reads
        # however large its agent's bundle: one agent, 601 chores.
        m = 601
        row = [1 + c % 7 for c in range(m)]
        inst = Instance.from_rows([row])
        x = FractionalAllocation.from_rows([[1] * m])
        prices = PriceVector.from_values([F(d, sum(row)) for d in row])
        state = RoundingState.from_outcome(inst, MarketOutcome(x, prices, F(0)))
        reads = []

        class CountedPrices(list):
            def __getitem__(self, chore):
                reads.append(chore)
                return super().__getitem__(chore)

        state.prices = CountedPrices(state.prices)
        phase1(state)
        assert state.bundles == [set(range(m))]
        # Every chore's price is read as it is assigned, and a few times more.
        assert m <= len(reads) <= 4 * m

    def test_income_window_checkpoints(self):
        inst, state = shared_path_state()
        phase1(state)
        eps = state.epsilon
        for i in range(inst.n):
            assert 1 - eps <= F(state.income(i), state.unit) <= 1 + (2 * inst.n - 1) * eps
        assert state.checkpoints >= 2

    def test_cancels_cycles_of_any_verified_outcome(self):
        # Criterion-6 shape: identical rows, prices proportional to them and
        # every agent holding 1/n of every chore, so the payment graph is the
        # complete bipartite graph, cyclic whenever n, m >= 2.
        rng = random.Random(1106)
        for _ in range(20):
            n, m = rng.randint(2, 4), rng.randint(2, 6)
            row = [rng.randint(1, 20) for _ in range(m)]
            inst = Instance.from_rows([row] * n)
            prices = PriceVector.from_values([F(n * v, sum(row)) for v in row])
            x = FractionalAllocation.from_rows([[F(1, n)] * m] * n)
            out = MarketOutcome(x, prices, F(0))
            direct = RoundingState.from_outcome(inst, out)
            forest = RoundingState.from_outcome(inst, make_acyclic(inst, out))
            assert earnings(direct) == earnings(forest)
            assert direct.agent_adj == forest.agent_adj
            assert direct.chore_adj == forest.chore_adj
            assert len(direct.weights) <= n + m - 1
        inst = Instance.from_rows([[1, 1], [1, 1]])
        bad = MarketOutcome(FractionalAllocation.from_rows([[1, 0], [0, 1]]),
                            PriceVector.from_values([1, 3]), F(0))
        with pytest.raises(InputError):
            RoundingState.from_outcome(inst, bad)  # wrong incomes

    def test_rejects_slack_past_the_proved_bound(self):
        # A verified equilibrium at epsilon 1/2 is far past 1/(5nm) = 1/50.
        # Phase 1 is proved only up to that bound; on this outcome it deleted
        # the lone edge of an allocated chore.
        inst = Instance.from_rows([[2, 16, 17, 20, 15], [11, 9, 4, 20, 6]])
        out = approx_ceei(inst, F(1, 2))
        assert verify_fisher_equilibrium(inst, out).holds
        with pytest.raises(InputError, match=r"epsilon must lie in \[0, 1/50\]"):
            RoundingState.from_outcome(inst, out)
        at_bound = approx_ceei(inst, default_epsilon(inst.n, inst.m))
        phase2(phase1(RoundingState.from_outcome(inst, at_bound)))


class TestPhase2:
    def test_path_example_copy_of_shared_chore(self):
        inst, state = shared_path_state()
        phase1(state)
        alloc = phase2(state)
        assert alloc.bundles[0] == frozenset({ChoreCopy(0, 0), ChoreCopy(1, 0)})
        assert alloc.bundles[1] == frozenset({ChoreCopy(2, 0), ChoreCopy(1, 1)})
        assert alloc.surplus_count == 1

    def test_no_trees_left_is_a_no_op(self):
        inst = Instance.from_rows([[1, 2], [2, 1]])
        x = FractionalAllocation.from_rows([[1, 0], [0, 1]])
        out = MarketOutcome(x, PriceVector.from_values([1, 1]), F(0))
        state = phase1(RoundingState.from_outcome(inst, out))
        alloc = phase2(state)
        assert alloc.surplus_count == 0
        assert alloc.bundles == (frozenset({ChoreCopy(0, 0)}), frozenset({ChoreCopy(1, 0)}))

    def test_single_chore_splits_into_copies(self):
        inst = Instance.from_rows([[1], [1], [1]])
        x = FractionalAllocation.from_rows([[F(1, 3)], [F(1, 3)], [F(1, 3)]])
        out = MarketOutcome(x, PriceVector.from_values([3]), F(1, 15))
        state = phase1(RoundingState.from_outcome(inst, out))
        alloc = phase2(state)
        assert alloc.surplus_count == 2
        assert sorted(len(b) for b in alloc.bundles) == [1, 1, 1]
        assert {u.chore for b in alloc.bundles for u in b} == {0}


class TestPipeline:
    def test_tightness_single_chore(self):
        for n in range(2, 6):
            inst = Instance.from_rows([[1]] * n)
            result = fair_and_efficient(inst)
            assert result.alloc.surplus_count == n - 1
            assert all(len(b) == 1 for b in result.alloc.bundles)
            assert {u.chore for b in result.alloc.bundles for u in b} == {0}

    def test_single_agent_takes_everything(self):
        result = fair_and_efficient(Instance.from_rows([[2, 5, 1, 7]]))
        assert result.alloc.surplus_count == 0
        assert len(result.alloc.bundles[0]) == 4

    def test_exact_route_is_integral_here(self):
        result = fair_and_efficient(Instance.from_rows([[1, 2], [2, 1]]),
                                    SolveOptions(exact=True))
        assert result.epsilon == 0
        assert tuple(result.prices) == (F(1), F(1))
        assert result.alloc.bundles == (frozenset({ChoreCopy(0, 0)}),
                                        frozenset({ChoreCopy(1, 0)}))

    def test_exact_route_trace_is_the_rounding_trace(self):
        # Epsilon 0 marks the exact route; its trace holds the rounding's
        # events alone, as the approximate route's does, run on the price
        # loop's equilibrium at epsilon 0.
        inst = Instance.from_rows([[1, 3, 2], [2, 1, 3]])
        result = fair_and_efficient(inst, SolveOptions(exact=True))
        outcome = approx_ceei(inst, 0)
        state = RoundingState.from_outcome(inst, outcome)
        phase2(phase1(state))
        assert result.epsilon == outcome.epsilon == 0
        assert result.prices == outcome.prices
        assert result.trace == tuple(state.trace)

    @pytest.mark.parametrize("miss", ["price-loop", "round-budget"])
    def test_exhaustion_propagates_inside_the_search_caps(self, monkeypatch, miss):
        # 2 x 3 lies inside exact_ceei's 4 x 7 caps, yet no exhaustive
        # search answers an exhausted price loop, on either route, and the
        # integer check never runs.
        def exhausted(*args):
            raise BudgetExhaustedError("out of rounds")

        looped, searched, checked = [], [], []
        patch_every_binding(monkeypatch, exact_ceei, searched)
        patch_every_binding(monkeypatch, equilibrium._routing_holds, checked)
        inst = Instance.from_rows([[1, 3, 2], [2, 1, 3]])
        if miss == "price-loop":
            patch_every_binding(monkeypatch, equilibrium._price_loop, looped, exhausted)
            message = "out of rounds"
        else:
            patch_every_binding(monkeypatch, equilibrium._price_loop, looped)
            monkeypatch.setattr(equilibrium, "DEFAULT_ROUNDS", 0)
            message = "within 0 price-adjustment rounds"
        for opts in (SolveOptions(), SolveOptions(exact=True)):
            with pytest.raises(BudgetExhaustedError, match=message):
                fair_and_efficient(inst, opts)
        assert [args[1] for args in looped] == [default_epsilon(2, 3), 0]
        assert searched == checked == []

    def test_wide_spread_family_on_both_routes(self, monkeypatch):
        # Entries 1..9 times 1 or 10^6. Rounding the approximate equilibrium
        # missed on 5 of the first 400 draws. Every draw now certifies on
        # both routes, the exact one at epsilon 0, and the underpaid rounds,
        # each read off the floor network's cut, are counted to show they
        # ran. From the least-disutility start few rounds are underpaid, so
        # 400 more draws take entries 1..999 times 1 or 10^6.
        real = equilibrium._route_within_bounds
        underpaid = []

        def counted(*args):
            earnings = real(*args)
            underpaid.append(earnings is None)
            return earnings

        monkeypatch.setattr(equilibrium, "_route_within_bounds", counted)
        rng = random.Random(3)
        for draw in range(800):
            n = rng.randint(2, 4)
            m = rng.randint(n, 8)
            top = 9 if draw < 400 else 999
            inst = Instance.from_rows([[rng.randint(1, top) * rng.choice((1, 10**6))
                                        for _ in range(m)] for _ in range(n)])
            for opts, eps in ((SolveOptions(), default_epsilon(n, m)),
                              (SolveOptions(exact=True), 0)):
                result = fair_and_efficient(inst, opts)
                assert result.epsilon == eps
                assert all(c.holds for c in result.certificates)
                assert check_ef1(inst, result.alloc).holds
        assert sum(underpaid) >= 50

    def test_exact_route_never_searches_supports_when_rounding_answers(self, monkeypatch):
        # Identical rows tie every ratio, the exhaustive search's worst case
        # at 4 x 7; 6 x 15 is above its caps.
        calls = []
        patch_every_binding(monkeypatch, exact_ceei, calls)
        rng = random.Random(14)
        row = [rng.randint(1, 20) for _ in range(7)]
        for rows in ([row] * 4, [[rng.randint(1, 20) for _ in range(15)] for _ in range(6)]):
            result = fair_and_efficient(Instance.from_rows(rows), SolveOptions(exact=True))
            assert result.epsilon == 0
        assert calls == []

    def test_epsilon_limited_to_proved_range(self):
        inst = Instance.from_rows([[1, 2], [2, 1]])
        assert fair_and_efficient(inst, SolveOptions(epsilon=F(1, 20))).epsilon == F(1, 20)
        assert fair_and_efficient(inst, SolveOptions(epsilon="1/40")).epsilon == F(1, 40)
        for bad in (F(1, 19), F(1, 2), F(0), F(-1, 40)):
            with pytest.raises(InputError):
                fair_and_efficient(inst, SolveOptions(epsilon=bad))

    def test_exact_route_takes_no_epsilon(self):
        # The exact route has no income slack to set, not even a valid one.
        for epsilon in (F(1, 100), F(0)):
            with pytest.raises(InputError, match="takes no epsilon"):
                SolveOptions(exact=True, epsilon=epsilon)

    def test_zero_disutility_rejected(self):
        with pytest.raises(InputError):
            fair_and_efficient(Instance.from_rows([[0, 1], [1, 1]]))

    def test_empty_chore_set(self):
        result = fair_and_efficient(Instance.from_rows([[], []]))
        assert result.alloc.surplus_count == 0
        assert all(c.holds for c in result.certificates)

    def test_random_instances_all_guarantees(self):
        rng = random.Random(808)
        for _ in range(25):
            n = rng.randint(2, 5)
            m = rng.randint(n, 10)
            inst = Instance.from_rows(
                [[rng.randint(1, 20) for _ in range(m)] for _ in range(n)])
            result = fair_and_efficient(inst)
            eps = result.epsilon
            assert eps == default_epsilon(n, m)
            assert result.alloc.surplus_count <= n - 1
            assert result.checkpoints > 0
            # recompute the certificates independently of the pipeline's gate
            assert check_ef1(inst, result.alloc).holds
            assert check_pef1(result.prices, result.alloc).holds
            assert check_fisher_integral(inst, result.alloc, result.prices).holds
            for i in range(n):
                held = bundle_payment(result.prices, result.alloc.bundles[i])
                assert held >= 1 - eps
                assert min(held - result.prices[u.chore]
                           for u in result.alloc.bundles[i]) <= 1 - eps

    def test_copies_only_duplicate_shared_chores(self):
        rng = random.Random(99)
        for _ in range(10):
            n, m = rng.randint(2, 4), rng.randint(2, 8)
            inst = Instance.from_rows(
                [[rng.randint(1, 20) for _ in range(m)] for _ in range(n)])
            result = fair_and_efficient(inst)
            per_agent_copies = [sum(1 for u in b if u.copy > 0)
                                for b in result.alloc.bundles]
            assert all(k <= 1 for k in per_agent_copies)

    def test_each_route_verifies_the_equilibrium_once_per_step(self, monkeypatch):
        # Each route runs the price loop once, at epsilon 0 on the exact one,
        # and checks its integers once. The rounding takes them as they are:
        # no Fraction outcome is built, checked or read back into earnings.
        # Public approx_ceei still verifies its outcome once.
        counts = {name: [] for name in ("_price_loop", "_routing_holds", "approx_ceei",
                                        "_outcome_from_earnings", "verify_fisher_equilibrium")}
        for name, calls in counts.items():
            patch_every_binding(monkeypatch, getattr(equilibrium, name), calls)
        graphs, matrices = [], []
        patch_every_binding(monkeypatch, core.payment_graph, graphs)
        real_init = FractionalAllocation.__post_init__
        monkeypatch.setattr(FractionalAllocation, "__post_init__",
                            lambda self: matrices.append(self) or real_init(self))
        for rows in ([[1, 2, 3], [3, 1, 2]], [[1, 1], [1, 1]], [[2, 1, 1], [1, 2, 1], [1, 1, 2]]):
            inst = Instance.from_rows(rows)
            for opts in (SolveOptions(), SolveOptions(exact=True)):
                for calls in (*counts.values(), graphs, matrices):
                    calls.clear()
                fair_and_efficient(inst, opts)
                found = {name: len(calls) for name, calls in counts.items()}
                assert found == {"_price_loop": 1, "_routing_holds": 1, "approx_ceei": 0,
                                 "_outcome_from_earnings": 0,
                                 "verify_fisher_equilibrium": 0}, (rows, opts)
                assert graphs == matrices == [], (rows, opts)
            for calls in (*counts.values(), graphs, matrices):
                calls.clear()
            approx_ceei(inst, default_epsilon(inst.n, inst.m))
            assert len(counts["verify_fisher_equilibrium"]) == len(matrices) == 1

    def test_outputs_match_the_pinned_digest(self, monkeypatch):
        # sha256 over every output of fair_and_efficient, written as the CLI
        # writes it, one result per line, on both routes: as the pipeline
        # that built, verified and re-read a Fraction outcome computed them.
        # Phase 1 makes its unit finer on 7 of these runs, all on the
        # approximate route (even run numbers), where a share would not
        # divide.
        real = RoundingState._refine
        refined = []

        def counted(state, factor, *totals):
            refined.append(run)
            real(state, factor, *totals)

        monkeypatch.setattr(RoundingState, "_refine", counted)
        runs = [(inst, opts) for inst in pinned_draws()
                for opts in (SolveOptions(), SolveOptions(exact=True))]
        texts = []
        for run, (inst, opts) in enumerate(runs):
            result = fair_and_efficient(inst, opts)
            texts.append(dumps({
                "epsilon": fmt_rat(result.epsilon),
                "prices": [fmt_rat(p) for p in result.prices],
                "bundles": bundles_to_list(result.alloc),
                "certificates": [c.to_dict() for c in result.certificates],
                "trace": list(result.trace), "checkpoints": result.checkpoints}))
        assert refined == [2 * draw for draw in (22, 49, 112, 122, 232, 233, 336)]
        assert sum('"redistribute"' in text for text in texts) == 55
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        assert digest == "170a9fed414e81a2c1577e23967f485b6a90dd3dec5f5f9edf10695c2701119f"

    def test_fpo_certified_by_the_equilibrium_above_the_lp_cap(self):
        small = fair_and_efficient(Instance.from_rows([[1, 3, 2], [2, 1, 3]]))
        assert small.certificates[-1] == Certificate(FPO, True)
        inst = Instance.from_rows(
            [[1 + (i * 7 + c * 3) % 10 for c in range(201)] for i in range(3)])
        result = fair_and_efficient(inst)
        assert 600 < 3 * len(result.alloc.items()) <= 610
        assert result.certificates[-1] == Certificate(FPO, True, {"via": "fisher-equilibrium"})

    def test_trace_serializes(self):
        inst = Instance.from_rows([[1, 3, 2], [2, 1, 3]])
        result = fair_and_efficient(inst)
        text = json.dumps(list(result.trace))
        assert json.loads(text) == list(result.trace)


def pinned_draws():
    """400 tie-heavy draws, n 2..6, m n..12 and entries 1..3, then the 2 x 8
    instance whose phase-1 share has more than 4300 digits: entries v + 1/q
    over random 495-digit q."""
    rng = random.Random(11)
    draws = []
    for _ in range(400):
        n = rng.randint(2, 6)
        m = rng.randint(n, 12)
        draws.append(Instance.from_rows([[rng.randint(1, 3) for _ in range(m)]
                                         for _ in range(n)]))
    rng = random.Random(600)
    draws.append(Instance.from_rows(
        [[f"{v * q + 1}/{q}" for v in row for q in [rng.randint(10**494, 10**495 - 1)]]
         for row in [[19, 16, 6, 16, 10, 12, 12, 9], [2, 4, 10, 6, 19, 18, 7, 20]]]))
    return draws


def test_solving_never_imports_networkx():
    # networkx is a test oracle only; a child process starts with clean modules.
    code = ("import sys, fairchores\n"
            "inst = fairchores.Instance.from_rows([[1, 1, 2], [1, 1, 2], [2, 1, 1]])\n"
            "fairchores.fair_and_efficient(inst)\n"
            "print(sorted(name for name in sys.modules if name.startswith('networkx')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
