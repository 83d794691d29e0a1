"""Acceptance suite: one test per stated success criterion.

Every criterion prints a single PASS/FAIL line (visible with ``pytest -s`` or
in this module's captured output). Instance sets are pinned by fixed seeds;
all comparisons are exact rational comparisons, no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from fairchores import verifiers
from fairchores.core import (
    ChoreCopy,
    Instance,
    PriceVector,
    SurplusAllocation,
    bundle_payment,
    mpb,
    payment_graph,
)
from fairchores.core import FractionalAllocation, MarketOutcome
from fairchores.equilibrium import (
    approx_ceei,
    default_epsilon,
    exact_ceei,
    make_acyclic,
    verify_fisher_equilibrium,
)
from fairchores.errors import InstanceTooLargeError
from fairchores.rounding import SolveOptions, fair_and_efficient
from fairchores.three_agent import (
    efx_identical,
    perturb_nondegenerate,
    solve_three,
)
from fairchores.verifiers import (
    check_ef1,
    check_efx,
    check_fisher_integral,
    check_fpo,
    check_nondegenerate,
    check_proportional,
    check_tefx,
    implication_suite,
)
from test_three_agent import PROPORTIONAL_FIXTURE

F = Fraction


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def random_instance(rng, n, m, low, high):
    return Instance.from_rows(
        [[rng.randint(low, high) for _ in range(m)] for _ in range(n)])


# Allocations produced by the suites below, re-used by criterion 10.
_SUITE1 = []
_PRODUCED = []


def suite1_results():
    """200 pinned random instances solved through the surplus pipeline."""
    if _SUITE1:
        return _SUITE1
    rng = random.Random(1001)
    for _ in range(200):
        n = rng.randint(2, 5)
        m = rng.randint(n, 10)
        inst = random_instance(rng, n, m, 1, 20)
        result = fair_and_efficient(inst)
        _SUITE1.append((inst, result))
        _PRODUCED.append((inst, result.alloc, result.prices))
    return _SUITE1


def test_criterion_1_surplus_suite():
    start = time.time()
    results = suite1_results()
    for inst, result in results:
        assert check_ef1(inst, result.alloc).holds
        try:
            assert check_fpo(inst, result.alloc).holds
        except InstanceTooLargeError:
            # equilibrium certificate route: every unit is a best-ratio chore
            assert check_fisher_integral(inst, result.alloc, result.prices).holds
        covered = {u.chore for b in result.alloc.bundles for u in b}
        assert covered == set(range(inst.m))
        assert result.alloc.surplus_count <= inst.n - 1
    elapsed = time.time() - start
    report("criterion 1 (EF1 + fPO + surplus on 200 instances)",
           elapsed < 300,
           f"200/200 verified in {elapsed:.1f}s (< 300s)")


def test_criterion_2_tightness():
    for n in range(2, 6):
        inst = Instance.from_rows([[1]] * n)
        result = fair_and_efficient(inst)
        assert result.alloc.surplus_count == n - 1
        assert all(len(b) == 1 for b in result.alloc.bundles)
        assert all(next(iter(b)).chore == 0 for b in result.alloc.bundles)
        copies = sorted(next(iter(b)).copy for b in result.alloc.bundles)
        assert copies == list(range(n))
        _PRODUCED.append((inst, result.alloc, result.prices))
    report("criterion 2 (single-chore tightness)", True,
           "n in 2..5 all yield surplus exactly n-1, one copy per agent")


def test_criterion_3_payment_window():
    for inst, result in suite1_results():
        eps = result.epsilon
        assert eps == default_epsilon(inst.n, inst.m)
        for i in range(inst.n):
            held = bundle_payment(result.prices, result.alloc.bundles[i])
            assert held >= 1 - eps
            assert min(held - result.prices[u.chore]
                       for u in result.alloc.bundles[i]) <= 1 - eps
    report("criterion 3 (payment window at eps = 1/(5nm))", True,
           "exact rational bounds hold for every bundle of suite 1")


def test_criterion_4_phase1_instrumentation():
    # The income-window checkpoint raises on any violation, so a completed
    # pipeline certifies zero violations; require that checkpoints ran.
    checkpoints = [result.checkpoints for _, result in suite1_results()]
    assert all(k > 0 for k in checkpoints)
    report("criterion 4 (phase-1 income window)", True,
           f"all 200 runs instrumented ({sum(checkpoints)} checkpoints, 0 violations)")


def test_criterion_5_oracle_agreement():
    # The pipeline's exact route is the price loop at epsilon 0, so every
    # draw must reach an exact equilibrium there. exact_ceei is the oracle
    # each such equilibrium meets, and the route rounds that very outcome.
    rng = random.Random(1005)
    start = time.time()
    same = 0
    for _ in range(100):
        n = rng.randint(2, 4)
        m = rng.randint(n, 7)
        inst = random_instance(rng, n, m, 1, 20)
        exact = exact_ceei(inst)
        assert verify_fisher_equilibrium(inst, exact).holds
        assert exact.epsilon == 0
        approx = approx_ceei(inst, default_epsilon(n, m))
        assert verify_fisher_equilibrium(inst, approx).holds
        zero = approx_ceei(inst, 0)  # raises when the loop runs out of rounds
        assert verify_fisher_equilibrium(inst, zero).holds
        assert zero.epsilon == 0
        routed = fair_and_efficient(inst, SolveOptions(exact=True))
        assert (routed.prices, routed.epsilon) == (zero.prices, 0)
        same += zero == exact
    report("criterion 5 (exact and approximate oracles agree with verifier)",
           True, f"100/100 instances, both oracles and the price loop at epsilon 0 "
                 f"verified ({same} equal to exact_ceei's) ({time.time()-start:.1f}s)")


def test_criterion_6_make_acyclic():
    rng = random.Random(1006)
    count = 0
    while count < 100:
        n = rng.randint(2, 5)
        m = rng.randint(2, 8)
        row = [rng.randint(1, 20) for _ in range(m)]
        inst = Instance.from_rows([row] * n)
        total = sum(row)
        prices = PriceVector.from_values([F(n * v, total) for v in row])
        x = FractionalAllocation.from_rows([[F(1, n)] * m] * n)
        out = MarketOutcome(x, prices, F(0))
        assert verify_fisher_equilibrium(inst, out).holds
        if payment_graph(out.x, out.prices).is_acyclic():
            continue
        acyclic = make_acyclic(inst, out)
        graph = payment_graph(acyclic.x, acyclic.prices)
        assert graph.is_acyclic()
        assert len(graph.edge_dict()) <= n + m - 1
        assert verify_fisher_equilibrium(inst, acyclic).holds
        count += 1
    report("criterion 6 (cycle cancellation)", True,
           "100/100 cyclic equilibria became verified forests")


def test_criterion_7_three_agent_suite():
    rng = random.Random(1007)
    start = time.time()
    kinds = {"tEFX": 0, "Proportional": 0}
    for _ in range(300):
        m = rng.randint(3, 10)
        inst = random_instance(rng, 3, m, 0, 20)
        result = solve_three(inst)
        kinds[result.kind] += 1
        if result.kind == "tEFX":
            assert check_tefx(inst, result.alloc).holds
        else:
            assert check_proportional(inst, result.alloc).holds
        assert result.iterations <= m + 1
        phis = [e["phi"] for e in result.trace]
        assert all(a > b for a, b in zip(phis, phis[1:]))
        _PRODUCED.append((inst, result.alloc, None))
    # the pinned fixture exercises the proportional branch no matter what the
    # random draw above produced
    fixture = Instance.from_rows(PROPORTIONAL_FIXTURE)
    fixture_result = solve_three(fixture)
    assert fixture_result.kind == "Proportional"
    assert check_proportional(fixture, fixture_result.alloc).holds
    _PRODUCED.append((fixture, fixture_result.alloc, None))
    elapsed = time.time() - start
    report("criterion 7 (three-agent suite)",
           elapsed < 120,
           f"300/300 certified ({kinds['tEFX']} tEFX, {kinds['Proportional']} "
           f"proportional; fixture proportional) in {elapsed:.1f}s (< 120s)")


def brute_efx_identical(costs, bundles):
    n = len(bundles)
    totals = [sum((costs[c] for c in b), F(0)) for b in bundles]
    for i in range(n):
        for c in bundles[i]:
            for j in range(n):
                if i != j and totals[i] - costs[c] > totals[j]:
                    return False
    return True


def test_criterion_8_identical_costs_greedy():
    rng = random.Random(1008)
    for _ in range(500):
        n = rng.randint(2, 5)
        m = rng.randint(0, 12)
        costs = [F(rng.randint(0, 20)) for _ in range(m)]
        bundles = efx_identical(costs, n)
        assert brute_efx_identical(costs, bundles)
        inst = Instance.from_rows([costs] * n if m else [[]] * n)
        alloc = SurplusAllocation(
            tuple(frozenset(ChoreCopy(c, 0) for c in b) for b in bundles), m)
        assert check_efx(inst, alloc).holds
        if m:
            _PRODUCED.append((inst, alloc, None))
    report("criterion 8 (identical-costs greedy is EFX)", True,
           "500/500 outputs pass both the definitional check and the brute force")


def test_criterion_9_perturbation():
    rng = random.Random(1009)
    pair_checks = 0
    for _ in range(100):
        n = rng.randint(1, 4)
        m = rng.randint(1, 12)
        inst = random_instance(rng, n, m, 0, 20)
        pert, _ = perturb_nondegenerate(inst)
        assert check_nondegenerate(pert).holds
        for _ in range(10):
            s = {c for c in range(m) if rng.random() < 0.5}
            t = {c for c in range(m) if rng.random() < 0.5}
            agent = rng.randrange(n)
            if sum(inst.d(agent, c) for c in s) > sum(inst.d(agent, c) for c in t):
                assert (sum(pert.d(agent, c) for c in s)
                        > sum(pert.d(agent, c) for c in t))
                pair_checks += 1
    assert pair_checks >= 100
    report("criterion 9 (perturbation non-degeneracy and order preservation)",
           True, f"100/100 instances exhaustively non-degenerate; "
                 f"{pair_checks} strict comparisons preserved")


def test_criterion_10_implication_lattice(monkeypatch):
    assert _SUITE1 and _PRODUCED, "earlier suites must have run"
    monkeypatch.setattr(verifiers, "MAX_PO_CANDIDATES", 10**5)
    violations = []
    checked = 0
    for inst, alloc, prices in _PRODUCED:
        if prices is None:
            prices = PriceVector.from_values([1] * inst.m)
        rows = implication_suite(inst, alloc, prices)
        checked += len(rows)
        violations.extend(name for name, antecedent, consequent in rows
                          if antecedent and not consequent)
    report("criterion 10 (implication lattice)", not violations,
           f"{checked} implication instances over {len(_PRODUCED)} allocations, "
           f"{len(violations)} violations")
