"""One integer view of an instance: every row scaled by its own lcm."""

import random
import sys
from fractions import Fraction
from math import lcm

from fairchores import core, verifiers
from fairchores.core import (
    ChoreCopy,
    Instance,
    PriceVector,
    SurplusAllocation,
    integer_rows,
    price_scale,
    row_scales,
)
from fairchores.equilibrium import (
    approx_ceei,
    default_epsilon,
    exact_ceei,
    verify_fisher_equilibrium,
)
from fairchores.rounding import SolveOptions, fair_and_efficient
from fairchores.three_agent import solve_three
from fairchores.verifiers import check_fpo
from test_rounding import patch_every_binding

F = Fraction


def common_scale_rows(inst):
    """The rule ``integer_rows`` replaced: the whole matrix times one lcm of
    every denominator. Test oracles keep it, so they stay independent of
    ``integer_rows``."""
    scale = lcm(*(value.denominator for row in inst.disutility for value in row))
    return [[value.numerator * (scale // value.denominator) for value in row]
            for row in inst.disutility]


def common_scale_pairs(inst):
    """``row_scales`` under the same rule: every common-scale row with that
    one scale."""
    scale = lcm(*(value.denominator for row in inst.disutility for value in row))
    return [(row, scale) for row in common_scale_rows(inst)]


def test_integer_rows_scale_each_row_by_its_own_lcm():
    inst = Instance.from_rows([["1/3", "1/6"], [1, 2], ["3/4", "1/2"], [0, "5/7"]])
    assert integer_rows(inst) == [[2, 1], [1, 2], [3, 2], [0, 5]]
    assert common_scale_rows(inst) == [[28, 14], [84, 168], [63, 42], [0, 60]]
    assert integer_rows(Instance.from_rows([[], []])) == [[], []]
    assert core.row_scales(inst) == [([2, 1], 6), ([1, 2], 1), ([3, 2], 4), ([0, 5], 7)]
    assert common_scale_pairs(inst) == [(row, 84) for row in common_scale_rows(inst)]


def test_over_common_denominator_reads_integral_rows_without_dividing():
    # An integral row is its own numerators over 1, which is what scaling by
    # the lcm, 1, gives; a row with fractions still takes their lcm.
    rng = random.Random(7)
    for k in range(300):
        values = [F(rng.randint(0, 10**12), rng.choice((1, 1, 1, 2, 3, 10**9)) if k % 2 else 1)
                  for _ in range(rng.randint(0, 9))]
        L = lcm(*(value.denominator for value in values))
        assert core.over_common_denominator(values) == (core.scaled(values, L), L)
    assert core.over_common_denominator([F(4), F(6)]) == ([4, 6], 1)
    assert core.over_common_denominator([F(1, 2), F(2, 3)]) == ([3, 4], 6)


def mixed_draw(rng, kind):
    """Rows whose denominators differ from row to row: small fractions, about
    10^6 denominators, or three rows with zero entries."""
    if kind == "zeros":
        n, m = 3, rng.randint(1, 9)
    else:
        n = rng.randint(1, 4)
        m = rng.randint(n, 7)
    rows = []
    for _ in range(n):
        if kind == "wide":
            rows.append([F(rng.randint(1, 999), rng.randint(10**6, 2 * 10**6))
                         for _ in range(m)])
            continue
        denominators = rng.sample(range(1, 13), 2)
        low = 0 if kind == "zeros" else 1
        rows.append([F(rng.randint(low, 20), rng.choice(denominators)) for _ in range(m)])
    return Instance.from_rows(rows)


def random_allocation(rng, inst):
    """Every chore to a random agent, then up to n-1 copies of random chores."""
    bundles = [set() for _ in range(inst.n)]
    for c in range(inst.m):
        bundles[rng.randrange(inst.n)].add(ChoreCopy(c, 0))
    for copy in range(1, rng.randint(1, inst.n)):
        bundles[rng.randrange(inst.n)].add(ChoreCopy(rng.randrange(inst.m), copy))
    return SurplusAllocation(tuple(frozenset(b) for b in bundles), inst.m)


def results(inst, rng):
    """Every solver and certificate that reads ``integer_rows``, on one draw."""
    out = {"fpo-random": check_fpo(inst, random_allocation(rng, inst))}
    if inst.n == 3:
        out["three"] = solve_three(inst)
    if inst.has_zero_entry():
        return out
    out["approx"] = approx_ceei(inst, default_epsilon(inst.n, inst.m))
    out["surplus"] = fair_and_efficient(inst)
    out["exact-route"] = fair_and_efficient(inst, SolveOptions(exact=True))
    if inst.n * inst.m <= 20:  # inside 4 x 7, where the search is fast
        out["exact"] = exact_ceei(inst)
    return out


def test_per_row_scales_agree_with_one_common_scale(monkeypatch):
    # A factor on one row changes no comparison within that row, so running
    # every reader of integer_rows or row_scales on the common-scale rows
    # must give the same outcomes, allocations, traces and certificates,
    # witnesses included.
    modules = [module for name, module in sorted(sys.modules.items())
               if name.startswith("fairchores.") and module is not core]
    readers = [module for module in modules
               if getattr(module, "integer_rows", None) is integer_rows]
    pair_readers = [module for module in modules
                    if getattr(module, "row_scales", None) is core.row_scales]
    assert {module.__name__ for module in readers} >= {"fairchores.equilibrium"}
    assert {module.__name__ for module in pair_readers} >= {
        "fairchores.three_agent", "fairchores.verifiers"}
    rng = random.Random(19)
    draws = [mixed_draw(rng, kind) for kind in ("small", "wide", "zeros") for _ in range(24)]
    mixed = sum(len({lcm(*(v.denominator for v in row)) for row in inst.disutility}) > 1
                for inst in draws)
    assert mixed >= 60
    seeds = [rng.random() for _ in draws]
    per_row = [results(inst, random.Random(seed)) for inst, seed in zip(draws, seeds)]
    for module in readers:
        monkeypatch.setattr(module, "integer_rows", common_scale_rows)
    for module in pair_readers:
        monkeypatch.setattr(module, "row_scales", common_scale_pairs)
    common = [results(inst, random.Random(seed)) for inst, seed in zip(draws, seeds)]
    assert per_row == common
    kinds = [key for found in per_row for key in found]
    assert min(kinds.count(key) for key in (
        "three", "approx", "surplus", "exact-route", "exact")) >= 20
    assert sum(not found["fpo-random"].holds for found in per_row) >= 20


def test_each_value_is_scaled_once(monkeypatch):
    # Every solver and certificate reads the integer form a value keeps:
    # each disutility row is scaled once per instance and each price vector
    # once, however many of them read it, and none changes the shared lists.
    real = core.over_common_denominator
    calls = []
    patch_every_binding(monkeypatch, real, calls)
    rng = random.Random(23)
    draws = [mixed_draw(rng, kind) for kind in ("small", "wide", "zeros") for _ in range(12)]
    solved = {"surplus": 0, "three": 0}
    for inst in draws:
        del calls[:]
        alloc = random_allocation(rng, inst)
        price_vectors = [PriceVector.from_values(
            [F(rng.randint(1, 9), rng.randint(1, 7)) for _ in range(inst.m)])]
        if not inst.has_zero_entry():
            outcome = approx_ceei(inst, default_epsilon(inst.n, inst.m))
            assert verify_fisher_equilibrium(inst, outcome).holds
            price_vectors.append(outcome.prices)
            for opts in (SolveOptions(), SolveOptions(exact=True)):
                result = fair_and_efficient(inst, opts)
                assert verifiers.check_fisher_integral(inst, result.alloc, result.prices).holds
                assert verifiers.check_pef1(result.prices, result.alloc).holds
                price_vectors.append(result.prices)
                solved["surplus"] += 1
        if inst.n == 3:
            solve_three(inst)
            solved["three"] += 1
        for check in (verifiers.check_ef1, verifiers.check_efx, verifiers.check_tefx,
                      verifiers.check_proportional, verifiers.check_fpo):
            check(inst, alloc)
        verifiers.check_fisher_integral(inst, alloc, price_vectors[0])
        verifiers.check_pef1(price_vectors[0], alloc)

        # Rows are told apart by identity, since a row may equal a price
        # vector; equal price vectors are each scaled once.
        scaled = [args[0] for args in calls]
        rows = [values for values in scaled if any(values is row for row in inst.disutility)]
        assert sorted(map(id, rows)) == sorted(map(id, inst.disutility))
        distinct = list({id(prices): prices for prices in price_vectors}.values())
        for prices in distinct:
            equal = sum(other.p == prices.p for other in distinct)
            assert sum(tuple(values) == prices.p for values in scaled
                       if not any(values is row for row in rows)) == equal
        assert row_scales(inst) == [real(row) for row in inst.disutility]
        for prices in price_vectors:
            assert price_scale(prices) == real(prices.p)
    assert solved["surplus"] >= 30 and solved["three"] >= 15
