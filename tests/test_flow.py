"""The integer max-flow kernel and the integer routing built on it."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from fairchores._flow import FlowNetwork
from fairchores.core import Instance, PriceVector, mpb
from fairchores.equilibrium import (
    _integer_matrix,
    _mpb_structure,
    _route_within_bounds,
    exact_ceei,
)

F = Fraction


def random_network(rng):
    """A small random network: (node count, [(u, v, capacity or None)])."""
    nodes = rng.randint(2, 6)
    edges = []
    for _ in range(rng.randint(1, 12)):
        u, v = rng.sample(range(nodes), 2)
        capacity = None if rng.random() < 0.25 else rng.randint(0, 9)
        edges.append((u, v, capacity))
    return nodes, edges


def cut_capacity(edges, side):
    """Capacity of the edges leaving ``side``; None when one of them is uncapped."""
    total = 0
    for u, v, capacity in edges:
        if u in side and v not in side:
            if capacity is None:
                return None
            total += capacity
    return total


def brute_min_cut(nodes, edges):
    """Least cut over every node set holding node 0 and not the last node."""
    inner = range(1, nodes - 1)
    best = None
    for size in range(len(inner) + 1):
        for extra in combinations(inner, size):
            capacity = cut_capacity(edges, {0, *extra})
            if capacity is not None and (best is None or capacity < best):
                best = capacity
    return best


def build(nodes, edges):
    net = FlowNetwork(nodes)
    return net, [net.add_edge(u, v, capacity) for u, v, capacity in edges]


def test_max_flow_equals_brute_force_min_cut():
    rng = random.Random(5)
    bounded = 0
    for _ in range(300):
        nodes, edges = random_network(rng)
        source, sink = 0, nodes - 1
        net, index = build(nodes, edges)
        best = brute_min_cut(nodes, edges)
        if best is None:
            # Every cut crosses an uncapped edge: a path of uncapped edges
            # joins source and sink, and the flow is unbounded.
            with pytest.raises(ValueError):
                net.max_flow(source, sink)
            continue
        bounded += 1
        value = net.max_flow(source, sink)
        assert value == best
        flows = [net.flow_value(k) for k in index]
        for (u, v, capacity), flow in zip(edges, flows):
            assert 0 <= flow and (capacity is None or flow <= capacity)
        for node in range(nodes):
            net_out = (sum(f for (u, _, _), f in zip(edges, flows) if u == node)
                       - sum(f for (_, v, _), f in zip(edges, flows) if v == node))
            assert net_out == {source: value, sink: -value}.get(node, 0)
    assert bounded >= 200


def test_reachable_after_max_flow_is_a_minimum_cut():
    rng = random.Random(6)
    checked = 0
    while checked < 200:
        nodes, edges = random_network(rng)
        if brute_min_cut(nodes, edges) is None:
            continue
        net, _ = build(nodes, edges)
        value = net.max_flow(0, nodes - 1)
        side = net.reachable(0)
        assert 0 in side and nodes - 1 not in side
        assert cut_capacity(edges, side) == value
        checked += 1


def test_uncapped_edges_carry_any_amount():
    net = FlowNetwork(4)
    first = net.add_edge(0, 1, 10**40)
    middle = net.add_edge(1, 2, None)
    net.add_edge(2, 3, 10**40 + 1)
    assert net.max_flow(0, 3) == 10**40
    assert net.flow_value(first) == net.flow_value(middle) == 10**40


def scaled(prices, eps):
    L = lcm(eps.denominator, *(p.denominator for p in prices))
    return [p.numerator * (L // p.denominator) for p in prices], L


def random_instance(rng, n, m):
    return Instance.from_rows([[rng.randint(1, 9) for _ in range(m)] for _ in range(n)])


def test_mpb_structure_matches_rational_ratios():
    rng = random.Random(8)
    for _ in range(100):
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        inst = Instance.from_rows(
            [[F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(m)] for _ in range(n)])
        prices = [F(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(m)]
        P, L = scaled(prices, F(1, 2))
        D = _integer_matrix(inst)
        scale = D[0][0] / inst.d(0, 0)
        values, sets = _mpb_structure(D, P)
        for i in range(n):
            best, chores = mpb(inst, PriceVector(tuple(prices)), i)
            assert sets[i] == chores
            assert F(*values[i]) == best * scale / L


def test_route_within_bounds_saturates_chores_and_bounds_incomes():
    rng = random.Random(9)
    routed = 0
    for trial in range(80):
        n, m = rng.randint(1, 3), rng.randint(1, 5)
        inst = random_instance(rng, n, m)
        eps = F(1, rng.randint(2, 40))
        if trial % 2:
            # Exact equilibrium prices: unit incomes are routable, so the
            # bounded routing must succeed.
            prices = list(exact_ceei(inst).prices)
        else:
            raw = [F(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(m)]
            prices = [p * n / sum(raw) for p in raw]
        P, L = scaled(prices, eps)
        _, sets = _mpb_structure(_integer_matrix(inst), P)
        earnings = _route_within_bounds(n, m, P, L, sets, 1 - eps, 1 + eps)
        if trial % 2:
            assert earnings is not None
        if earnings is None:
            continue
        routed += 1
        assert set(earnings) == {(i, c) for i in range(n) for c in sets[i]}
        assert all(amount >= 0 for amount in earnings.values())
        for c in range(m):
            assert sum(earnings.get((i, c), 0) for i in range(n)) == prices[c]
        for i in range(n):
            assert 1 - eps <= sum(earnings.get((i, c), 0) for c in range(m)) <= 1 + eps
    assert routed >= 40
