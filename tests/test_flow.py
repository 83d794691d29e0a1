"""The integer max-flow kernel and the integer routing built on it."""

import random
import sys
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from fairchores import equilibrium
from fairchores._flow import FlowNetwork
from fairchores.core import ZERO, Instance, PriceVector, integer_rows, mpb
from fairchores.equilibrium import (
    _floor_network,
    _mpb_structure,
    _outcome_from_earnings,
    _plain_network,
    _preload,
    _route_plain,
    _route_within_bounds,
    approx_ceei,
    default_epsilon,
    exact_ceei,
    verify_fisher_equilibrium,
)
from fairchores.errors import BudgetExhaustedError
from test_integer_rows import common_scale_rows

F = Fraction

# 7 x 15 with values 1..20, at its default slack 1/525: from the old start,
# n times each chore's share of the total disutility, one round routed
# every chore yet failed the income floors. Reading the underpaid side off
# the "poor" agents of one flow cycled here for 100,000 rounds.
UNDERPAID_ROWS = [[17, 1, 13, 5, 5, 13, 20, 15, 5, 14, 15, 4, 15, 9, 15],
                  [16, 13, 20, 20, 11, 16, 11, 15, 3, 19, 15, 13, 12, 4, 17],
                  [2, 10, 19, 3, 11, 3, 16, 18, 8, 15, 4, 3, 12, 12, 7],
                  [8, 14, 13, 2, 8, 3, 11, 5, 10, 18, 9, 18, 15, 17, 14],
                  [8, 9, 17, 9, 2, 3, 6, 8, 11, 18, 16, 7, 20, 11, 13],
                  [3, 5, 17, 14, 4, 16, 7, 10, 9, 12, 11, 5, 8, 7, 3],
                  [18, 15, 13, 8, 10, 17, 11, 7, 1, 12, 20, 17, 17, 19, 12]]

# 3 x 3 with values 1..9, at its default slack 1/45: from the
# least-disutility start, one round routes every chore yet fails the floors.
UNDERPAID_START_ROWS = [[6, 6, 9], [9, 5, 7], [2, 7, 4]]


def random_network(rng, top=9):
    """A small random network: (node count, [(u, v, capacity or None)])."""
    nodes = rng.randint(2, 6)
    edges = []
    for _ in range(rng.randint(1, 12)):
        u, v = rng.sample(range(nodes), 2)
        capacity = None if rng.random() < 0.25 else rng.randint(0, top)
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


def edmonds_karp(net, source, sink, paths=None):
    """The Edmonds-Karp oracle, run on ``net``'s residual arrays: push along
    one breadth-first shortest path at a time, searching adjacency lists in
    order, until the sink is cut off; returns the amount. Appends each path,
    source first, to ``paths`` when given."""
    adj, head, residual = net.adj, net.head, net.residual
    total = 0
    while True:
        parent = [None] * len(adj)  # edge into each labelled node
        parent[source] = -1
        queue = deque([source])
        while queue and parent[sink] is None:
            for index in adj[queue.popleft()]:
                v = head[index]
                if parent[v] is None and residual[index] != 0:
                    parent[v] = index
                    queue.append(v)
        if parent[sink] is None:
            return total
        path = []
        node = sink
        while node != source:
            path.append(parent[node])
            node = head[parent[node] ^ 1]
        path.reverse()
        finite = [residual[index] for index in path if residual[index] is not None]
        if not finite:
            raise ValueError("unbounded flow")
        bottleneck = min(finite)
        for index in path:
            if residual[index] is not None:
                residual[index] -= bottleneck
            if residual[index ^ 1] is not None:
                residual[index ^ 1] += bottleneck
        total += bottleneck
        if paths is not None:
            paths.append(path)


def copy_network(net):
    twin = FlowNetwork(len(net.adj))
    twin.adj = [list(edges) for edges in net.adj]
    twin.head = list(net.head)
    twin.residual = list(net.residual)
    return twin


def max_flow_paths(net, source, sink, real_max_flow=FlowNetwork.max_flow):
    """``net.max_flow`` with the paths it pushes through ``_augment``, in order.
    The default binds the real ``max_flow`` at import, past any monkeypatch."""
    paths = []

    def recording(path):
        paths.append(list(path))
        return FlowNetwork._augment(net, path)

    net._augment = recording
    try:
        return real_max_flow(net, source, sink), paths
    finally:
        del net._augment


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


@pytest.mark.parametrize("top", [9, 10**40], ids=["top9", "top1e40"])
def test_blocking_flow_agrees_with_edmonds_karp(top):
    # From zero flow, max_flow pushes Edmonds-Karp's paths in Edmonds-Karp's
    # order, so both leave the same flow on every edge.
    rng = random.Random(12)
    bounded = 0
    for _ in range(300):
        nodes, edges = random_network(rng, top)
        source, sink = 0, nodes - 1
        blocking, _ = build(nodes, edges)
        shortest, _ = build(nodes, edges)
        best = brute_min_cut(nodes, edges)
        if best is None:
            with pytest.raises(ValueError):
                blocking.max_flow(source, sink)
            with pytest.raises(ValueError):
                edmonds_karp(shortest, source, sink)
            continue
        bounded += 1
        oracle_paths = []
        value, paths = max_flow_paths(blocking, source, sink)
        assert value == best == edmonds_karp(shortest, source, sink, oracle_paths)
        assert paths == oracle_paths
        assert blocking.residual == shortest.residual
    assert bounded >= 200


def load_random_flow(net, rng, source, sink, top):
    """Push random amounts along random residual paths from ``source`` to
    ``sink`` and around random residual cycles, so the network carries a
    random feasible flow; returns how many cycles it pushed around. An
    amount is at most its path's least finite residual, or at most ``top``
    when every residual on it is unbounded."""
    adj, head, residual = net.adj, net.head, net.residual

    def walk(start, goal):
        path, seen = [], {start}

        def search(node):
            for index in rng.sample(adj[node], len(adj[node])):
                v = head[index]
                if residual[index] == 0 or (v in seen and v != goal):
                    continue
                path.append(index)
                if v == goal:
                    return True
                seen.add(v)
                if search(v):
                    return True
                path.pop()
            return False

        return path if search(start) else None

    cycles = 0
    for _ in range(rng.randint(1, 4)):
        start = rng.randrange(len(adj))
        path = walk(source, sink) if rng.random() < 0.5 else walk(start, start)
        if path is None:
            continue
        finite = [residual[index] for index in path if residual[index] is not None]
        amount = rng.randint(1, min(finite) if finite else top)
        for index in path:
            if residual[index] is not None:
                residual[index] -= amount
            if residual[index ^ 1] is not None:
                residual[index ^ 1] += amount
        cycles += head[path[-1]] != sink
    return cycles


@pytest.mark.parametrize("top", [9, 10**40], ids=["top9", "top1e40"])
def test_max_flow_from_any_feasible_flow_ends_at_the_same_cut(top):
    # Started from a feasible flow, flow around cycles and on uncapped edges
    # included, max_flow adds up to a maximum flow, and the residual source
    # side is the cut that Edmonds-Karp leaves from zero.
    rng = random.Random(15)
    warm = cycled = 0
    for _ in range(400):
        nodes, edges = random_network(rng, top)
        source, sink = 0, nodes - 1
        best = brute_min_cut(nodes, edges)
        if best is None:
            continue
        net, index = build(nodes, edges)
        cycled += load_random_flow(net, rng, source, sink, top) > 0
        start = [net.flow_value(k) for k in index]
        warm += any(start)
        value = sum(f for (u, _, _), f in zip(edges, start) if u == source) - sum(
            f for (_, v, _), f in zip(edges, start) if v == source)
        assert value + net.max_flow(source, sink) == best
        flows = [net.flow_value(k) for k in index]
        for (u, v, capacity), flow in zip(edges, flows):
            assert 0 <= flow and (capacity is None or flow <= capacity)
        for node in range(nodes):
            net_out = (sum(f for (u, _, _), f in zip(edges, flows) if u == node)
                       - sum(f for (_, v, _), f in zip(edges, flows) if v == node))
            assert net_out == {source: best, sink: -best}.get(node, 0)
        oracle, _ = build(nodes, edges)
        edmonds_karp(oracle, source, sink)
        assert net.reachable(source) == oracle.reachable(source)
    assert warm >= 140 and cycled >= 60


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


def random_instance(rng, n, m, top=9):
    return Instance.from_rows([[rng.randint(1, top) for _ in range(m)] for _ in range(n)])


def test_mpb_structure_matches_rational_ratios():
    # Each row carries its own scale, the lcm of that row's denominators.
    rng = random.Random(8)
    for _ in range(100):
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        inst = Instance.from_rows(
            [[F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(m)] for _ in range(n)])
        prices = [F(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(m)]
        P, L = scaled(prices, F(1, 2))
        D = integer_rows(inst)
        sets = _mpb_structure(D, P)
        for i in range(n):
            best, chores = mpb(inst, PriceVector(tuple(prices)), i)
            scale = lcm(*(value.denominator for value in inst.disutility[i]))
            assert sets[i] == chores
            b = min(sets[i])
            assert F(D[i][b], P[b]) == best * scale / L


def circulation_routing(n, m, P, L, mpb_sets, lo, hi):
    """Earnings routing with every chore saturated and incomes in [lo, hi].

    ``P[c]`` is price ``c`` times ``L``, an integer, and ``lo * L`` and
    ``hi * L`` are integers too. Standard lower-bound reduction on the
    circulation s -> chores -> agents -> t -> s, with chore ``c`` at node
    ``c`` and agent ``i`` at node ``m + i``. Returns the earning of each MPB
    edge as ``Fraction(flow, L)``, or None when infeasible.

    The earnings are read off the ``max_flow`` flow from zero, which fixes
    which of the many feasible routings is returned.
    """
    low, high = int(lo * L), int(hi * L)
    SS, TT, s, t = range(n + m, n + m + 4)
    net = FlowNetwork(n + m + 4)
    total = sum(P)
    edge_index: dict[tuple[int, int], int] = {}
    for c in range(m):
        net.add_edge(SS, c, P[c])
    net.add_edge(s, TT, total)
    for i in range(n):
        for c in sorted(mpb_sets[i]):
            edge_index[(i, c)] = net.add_edge(c, m + i, None)
        net.add_edge(m + i, t, high - low)
        net.add_edge(m + i, TT, low)
    net.add_edge(SS, t, low * n)
    net.add_edge(t, s, None)
    if net.max_flow(SS, TT) != total + low * n:
        return None
    return {edge: Fraction(net.flow_value(idx), L) for edge, idx in edge_index.items()}


def route_within_bounds(n, m, P, L, mpb_sets, lo, hi):
    """One round's bounded routing as the price loop runs it: the floor flow
    on a fresh network, then the caps raised to ``hi``. Its integer flows
    come back as earnings, ``Fraction(flow, L)``, as the oracle gives them."""
    flows = _route_within_bounds(n, m, L, lo, hi, _floor_network(n, m, P, L, mpb_sets, lo))
    if flows is None:
        return None
    assert all(type(flow) is int for flow in flows.values())
    return {edge: F(flow, L) for edge, flow in flows.items()}


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
        sets = _mpb_structure(integer_rows(inst), P)
        earnings = route_within_bounds(n, m, P, L, sets, 1 - eps, 1 + eps)
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


def test_route_within_bounds_agrees_with_the_circulation():
    # The income floors first and the caps second on the cap-only network
    # find a bounded routing exactly when the lower-bound circulation does,
    # and at lo == hi they find the circulation's routing edge by edge.
    rng = random.Random(14)
    routed = Counter()
    for trial in range(2400):
        n, m = rng.randint(1, 3), rng.randint(1, 5)
        inst = random_instance(rng, n, m)
        if trial % 3 == 0:
            prices = list(exact_ceei(inst).prices)
        else:
            raw = [F(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(m)]
            prices = [p * n / sum(raw) for p in raw]
        if rng.random() < 0.3:
            # Off balance: the prices no longer sum to n.
            factor = F(rng.randint(1, 30), 20)
            prices = [p * factor for p in prices]
        eps = F(1, rng.randint(2, 40)) if trial % 2 else ZERO
        lo, hi = 1 - eps, 1 + eps
        P, L = scaled(prices, eps)
        sets = _mpb_structure(integer_rows(inst), P)
        earnings = route_within_bounds(n, m, P, L, sets, lo, hi)
        oracle = circulation_routing(n, m, P, L, sets, lo, hi)
        assert (earnings is None) == (oracle is None)
        if earnings is None:
            continue
        routed[lo == hi] += 1
        assert set(earnings) == {(i, c) for i in range(n) for c in sets[i]}
        for c in range(m):
            assert sum(earnings.get((i, c), 0) for i in range(n)) == prices[c]
        for i in range(n):
            assert lo <= sum(earnings.get((i, c), 0) for c in range(m)) <= hi
        if lo == hi:
            assert earnings == oracle
    assert routed[True] >= 300 and routed[False] >= 300


def plain_routing_cases(monkeypatch, check=None):
    """Cap-only routing inputs ``(n, m, P, L, sets, eps, warm)`` as two
    lists: 150 on random prices from zero flow, and every round of 24
    ``approx_ceei`` runs, ``warm`` telling whether it carried the last
    round's network. The first 12 runs draw values 1..9, the last 12
    values 1..10^6, which take more rounds from the least-disutility start.
    ``check`` sees each loop round as it runs, through
    ``watch_price_rounds``."""
    rng = random.Random(10)
    cases = []
    for _ in range(150):
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        inst = random_instance(rng, n, m)
        eps = F(1, rng.randint(2, 40))
        raw = [F(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(m)]
        P, L = scaled([p * n / sum(raw) for p in raw], eps)
        sets = _mpb_structure(integer_rows(inst), P)
        cases.append((n, m, P, L, sets, eps, False))

    visited = []

    def recording(args, result, carried, moved):
        n, m, P, L, mpb_sets, hi = args
        # The loop updates its list of sets in place after the round.
        visited.append((n, m, P, L, list(mpb_sets), hi - 1, carried is not None))
        if check is not None:
            check(args, result, carried, moved)

    watch_price_rounds(monkeypatch, recording)
    for run in range(24):
        n = rng.randint(2, 6)
        m = rng.randint(n, 12)
        inst = random_instance(rng, n, m, 9 if run < 12 else 10**6)
        approx_ceei(inst, default_epsilon(n, m))
    monkeypatch.undo()
    return cases, visited


def test_unrouted_chore_means_bounded_routing_is_infeasible(monkeypatch):
    # A routing with incomes in [lo, hi] that pays every chore is a routing of
    # the cap-only network too, so approx_ceei skips the bounded network
    # whenever the cap-only one leaves a chore unpaid. Checked on random
    # prices and on every price vector approx_ceei visits.
    cases, visited = plain_routing_cases(monkeypatch)
    blocked = 0
    for n, m, P, L, sets, eps, _ in cases + visited:
        _, unrouted, _ = _route_plain(n, m, P, L, sets, 1 + eps)
        if unrouted:
            blocked += 1
            assert route_within_bounds(n, m, P, L, sets, 1 - eps, 1 + eps) is None
    assert len(visited) >= 100 and blocked >= 100


def check_plain_round(args, result, carried, moved):
    """One cap-only round against the oracles: a warm round's network, as
    moved before its ``max_flow``, is the fresh network with the same flow
    loaded; a blocked round's cut is the Edmonds-Karp cut from zero; a routed
    round's floor cut, read when its bounded routing fails, is the
    Edmonds-Karp cut of the floor network from zero. Returns whether every
    chore routed."""
    n, m, P, L, mpb_sets, hi = args
    if carried is not None:
        assert moved == plain_state(preloaded_plain_network(n, m, P, L, mpb_sets, hi, carried))
    net, unrouted, _ = result
    oracle, oracle_unrouted, _ = edmonds_karp_plain(n, m, P, L, mpb_sets, hi)
    # Which chores stay unrouted depends on the flow; whether any does not.
    assert bool(unrouted) == bool(oracle_unrouted)
    if not unrouted:
        lo = 2 - hi
        net = _plain_network(n, m, P, L, mpb_sets, lo)[0]
        net.max_flow(n + m, n + m + 1)
        oracle, _, _ = edmonds_karp_plain(n, m, P, L, mpb_sets, lo)
    assert net.reachable(n + m) == oracle.reachable(n + m)
    return not unrouted


def test_route_plain_reads_the_edmonds_karp_flow_or_the_cut(monkeypatch):
    # A failing round reads only a cut, the same after every maximum flow
    # from any starting flow: a blocked round the cut of its cap-only
    # network, an underpaid one the cut of its floor network. Loop rounds
    # are checked as they run, a warm one's network against the fresh build
    # from the flow it carried.
    routed = Counter()

    def check(args, result, carried, moved):
        routed[check_plain_round(args, result, carried, moved)] += 1

    cases, visited = plain_routing_cases(monkeypatch, check)
    assert sum(warm for *_, warm in visited) >= 50
    for n, m, P, L, sets, eps, _ in cases:
        args = (n, m, P, L, sets, 1 + eps)
        routed[check_plain_round(args, _route_plain(*args), None, None)] += 1
    assert routed[True] >= 30


def test_preload_leaves_a_feasible_flow(monkeypatch):
    # _preload pushes along source, chore, agent, sink what both capped
    # edges can still take, so every supply and income flow stays within its
    # cap and every chore and agent passes on what it receives: on random
    # prices, from zero and again from the flow the first preload left, and
    # in every round of the price loop, fresh or carried.
    rng = random.Random(36)
    pushed = Counter()
    for _ in range(150):
        n, m = rng.randint(1, 5), rng.randint(1, 8)
        eps = F(1, rng.randint(2, 40))
        raw = [F(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(m)]
        P, L = scaled([p * n / sum(raw) for p in raw], eps)
        sets = _mpb_structure(integer_rows(random_instance(rng, n, m)), P)
        network = _plain_network(n, m, P, L, sets, 1 + eps)
        for _ in range(2):
            pairs = rng.sample(list(network[3]), rng.randint(0, len(network[3])))
            before = plain_state(network)
            _preload(network, pairs)
            assert_feasible(plain_state(network), n, m)
            pushed["random"] += plain_state(network) != before

    real = equilibrium._preload

    def checked(network, pairs):
        n, m = len(network[2]), len(network[1])
        before = plain_state(network)
        real(network, pairs)
        assert_feasible(plain_state(network), n, m)
        if plain_state(network) != before:
            pushed["carried" if any(flow for _, flow in before[1]) else "fresh"] += 1

    monkeypatch.setattr(equilibrium, "_preload", checked)
    for run in range(24):
        n = rng.randint(2, 7)
        m = rng.randint(n, 14)
        approx_ceei(random_instance(rng, n, m, 9 if run < 12 else 10**6), default_epsilon(n, m))
    assert pushed["random"] >= 100 and pushed["fresh"] >= 50 and pushed["carried"] >= 50


def cut_only_augmentations(monkeypatch, inst, eps):
    """How many paths ``max_flow`` augments inside ``_route_plain`` over one
    ``_price_loop`` run."""
    count = Counter()
    real_route, real_augment = equilibrium._route_plain, FlowNetwork._augment

    def route(*args):
        count["inside"] += 1
        try:
            return real_route(*args)
        finally:
            count["inside"] -= 1

    def augment(net, path):
        count["paths"] += count["inside"]
        return real_augment(net, path)

    with monkeypatch.context() as patch:
        patch.setattr(equilibrium, "_route_plain", route)
        patch.setattr(FlowNetwork, "_augment", augment)
        equilibrium._price_loop(inst, eps)
    return count["paths"]


def test_preload_halves_the_paths_of_cut_only_rounds(monkeypatch):
    # CI's 21 x 30 draw (gen --seed 7) at its default slack runs 22 price
    # rounds. Started from the greedy flow, their cap-only networks augment
    # at most half as many paths as with _preload a no-op (76 against 333).
    rng = random.Random(7)
    inst = Instance.from_rows([[rng.randint(1, 20) for _ in range(30)] for _ in range(21)])
    eps = default_epsilon(21, 30)
    preloaded = cut_only_augmentations(monkeypatch, inst, eps)
    monkeypatch.setattr(equilibrium, "_preload", lambda network, pairs: None)
    assert 2 * preloaded <= cut_only_augmentations(monkeypatch, inst, eps)


def edmonds_karp_plain(n, m, P, L, mpb_sets, hi):
    """``_plain_network`` with the income caps at ``hi`` and one
    Edmonds-Karp flow from zero: the network, the chores it leaves unrouted
    and every agent's income as a ``Fraction``."""
    s, t = n + m, n + m + 1
    net = FlowNetwork(n + m + 2)
    supply = [net.add_edge(s, c, P[c]) for c in range(m)]
    for i in range(n):
        for c in sorted(mpb_sets[i]):
            net.add_edge(c, m + i, None)
    income = [net.add_edge(m + i, t, int(hi * L)) for i in range(n)]
    edmonds_karp(net, s, t)
    unrouted = [c for c in range(m) if net.flow_value(supply[c]) < P[c]]
    return net, unrouted, [F(net.flow_value(k), L) for k in income]


def carried_flow(network):
    """A cap-only network's flow on its MPB edges as ``(flows, unit)``: the
    positive flows as integers over the least unit that holds them all."""
    net, _, _, edges, unit = network
    flows = {edge: amount for edge, index in edges.items() if (amount := net.flow_value(index))}
    g = gcd(unit, *flows.values())
    return {edge: amount // g for edge, amount in flows.items()}, unit // g


def preloaded_plain_network(n, m, P, L, mpb_sets, hi, carried):
    """The oracle for ``_carry_plain_network``: the cap-only network of
    ``_plain_network`` built afresh over the unit ``U = lcm(unit, L)``, with
    ``carried = (flows, unit)`` loaded onto it. The flow sits on the MPB
    edges still in ``mpb_sets``, and every supply and income edge carries its
    node's sum. Returns the network in ``_plain_network``'s form."""
    flows, unit = carried
    U = lcm(unit, L)
    up, old = U // L, U // unit
    s, t = n + m, n + m + 1
    net = FlowNetwork(n + m + 2)
    supply = [net.add_edge(s, c, P[c] * up) for c in range(m)]
    edges = {(i, c): net.add_edge(c, m + i, None) for i in range(n) for c in sorted(mpb_sets[i])}
    income = [net.add_edge(m + i, t, int(hi * L) * up) for i in range(n)]
    residual = net.residual
    for (i, c), index in edges.items():
        amount = flows.get((i, c), 0) * old
        for k in (supply[c], index, income[i]):
            if residual[k] is not None:
                residual[k] -= amount
            residual[k ^ 1] += amount
    return net, supply, income, edges, U


def plain_state(network):
    """A cap-only network's ``(residual, flow)`` on every MPB edge keyed by
    (agent, chore), on every supply and income edge, and its unit: its caps
    and flows, whatever order its adjacency lists hold them in."""
    net, supply, income, edges, unit = network

    def edge(index):
        return net.residual[index], net.flow_value(index)

    return ({key: edge(index) for key, index in edges.items()},
            [edge(index) for index in supply], [edge(index) for index in income], unit)


def assert_feasible(state, n, m):
    """A cap-only network's flow, given as its ``plain_state``, is feasible:
    no capped residual is negative, no flow is, and every chore and every
    agent passes on exactly what it receives."""
    edges, supply, income, _ = state
    pairs = [*edges.values(), *supply, *income]
    assert all(left is None or left >= 0 for left, _ in pairs)
    assert all(flow >= 0 for _, flow in pairs)
    for c in range(m):
        assert supply[c][1] == sum(flow for (_, h), (_, flow) in edges.items() if h == c)
    for i in range(n):
        assert income[i][1] == sum(flow for (a, _), (_, flow) in edges.items() if a == i)


def watch_price_rounds(monkeypatch, check):
    """Wrap the price loop's cap-only routing so that ``check(args, result,
    carried, moved)`` sees every round: ``args`` is ``(n, m, P, L, mpb_sets,
    hi)`` and ``result`` what ``_route_plain`` returned. In a warm round
    ``carried`` is the flow the last round's network held, as
    ``carried_flow`` reads it, and ``moved`` the ``plain_state`` of the
    network moved in place, snapshotted before its ``max_flow``; both are
    None in a round built from zero."""
    real_carry, real_route = equilibrium._carry_plain_network, _route_plain
    warm = {}

    def carry(network, *args):
        warm["carried"] = carried_flow(network)
        moved = real_carry(network, *args)
        warm["moved"] = plain_state(moved)
        return moved

    def route(n, m, P, L, mpb_sets, hi, carried=None):
        warm.clear()
        result = real_route(n, m, P, L, mpb_sets, hi, carried)
        check((n, m, P, L, mpb_sets, hi), result, warm.get("carried"), warm.get("moved"))
        return result

    monkeypatch.setattr(equilibrium, "_carry_plain_network", carry)
    monkeypatch.setattr(equilibrium, "_route_plain", route)


def two_flow_approx_ceei(inst, eps, log, max_rounds=100_000):
    """The price loop as it was, with ``Fraction`` prices and two routings
    per round: the bounded one first, by ``circulation_routing``, then an
    Edmonds-Karp cap-only flow to find the blocked side, or, when that
    routes every chore, an Edmonds-Karp floor flow, whose cut does. Appends
    ``("round", P, L)`` to ``log`` for every round's scaled prices, and
    ``("renormalise",)`` or ``("rescale",)`` whenever the price total is
    brought back near n."""
    n, m = inst.n, inst.m
    lo, hi = 1 - eps, 1 + eps
    D = common_scale_rows(inst)
    # Each chore at its least disutility, the prices scaled to total n.
    least = [min(inst.d(i, c) for i in range(n)) for c in range(m)]
    least_total = sum(least, ZERO)
    prices = [n * least[c] / least_total for c in range(m)]
    for _ in range(max_rounds):
        total = sum(prices, ZERO)
        if total > 2 * n or total < F(n, 2):
            scale = F(n) / total
            rounded = scale.limit_denominator(10**9)
            if rounded > 0:
                scale = rounded
            prices = [value * scale for value in prices]
            log.append(("renormalise",))
        L = lcm(eps.denominator, *(value.denominator for value in prices))
        P = [value.numerator * (L // value.denominator) for value in prices]
        log.append(("round", P, L))
        mpb_sets = _mpb_structure(D, P)
        mpb_values = [(D[i][b], P[b]) for i, b in enumerate(map(min, mpb_sets))]
        earnings = circulation_routing(n, m, P, L, mpb_sets, lo, hi)
        if earnings is not None:
            outcome = _outcome_from_earnings(inst, prices, earnings, eps)
            assert verify_fisher_equilibrium(inst, outcome).holds
            return outcome
        net, unrouted, _ = edmonds_karp_plain(n, m, P, L, mpb_sets, hi)
        if not unrouted:
            net, _, incomes = edmonds_karp_plain(n, m, P, L, mpb_sets, lo)
            assert sum(incomes) < n * lo  # else the bounded routing exists
        reach = net.reachable(n + m)
        blocked = [c for c in range(m) if c in reach]
        candidates = [i for i in range(n) if m + i not in reach]
        lam = None
        for i in candidates:
            num, den = mpb_values[i]
            row = D[i]
            for c in blocked:
                top, bottom = row[c] * den, P[c] * num
                if lam is None or top * lam[1] < lam[0] * bottom:
                    lam = (top, bottom)
        if lam is None:
            scale = F(n) / sum(prices, ZERO)
            prices = [value * scale for value in prices]
            log.append(("rescale",))
            continue
        factor = F(*lam)
        for c in blocked:
            prices[c] *= factor
    raise BudgetExhaustedError("round cap")


def test_approx_ceei_matches_the_two_flow_loop(monkeypatch):
    visited = []

    def recording(n, m, P, L, mpb_sets, hi, carried=None):
        visited.append(("round", P, L))
        return _route_plain(n, m, P, L, mpb_sets, hi, carried)

    monkeypatch.setattr(equilibrium, "_route_plain", recording)
    rng = random.Random(11)
    taken = Counter()
    for trial in range(80):
        n = rng.randint(1, 7)
        m = rng.randint(max(n, 1), 14)
        # The second half mixes denominators up to 30 within each row.
        if trial < 40:
            rows = [[F(rng.randint(1, 20), rng.choice((1, 1, 2, 3))) for _ in range(m)]
                    for _ in range(n)]
        else:
            rows = [[F(rng.randint(1, 20), rng.randint(1, 30)) for _ in range(m)]
                    for _ in range(n)]
        inst = Instance.from_rows(rows)
        eps = default_epsilon(n, m) if trial % 4 else F(1, rng.randint(2, 30))
        log = []
        visited.clear()
        fast, slow = approx_ceei(inst, eps), two_flow_approx_ceei(inst, eps, log)
        # The routings may differ; the prices and the rounds may not.
        assert (fast.prices, fast.epsilon) == (slow.prices, slow.epsilon)
        assert verify_fisher_equilibrium(inst, fast).holds
        # Round by round, the integer price vector scales to the same P and L.
        assert visited == [entry for entry in log if entry[0] == "round"]
        taken.update(entry[0] for entry in log)
    assert taken["renormalise"] >= 1 and taken["rescale"] >= 1


def test_price_loop_flows_are_the_edmonds_karp_flows(monkeypatch):
    # Every network that the price loop builds, at the default slack and at
    # epsilon 0, gets the paths of the Edmonds-Karp oracle in its order, and
    # so its flow edge by edge: the cap-only one and the bounded one, whose
    # first flow, on the floor network, an underpaid round reads its cut off.
    callers = Counter()

    def checked(net, source, sink):
        twin = copy_network(net)
        value, paths = max_flow_paths(net, source, sink)
        oracle_paths = []
        assert edmonds_karp(twin, source, sink, oracle_paths) == value
        assert paths == oracle_paths
        assert net.residual == twin.residual
        callers[sys._getframe(1).f_code.co_name] += 1
        return value

    monkeypatch.setattr(FlowNetwork, "max_flow", checked)
    rng = random.Random(13)
    draws = [[[rng.randint(1, 20) for _ in range(m)] for _ in range(n)]
             for n, m in [(21, 30), (4, 7), (4, 7), (3, 10), (3, 10), (3, 6), (3, 6)]]
    for rows in draws + [UNDERPAID_ROWS, UNDERPAID_START_ROWS]:
        inst = Instance.from_rows(rows)
        for eps in (default_epsilon(inst.n, inst.m), 0):
            assert verify_fisher_equilibrium(inst, approx_ceei(inst, eps)).holds
    assert callers["_route_plain"] >= 100
    # Every routed round runs a floor flow, and the second flow only when
    # the floors fill, so the floor flows in excess are the underpaid rounds.
    assert callers["_route_within_bounds"] >= 14
    assert callers["_floor_network"] - callers["_route_within_bounds"] >= 1
    assert set(callers) == {"_route_plain", "_floor_network", "_route_within_bounds"}
