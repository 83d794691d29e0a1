import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace

import pytest

from fairchores import equilibrium
from fairchores.core import (
    FISHER_EQ,
    Certificate,
    FractionalAllocation,
    Instance,
    MarketOutcome,
    PaymentGraph,
    PriceVector,
    integer_rows,
    payment_graph,
    row_scales,
)
from fairchores.equilibrium import (
    _enumerate_supports,
    _forest_supports,
    _mpb_structure,
    _outcome_from_earnings,
    _carry_plain_network,
    _plain_network,
    _routing_holds,
    approx_ceei,
    default_epsilon,
    exact_ceei,
    make_acyclic,
    verify_fisher_equilibrium,
)
from fairchores.errors import (
    AlgorithmBugError,
    InputError,
    InstanceTooLargeError,
)
from test_flow import (
    UNDERPAID_ROWS,
    UNDERPAID_START_ROWS,
    assert_feasible,
    carried_flow,
    check_plain_round,
    plain_state,
    preloaded_plain_network,
    watch_price_rounds,
)
from test_integer_rows import common_scale_rows

F = Fraction


def outcome(x_rows, prices, eps=0):
    x = FractionalAllocation.from_rows(x_rows)
    return MarketOutcome(x, PriceVector.from_values(prices), F(eps))


class TestVerifier:
    def test_single_agent_proportional_prices(self):
        inst = Instance.from_rows([[1, 3]])
        report = verify_fisher_equilibrium(inst, outcome([[1, 1]], [F(1, 4), F(3, 4)]))
        assert report.holds

    def test_diagonal_passes(self):
        inst = Instance.from_rows([[1, 2], [2, 1]])
        report = verify_fisher_equilibrium(inst, outcome([[1, 0], [0, 1]], [1, 1]))
        assert report == Certificate(FISHER_EQ, True)

    def test_skewed_prices_break_incomes(self):
        # With p=(1,2) the diagonal stays ratio-optimal for both agents but
        # agent 1 earns 2, so the income condition is the one that fails.
        inst = Instance.from_rows([[1, 2], [2, 1]])
        report = verify_fisher_equilibrium(inst, outcome([[1, 0], [0, 1]], [1, 2]))
        assert report == Certificate(FISHER_EQ, False, {
            "condition": "incomes", "agent": 1, "income": "2"})

    def test_mpb_violation_witnessed(self):
        # Anti-diagonal at unit prices hands both agents their worse ratio.
        inst = Instance.from_rows([[1, 2], [2, 1]])
        report = verify_fisher_equilibrium(inst, outcome([[0, 1], [1, 0]], [1, 1]))
        assert report == Certificate(FISHER_EQ, False, {
            "condition": "min-pain-per-buck", "agent": 0, "chore": 1})

    def test_epsilon_window(self):
        inst = Instance.from_rows([[1], [1]])
        shared = outcome([[F(11, 20)], [F(9, 20)]], [2], eps=F(1, 10))
        assert verify_fisher_equilibrium(inst, shared).holds
        tight = outcome([[F(11, 20)], [F(9, 20)]], [2], eps=F(1, 100))
        assert not verify_fisher_equilibrium(inst, tight).holds


class TestExactCeei:
    def test_one_agent_two_chores(self):
        out = exact_ceei(Instance.from_rows([[1, 3]]))
        assert tuple(out.prices) == (F(1, 4), F(3, 4))
        assert out.x.x == ((F(1), F(1)),)

    def test_two_agents_diagonal(self):
        out = exact_ceei(Instance.from_rows([[1, 2], [2, 1]]))
        assert tuple(out.prices) == (F(1), F(1))
        assert out.x.x == ((F(1), F(0)), (F(0), F(1)))

    def test_single_chore_split_three_ways(self):
        out = exact_ceei(Instance.from_rows([[1], [1], [1]]))
        assert tuple(out.prices) == (F(3),)
        assert all(row[0] == F(1, 3) for row in out.x.x)

    def test_incomes_and_price_total(self):
        rng = random.Random(31)
        for _ in range(15):
            n, m = rng.randint(1, 4), rng.randint(1, 7)
            inst = Instance.from_rows(
                [[rng.randint(1, 20) for _ in range(m)] for _ in range(n)])
            out = exact_ceei(inst)
            assert verify_fisher_equilibrium(inst, out).holds
            assert all(out.income(i) == 1 for i in range(n))
            assert out.prices.total() == n

    def test_deterministic(self):
        inst = Instance.from_rows([[3, 1, 4], [1, 5, 9]])
        assert exact_ceei(inst) == exact_ceei(inst)

    def test_limits_and_zero_rejection(self, monkeypatch):
        big = Instance.from_rows([[1] * 8] * 2)
        for inst in (big, Instance.from_rows([[1] * 8] * 4), Instance.from_rows([[1] * 5] * 5)):
            with pytest.raises(InstanceTooLargeError):
                exact_ceei(inst)
        at_cap = Instance.from_rows(
            [[1 + (i * 7 + c * 3) % 10 for c in range(7)] for i in range(4)])
        assert verify_fisher_equilibrium(at_cap, exact_ceei(at_cap)).holds
        monkeypatch.setattr(equilibrium, "MAX_SEARCH_CHORES", 8)
        assert exact_ceei(big) is not None
        with pytest.raises(InputError):
            exact_ceei(Instance.from_rows([[1, 0]]))
        with pytest.raises(InputError):
            exact_ceei(Instance.from_rows([[]]))


def test_support_enumeration_order():
    supports = list(_forest_supports(2, 2))
    assert supports[0] == ((0, 0), (1, 1))  # lexicographically first matching
    assert supports[1] == ((0, 1), (1, 0))
    counts = [len(s) for s in supports]
    assert counts == sorted(counts)  # edge count ascending
    assert all(len(s) < 2 + 2 for s in supports)
    # every agent and chore covered in every support
    for support in supports:
        assert {i for i, _ in support} == {0, 1}
        assert {c for _, c in support} == {0, 1}


def brute_supports(n, m):
    """Oracle enumeration: filter all edge subsets, order by (count, lex)."""
    import itertools

    import networkx as nx

    edges = [(i, c) for i in range(n) for c in range(m)]
    found = []
    for k in range(1, n + m):
        for subset in itertools.combinations(edges, k):
            if {i for i, _ in subset} != set(range(n)):
                continue
            if {c for _, c in subset} != set(range(m)):
                continue
            graph = nx.Graph((("a", i), ("c", c)) for i, c in subset)
            if nx.is_forest(graph):
                found.append(subset)
    return found


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_support_enumeration_matches_brute_force(n, m):
    assert list(_forest_supports(n, m)) == brute_supports(n, m)


def support_trees(support):
    """Edge lists of the trees of a support, by a plain union-find."""
    parent = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    for i, c in support:
        parent[find(("a", i))] = find(("c", c))
    trees = {}
    for i, c in support:
        trees.setdefault(find(("a", i)), []).append((i, c))
    return list(trees.values())


def tree_prices(D, edges):
    """Relative prices a tree's edges fix, walked in ``Fraction`` arithmetic:
    an agent's ratio d_i(c)/p_c is the same on each of its edges."""
    price = {edges[0][1]: F(1)}
    while len(price) < len({c for _, c in edges}):
        for i, c in edges:
            known = next((h for j, h in edges if j == i and h in price), None)
            if known is not None and c not in price:
                price[c] = price[known] * F(D[i][c], D[i][known])
    return price


def tree_rejected(D, edges):
    """Some agent of the tree pays a strictly better ratio on one of the
    tree's chores than on its own edges, at the prices the edges fix."""
    price = tree_prices(D, edges)
    return any(F(D[i][y]) / price[y] < F(D[i][c]) / price[c]
               for i, c in edges for y in price)


def pruned_supports(D, n, m):
    return [tuple(divmod(e, m) for e in chosen)
            for chosen, _ in _enumerate_supports(n, m, D)]


SHAPES = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3, 4)] + [(2, 5), (4, 3)]


@pytest.mark.parametrize("n,m", SHAPES)
def test_pruned_supports_fail_a_component(n, m):
    # The pruned enumeration keeps the canonical order and drops only
    # supports with a tree no equilibrium can use.
    rng = random.Random(100 * n + m)
    unpruned = list(_forest_supports(n, m))
    skipped = 0
    for high in (20, 20, 20, 3, 3, 3):
        D = [[rng.randint(1, high) for _ in range(m)] for _ in range(n)]
        kept = pruned_supports(D, n, m)
        rest = iter(unpruned)
        assert all(support in rest for support in kept)
        for support in set(unpruned) - set(kept):
            assert any(tree_rejected(D, edges) for edges in support_trees(support))
            skipped += 1
    if n > 1 and m > 1:
        assert skipped > 0
    # Identical rows tie every ratio, so no merge is pruned.
    row = [rng.randint(1, 20) for _ in range(m)]
    assert pruned_supports([row] * n, n, m) == unpruned


@pytest.mark.parametrize("n,m", SHAPES)
def test_tree_records_describe_their_trees(n, m):
    # Every record the pruned enumeration yields holds exactly its tree's
    # nodes, prices proportional to the ones its edges fix, and only
    # best-ratio edges; the supports kept are exactly those whose trees all
    # pass that test.
    rng = random.Random(200 * n + m)
    unpruned = list(_forest_supports(n, m))
    instances = [[[rng.randint(1, high) for _ in range(m)] for _ in range(n)]
                 for high in (20, 20, 3, 3)]
    instances.append([[rng.randint(1, 20) for _ in range(m)]] * n)
    for D in instances:
        kept, records = [], {}
        for chosen, trees in _enumerate_supports(n, m, D):
            kept.append(tuple(divmod(e, m) for e in chosen))
            records.update((record[0], record) for record in trees)
        for mask, agents, chores, P in records.values():
            edges = [divmod(e, m) for e in range(n * m) if mask >> e & 1]
            assert sorted(agents) == sorted({i for i, _ in edges})
            assert sorted(chores) == sorted({c for _, c in edges})
            price = tree_prices(D, edges)
            base = chores[0]
            assert all(P[c] == 0 for c in range(m) if c not in price)
            assert all(F(P[c], P[base]) == price[c] / price[base] for c in price)
            assert not tree_rejected(D, edges)
        assert kept == [
            support for support in unpruned
            if not any(tree_rejected(D, edges) for edges in support_trees(support))]


def frozen_solve_component(D, edges):
    """The edge-based tree solver ``exact_ceei`` used before it read its trees
    from the enumeration's records: a gcd walk for the prices ``F``, leaf
    stripping for the earnings scaled by ``T``, then every agent against
    every chore of the tree. A chore costs ``count * F[c] / T``."""
    agents = sorted({i for i, _ in edges})
    chores = sorted({c for _, c in edges})
    adj_a = {i: [] for i in agents}
    adj_c = {c: [] for c in chores}
    for i, c in edges:
        adj_a[i].append(c)
        adj_c[c].append(i)

    base = chores[0]
    fnum, fden = {base: 1}, {base: 1}
    frontier = [(1, base)]
    seen_a = set()
    while frontier:
        kind, node = frontier.pop()
        if kind == 1:
            for i in adj_c[node]:
                if i not in seen_a:
                    seen_a.add(i)
                    frontier.append((0, i))
        else:
            row = D[node]
            anchor = next(c for c in adj_a[node] if c in fnum)
            for c in adj_a[node]:
                if c not in fnum:
                    frontier.append((1, c))
                    num = fnum[anchor] * row[c]
                    den = fden[anchor] * row[anchor]
                    g = gcd(num, den)
                    fnum[c], fden[c] = num // g, den // g

    common = lcm(*(fden[c] for c in chores))
    prices = {c: fnum[c] * (common // fden[c]) for c in chores}
    T = sum(prices.values())
    count = len(agents)

    need = {(1, c): count * prices[c] for c in chores}
    need.update(((0, i), T) for i in agents)
    left = {(1, c): set(adj_c[c]) for c in chores}
    left.update(((0, i), set(adj_a[i])) for i in agents)
    queue = [v for v, nbrs in left.items() if len(nbrs) == 1]
    earn = {}
    stripped = 0
    while queue:
        v = queue.pop()
        if len(left[v]) != 1:
            continue
        other = next(iter(left[v]))
        if v[0] == 1:
            edge, u = (other, v[1]), (0, other)
        else:
            edge, u = (v[1], other), (1, other)
        amount = need[v]
        if amount < 0 or amount > count * prices[edge[1]]:
            return None
        earn[edge] = amount
        need[u] -= amount
        need[v] = 0
        left[u].discard(v[1])
        left[v].clear()
        stripped += 1
        if len(left[u]) == 1:
            queue.append(u)
    if stripped != len(agents) + len(chores) - 1:
        return None
    if any(need[(0, i)] != 0 for i in agents) or any(need[(1, c)] != 0 for c in chores):
        return None

    ratio = {}
    for i in agents:
        anchor = adj_a[i][0]
        ratio[i] = (D[i][anchor] * T, count * prices[anchor])
        for c in chores:
            if D[i][c] * prices[anchor] < D[i][anchor] * prices[c]:
                return None
    return SimpleNamespace(agents=agents, chores=chores, count=count, T=T, F=prices,
                           ratio=ratio, earn=earn)


def frozen_components_compatible(D, one, other):
    """No agent of ``one`` finds a strictly better ratio among ``other``'s chores."""
    for i in one.agents:
        num, den = one.ratio[i]
        row = D[i]
        for c in other.chores:
            if row[c] * other.T * den < num * other.count * other.F[c]:
                return False
    return True


def unpruned_exact_ceei(inst):
    """exact_ceei's loop as it was before the prune: every forest support in
    canonical order, each tree solved from its edges, with the same memoized
    component and pair checks."""
    n, m = inst.n, inst.m
    D = common_scale_rows(inst)
    missing = object()
    comp_cache, pair_cache = {}, {}
    for _, records in _enumerate_supports(n, m, None):
        masks = [record[0] for record in records]
        solved = []
        feasible = True
        for key in masks:
            comp = comp_cache.get(key, missing)
            if comp is missing:
                edges = [divmod(e, m) for e in range(n * m) if key >> e & 1]
                comp = comp_cache[key] = frozen_solve_component(D, edges)
            if comp is None:
                feasible = False
                break
            solved.append(comp)
        if not feasible:
            continue
        for a in range(len(solved)):
            for b in range(len(solved)):
                if a != b:
                    pair = (masks[a], masks[b])
                    if pair not in pair_cache:
                        pair_cache[pair] = frozen_components_compatible(
                            D, solved[a], solved[b])
                    feasible = feasible and pair_cache[pair]
        if not feasible:
            continue
        prices = [F(0)] * m
        earnings = {}
        for comp in solved:
            for c in comp.chores:
                prices[c] = F(comp.count * comp.F[c], comp.T)
            for edge, amount in comp.earn.items():
                earnings[edge] = F(amount, comp.T)
        outcome = _outcome_from_earnings(inst, prices, earnings, F(0))
        assert verify_fisher_equilibrium(inst, outcome).holds
        return outcome
    raise AlgorithmBugError("unpruned enumeration exhausted")


def test_exact_ceei_matches_the_unpruned_loop():
    # On identical rows every merge passes _join and nothing is pruned; the
    # unpruned loop is slow there and on 4x6, so those shapes stay small.
    rng = random.Random(77)
    for trial in range(60):
        identical = trial % 3 == 0
        n = rng.randint(1, 3 if identical else 4)
        m = rng.randint(max(n, 2), 5 if identical or n == 4 else 6)
        high = 3 if trial % 2 else 20
        rows = [[rng.randint(1, high) for _ in range(m)] for _ in range(n)]
        if identical:
            rows = [rows[0]] * n
        inst = Instance.from_rows(rows)
        assert exact_ceei(inst) == unpruned_exact_ceei(inst)


class TestApproxCeei:
    def test_exact_outcome_valid_at_any_epsilon(self):
        inst = Instance.from_rows([[1, 2], [2, 1]])
        exact = exact_ceei(inst)
        for eps in (F(1, 100), F(1, 15), F(1, 2)):
            relaxed = MarketOutcome(exact.x, exact.prices, eps)
            assert verify_fisher_equilibrium(inst, relaxed).holds

    def test_single_chore_three_agents(self):
        inst = Instance.from_rows([[1], [1], [1]])
        # The equal split at price 3 is a valid outcome at this slack.
        equal = outcome([[F(1, 3)], [F(1, 3)], [F(1, 3)]], [3], eps=F(1, 15))
        assert verify_fisher_equilibrium(inst, equal).holds
        # Whatever the solver returns, every agent must hold a positive share:
        # each income is at least 1 - eps > 0 and the only chore pays for all of it.
        out = approx_ceei(inst, F(1, 15))
        assert verify_fisher_equilibrium(inst, out).holds
        assert all(row[0] > 0 for row in out.x.x)

    def test_random_instance_self_verifies(self):
        rng = random.Random(42)
        inst = Instance.from_rows(
            [[rng.randint(1, 20) for _ in range(8)] for _ in range(4)])
        out = approx_ceei(inst, default_epsilon(4, 8))
        assert verify_fisher_equilibrium(inst, out).holds

    def test_fuzz_many_sizes(self):
        rng = random.Random(2024)
        for _ in range(40):
            n = rng.randint(2, 5)
            m = rng.randint(n, 10)
            inst = Instance.from_rows(
                [[rng.randint(1, 20) for _ in range(m)] for _ in range(n)])
            out = approx_ceei(inst, default_epsilon(n, m))
            assert verify_fisher_equilibrium(inst, out).holds

    def test_rejects_bad_epsilon_and_zero_entries(self):
        # Epsilon 0 asks for an exact equilibrium; the slack lies in [0, 1).
        inst = Instance.from_rows([[1, 2]])
        exact = approx_ceei(inst, F(0))
        assert exact.epsilon == 0 and verify_fisher_equilibrium(inst, exact).holds
        for bad in (F(-1, 10), F(1), F(3, 2)):
            with pytest.raises(InputError, match=r"epsilon must lie in \[0, 1\)"):
                approx_ceei(inst, bad)
        with pytest.raises(InputError):
            approx_ceei(Instance.from_rows([[0, 1]]), F(1, 10))


def fraction_verdict(inst, eps, Q, R, L, flows):
    """The failing condition of the ``Fraction`` outcome built from the price
    loop's integers, "allocation" when ``FractionalAllocation`` rejects the
    matrix (an entry outside [0, 1], or a chore not allotted exactly once),
    or None when it verifies."""
    earnings = {edge: F(flow, L) for edge, flow in flows.items()}
    try:
        out = _outcome_from_earnings(inst, [F(value, R) for value in Q], earnings, eps)
    except InputError:
        return "allocation"
    certificate = verify_fisher_equilibrium(inst, out)
    return None if certificate.holds else certificate.witness["condition"]


def test_integer_check_rejects_what_the_verifier_rejects():
    # The pipeline checks the price loop's integers with _routing_holds in
    # place of verify_fisher_equilibrium on the Fraction outcome. Each
    # corruption of the flows fails both: every payment moved to agent 0;
    # one chore underpaid by one unit; and, with incomes and payments
    # unchanged, earnings moved around a 4-cycle onto an edge off the MPB
    # set, or around a 4-cycle of MPB edges until one flow is negative.
    rng = random.Random(33)
    seen = Counter()
    for trial in range(60):
        n = rng.randint(2, 5)
        m = rng.randint(n, 9)
        inst = Instance.from_rows([[rng.randint(1, 9) for _ in range(m)] for _ in range(n)])
        eps, Q, R, L, flows = equilibrium._price_loop(
            inst, default_epsilon(n, m) if trial % 2 else 0)
        P = [value * (L // R) for value in Q]
        assert _routing_holds(inst, eps, P, L, flows)
        assert fraction_verdict(inst, eps, Q, R, L, flows) is None

        def moved(i, c, j, d, delta):
            """Flows with ``delta`` moved from (i, c) and (j, d) to (j, c) and (i, d)."""
            result = Counter(flows)
            result[(i, c)] -= delta
            result[(j, d)] -= delta
            result[(j, c)] += delta
            result[(i, d)] += delta
            return dict(result)

        merged = Counter()
        for (_, c), flow in flows.items():
            merged[(0, c)] += flow
        positive = sorted(edge for edge, flow in flows.items() if flow)
        underpaid = dict(flows)
        underpaid[positive[0]] -= 1
        corrupted = {"one agent": (dict(merged), "incomes"),
                     "underpaid": (underpaid, "allocation")}
        sets = _mpb_structure(integer_rows(inst), P)
        off = next(((i, c, j, d) for i, c in positive for j, d in positive
                    if i != j and c != d and c not in sets[j]), None)
        if off is not None:
            i, c, j, d = off
            corrupted["off MPB"] = (moved(i, c, j, d, min(flows[(i, c)], flows[(j, d)])),
                                    "min-pain-per-buck")
        cycle = next(((i, j, c, d) for i in range(n) for j in range(i + 1, n)
                      for c in sorted(sets[i] & sets[j]) for d in sorted(sets[i] & sets[j])
                      if c < d), None)
        if cycle is not None:
            i, j, c, d = cycle
            corrupted["negative"] = (moved(i, c, j, d, flows[(i, c)] + 1), "allocation")
        for name, (bad, condition) in corrupted.items():
            assert not _routing_holds(inst, eps, P, L, bad), (trial, name)
            assert fraction_verdict(inst, eps, Q, R, L, bad) == condition, (trial, name)
            seen[name] += 1
    assert seen["one agent"] == seen["underpaid"] == 60
    assert seen["off MPB"] >= 20 and seen["negative"] >= 10


def test_price_loop_starts_at_each_chores_least_disutility(monkeypatch):
    # Round 0 prices chore c at n * min_k d_k(c) / sum of the minima, so c
    # lies in the MPB set of every agent who dislikes it least, and such an
    # agent's set is exactly its chores of least disutility. The start's
    # denominator comes from the minima alone: it divides their sum over
    # the lcm of their own denominators. Unreduced, the start sits over that
    # lcm too, or over the scale all rows share, never over the lcm of the
    # scales of the rows that hold the minima.
    starts = []
    real = equilibrium._route_plain

    def recording(n, m, P, L, mpb_sets, hi, carried=None):
        if not starts:
            starts.append((P, L, list(mpb_sets)))
        return real(n, m, P, L, mpb_sets, hi, carried)

    monkeypatch.setattr(equilibrium, "_route_plain", recording)
    rng = random.Random(31)
    tied = outside = mixed = 0
    for k in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(max(n, 1), 10)
        # Values 1..3 over denominators 1..3 tie often. Every third draw
        # adds 1/97 to about half the entries and scales the rest by
        # 10^6/89, which keeps most entries over 89 out of the minima.
        rows = [[F(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(m)] for _ in range(n)]
        if k % 3 == 0:
            rows = [[F(v * 97 + 1, 97) if rng.random() < 0.5 else F(v * 10**6, 89)
                     for v in row] for row in rows]
        inst = Instance.from_rows(rows)
        least = [min(column) for column in zip(*inst.disutility)]
        total = sum(least)
        starts.clear()
        out = approx_ceei(inst, 0)
        assert verify_fisher_equilibrium(inst, out).holds
        P, L, sets = starts[0]  # at epsilon 0, (P, L) is the start's (Q, R)
        assert [F(value, L) for value in P] == [n * value / total for value in least]
        K = lcm(*(value.denominator for value in least))
        assert (K * total) % L == 0
        scales = row_scales(inst)
        shared = {scale for _, scale in scales}
        _, S = equilibrium._start_prices(scales, n)
        assert S == (K if len(shared) > 1 else scales[0][1]) * total
        mixed += len(shared) > 1
        for i in range(n):
            chores = {c for c in range(m) if inst.d(i, c) == least[c]}
            if chores:
                assert sets[i] == chores
        tied += any(sum(inst.d(i, c) == least[c] for i in range(n)) > 1 for c in range(m))
        outside += any(v.denominator % 89 == 0 for row in rows for v in row) and L % 89 != 0
    assert tied >= 100 and outside >= 30 and mixed >= 60


def price_loop_draws():
    """Instances and slacks for the per-round checks of ``approx_ceei``: 300
    random strictly positive draws (n 2..8, m n..20, values 1..20, every
    third with 9-digit fractions mixed in, every fourth at a wide slack), then
    the two ``surplus-large`` benchmark shapes."""
    rng = random.Random(22)
    draws = []
    for k in range(300):
        n = rng.randint(2, 8)
        m = rng.randint(n, 20)
        if k % 3:
            rows = [[rng.randint(1, 20) for _ in range(m)] for _ in range(n)]
        else:
            rows = [[F(rng.randint(10**8, 10**9 - 1), rng.randint(10**8, 10**9 - 1))
                     if rng.random() < 0.3 else rng.randint(1, 20) for _ in range(m)]
                    for _ in range(n)]
        eps = default_epsilon(n, m) if k % 4 else F(1, rng.randint(2, 30))
        draws.append((Instance.from_rows(rows), eps))
    for n, m in ((21, 30), (25, 25)):
        rows = [[rng.randint(1, 20) for _ in range(m)] for _ in range(n)]
        draws.append((Instance.from_rows(rows), default_epsilon(n, m)))
    return draws


def run_price_loops(monkeypatch, check):
    """``approx_ceei`` on every draw, with ``check(D, args, result, carried,
    moved)`` called on each round through ``watch_price_rounds``: ``D`` the
    integer rows, ``args`` the round's ``(n, m, P, L, mpb_sets, hi)``.
    Returns counts of the round kinds that carrying state between rounds
    must handle."""
    kinds = Counter()
    state = {}

    def checked(args, result, carried, moved):
        n, m, P, L, mpb_sets, hi = args
        check(state["D"], args, result, carried, moved)
        previous = state.get("previous")
        if carried is not None:
            kinds["warm"] += 1
        if previous is not None:
            P0, L0, unrouted = previous
            # Every price moved by one factor other than 1: a normalisation
            # or a rescale, which leaves the caps out of step with the flow.
            factors = {F(a * L0, L * b) for a, b in zip(P, P0)}
            if unrouted and len(factors) == 1 and factors != {1}:
                kinds["rescaled after an overpriced round"] += 1
            if not unrouted:
                kinds["after a routed round"] += 1
        state["previous"] = (P, L, bool(result[1]))

    watch_price_rounds(monkeypatch, checked)
    for inst, eps in price_loop_draws():
        state.update(D=integer_rows(inst), previous=None)
        assert verify_fisher_equilibrium(inst, approx_ceei(inst, eps)).holds
    return kinds


def test_carried_round_state_matches_a_fresh_round(monkeypatch):
    # Every round's MPB sets, carried from the last round, are those a full
    # rescan finds. A warm round's network, moved in place, has the caps and
    # flows of a fresh network with the same flow loaded, and its residual
    # cut is the one the Edmonds-Karp flow from zero leaves
    # (check_plain_round).
    def check(D, args, result, carried, moved):
        _, _, P, _, mpb_sets, _ = args
        assert list(mpb_sets) == _mpb_structure(D, P)
        check_plain_round(args, result, carried, moved)

    kinds = run_price_loops(monkeypatch, check)
    assert kinds["warm"] >= 1000
    assert kinds["rescaled after an overpriced round"] >= 1
    assert kinds["after a routed round"] >= 1


def test_carried_flow_fits_the_next_round(monkeypatch):
    # A carried flow holds nothing on an edge that left the MPB graph. Moved
    # into the next round, before its max_flow, it leaves no residual
    # negative and is conserved at every chore and agent: a feasible flow.
    def check(D, args, result, carried, moved):
        n, m, P, L, mpb_sets, hi = args
        if carried is None:
            return
        flows, _ = carried
        assert all(c in mpb_sets[i] for i, c in flows)
        assert_feasible(moved, n, m)

    assert run_price_loops(monkeypatch, check)["warm"] >= 1000


def preload_draws():
    """92 price-loop draws: the two underpaid ones, then values 1..20,
    values 1..3 and values 1..9 times 1 or 10^6, in turn (n 2..7, m n..14)."""
    rng = random.Random(36)
    draws = [UNDERPAID_ROWS, UNDERPAID_START_ROWS]
    for k in range(90):
        n = rng.randint(2, 7)
        m = rng.randint(n, 14)
        if k % 3 == 0:
            rows = [[rng.randint(1, 20) for _ in range(m)] for _ in range(n)]
        elif k % 3 == 1:
            rows = [[rng.randint(1, 3) for _ in range(m)] for _ in range(n)]
        else:
            rows = [[rng.randint(1, 9) * rng.choice((1, 10**6)) for _ in range(m)]
                    for _ in range(n)]
        draws.append(rows)
    return draws


def test_preload_changes_no_price_loop_output(monkeypatch):
    # A cap-only round reads only its cut and whether a chore is unrouted,
    # both the same after every maximum flow, so the greedy start changes
    # no price, unit or bounded routing: checked against the loop with
    # _preload as a no-op, at the default slack and at epsilon 0, on values
    # 1..20, on values 1..3, on values 1..9 times 1 or 10^6, and on the
    # underpaid draws.
    rounds = Counter()
    real = equilibrium._route_plain

    def counted(*args):
        rounds["cut only"] += 1
        return real(*args)

    monkeypatch.setattr(equilibrium, "_route_plain", counted)
    for rows in preload_draws():
        inst = Instance.from_rows(rows)
        for eps in (default_epsilon(inst.n, inst.m), 0):
            preloaded = equilibrium._price_loop(inst, eps)
            with monkeypatch.context() as patch:
                patch.setattr(equilibrium, "_preload", lambda network, pairs: None)
                assert equilibrium._price_loop(inst, eps) == preloaded
    assert rounds["cut only"] >= 1500


def test_reset_network_changes_no_price_loop_output(monkeypatch):
    # After a normalisation the MPB sets are unchanged, so the next round
    # resets the last network in place. Its caps and flows are those of a
    # fresh _plain_network on the same sets, and the loop that builds that
    # fresh network instead returns the same prices, unit and routing.
    real = equilibrium._reset_plain_network
    resets = Counter()

    def fresh(network, P, L, hi):
        _, supply, income, edges, _ = network
        n, m = len(income), len(supply)
        sets = [frozenset(c for agent, c in edges if agent == i) for i in range(n)]
        built = _plain_network(n, m, P, L, sets, hi)
        assert plain_state(real(network, P, L, hi)) == plain_state(built)
        resets["rounds"] += 1
        return built

    for rows in preload_draws():
        inst = Instance.from_rows(rows)
        for eps in (default_epsilon(inst.n, inst.m), 0):
            reset = equilibrium._price_loop(inst, eps)
            with monkeypatch.context() as patch:
                patch.setattr(equilibrium, "_reset_plain_network", fresh)
                assert equilibrium._price_loop(inst, eps) == reset
    assert resets["rounds"] >= 150


def least_chores(row, P, blocked):
    """The blocked chores of least ratio ``row[c] / P[c]``, in order."""
    best, price, near = row[blocked[0]], P[blocked[0]], [blocked[0]]
    for c in blocked[1:]:
        left, right = row[c] * price, best * P[c]
        if left < right:
            best, price, near = row[c], P[c], [c]
        elif left == right:
            near.append(c)
    return near


def full_scan_factor(D, P, mpb_sets, candidates, blocked):
    """The factor search over every (candidate, blocked) pair, each round
    from scratch: ``(lam, ties)`` as ``_least_factor`` returns them."""
    lam, ties = None, []
    for i in candidates if blocked else ():
        near, b = least_chores(D[i], P, blocked), min(mpb_sets[i])
        top, bottom = D[i][near[0]] * P[b], P[near[0]] * D[i][b]
        if lam is None or top * lam[1] < lam[0] * bottom:
            lam, ties = (top, bottom), [(i, c) for c in near]
        elif top * lam[1] == lam[0] * bottom:
            ties += ((i, c) for c in near)
    return lam, ties


def test_least_factor_matches_a_full_scan(monkeypatch):
    # A candidate of the last round keeps its least chores among that
    # round's blocked ones, since the rise multiplied all of them by one
    # factor, and scans only the newly blocked chores. Its factor and ties
    # are the full scan's in every round of the draws, at their slack and at
    # epsilon 0, also where a newly blocked chore ties with a kept one and
    # comes before it.
    real = equilibrium._least_factor
    scans = Counter()

    def checked(D, P, mpb_sets, candidates, blocked, memo):
        lam, ties, kept = real(D, P, mpb_sets, candidates, blocked, memo)
        assert (lam, ties) == full_scan_factor(D, P, mpb_sets, candidates, blocked)
        last, nearest = memo
        for i in candidates if blocked else ():
            still = [c for c in nearest.get(i, ()) if c in blocked]
            scans["short" if still else "full"] += 1
            near = least_chores(D[i], P, blocked)
            scans["merged"] += bool(still) and near[0] not in last and not last.isdisjoint(near)
        return lam, ties, kept

    monkeypatch.setattr(equilibrium, "_least_factor", checked)
    draws = [(Instance.from_rows(rows), None) for rows in preload_draws()]
    for inst, eps in draws + price_loop_draws():
        for slack in {eps or default_epsilon(inst.n, inst.m), 0}:
            equilibrium._price_loop(inst, slack)
    assert scans["short"] >= 2000 and scans["full"] >= 2000 and scans["merged"] >= 5


def two_pass_mpb_structure(D, P):
    """Each agent's MPB set by two passes: one for its best ratio, then one
    for the chores that tie with it."""
    m = len(P)
    sets = []
    for row in D:
        b = 0
        for c in range(1, m):
            if row[c] * P[b] < row[b] * P[c]:
                b = c
        sets.append(frozenset(c for c in range(m) if row[c] * P[b] == row[b] * P[c]))
    return sets


def test_one_pass_mpb_structure_matches_two_passes():
    # Values 1..3 tie often; values 1..9 times 1 or 10^6 spread the ratios.
    rng = random.Random(37)
    tied = 0
    for k in range(600):
        n, m = rng.randint(1, 6), rng.randint(1, 12)
        if k % 2:
            D = [[rng.randint(1, 3) for _ in range(m)] for _ in range(n)]
            P = [rng.randint(1, 3) for _ in range(m)]
        else:
            D = [[rng.randint(1, 9) * rng.choice((1, 10**6)) for _ in range(m)]
                 for _ in range(n)]
            P = [rng.randint(1, 9) * rng.choice((1, 10**6)) for _ in range(m)]
        sets = _mpb_structure(D, P)
        assert sets == two_pass_mpb_structure(D, P)
        tied += any(len(chores) > 1 for chores in sets)
    assert tied >= 150


def test_carrying_a_flow_that_does_not_fit_is_a_bug():
    # 2 agents x 2 chores, both prices 1 over L = 2, income caps 3/2: agent
    # 0 is paid chore 0 in full, and agent 1 chore 1.
    n, m, L, hi = 2, 2, 2, F(3, 2)
    P, sets = [2, 2], [frozenset({0}), frozenset({1})]

    def routed():
        network = _plain_network(n, m, P, L, sets, hi)
        network[0].max_flow(n + m, n + m + 1)
        return network

    # Agent 0 drops the edge that carries chore 0's payment.
    with pytest.raises(AlgorithmBugError,
                       match=r"^approx_ceei: dropped MPB edge \(0, 0\) carries flow"):
        _carry_plain_network(routed(), n, m, P, L, [(0, 0)], [], hi)
    # Chore 0's price halves under the payment it already routes.
    with pytest.raises(AlgorithmBugError, match="^approx_ceei: a carried flow exceeds"):
        _carry_plain_network(routed(), n, m, [1, 2], L, [], [], hi)
    # A rise that drops an edge the network never had, or joins one it has,
    # is a bug in the loop's bookkeeping, named as such.
    with pytest.raises(AlgorithmBugError,
                       match=r"^approx_ceei: dropped MPB edge \(0, 1\) is not in the network"):
        _carry_plain_network(routed(), n, m, P, L, [(0, 1)], [], hi)
    with pytest.raises(AlgorithmBugError,
                       match=r"^approx_ceei: joined MPB edge \(1, 1\) is already in the network"):
        _carry_plain_network(routed(), n, m, P, L, [], [(1, 1)], hi)
    # Agent 0 gains chore 1 instead: the flow fits, as in a fresh build.
    network = routed()
    carried, joined = carried_flow(network), [frozenset({0, 1}), sets[1]]
    moved = _carry_plain_network(network, n, m, P, L, [], [(0, 1)], hi)
    assert plain_state(moved) == plain_state(
        preloaded_plain_network(n, m, P, L, joined, hi, carried))
    # Agent 1 trades chore 1 for chore 0 with nothing routed: both edges move.
    network = _plain_network(n, m, P, L, sets, hi)
    carried, moved_sets = carried_flow(network), [sets[0], frozenset({0})]
    moved = _carry_plain_network(network, n, m, P, L, [(1, 1)], [(1, 0)], hi)
    assert plain_state(moved) == plain_state(
        preloaded_plain_network(n, m, P, L, moved_sets, hi, carried))


def unguarded_cancel_cycles(n, m, weights):
    """``_cancel_cycles`` without its union-find guard: a path search for
    every edge whose chore has a forest edge."""
    adj = [set() for _ in range(n + m)]
    for i, c in list(weights):
        path = equilibrium._forest_path(adj, i, n + c) if adj[n + c] else None
        if path is not None:
            cycle = [(u, v - n) if u < n else (v, u - n) for u, v in zip(path, path[1:])]
            cycle.append((i, c))
            k = min(range(len(cycle)), key=lambda j: weights[cycle[j]])
            shift = weights[cycle[k]]
            for j, (a, h) in enumerate(cycle):
                weights[(a, h)] += shift if (j - k) % 2 else -shift
                if not weights[(a, h)]:
                    del weights[(a, h)]
                    adj[a].discard(n + h)
                    adj[n + h].discard(a)
        if (i, c) in weights:
            adj[i].add(n + c)
            adj[n + c].add(i)
    return adj


class TestMakeAcyclic:
    def test_identity_on_forests(self):
        inst = Instance.from_rows([[1, 2], [2, 1]])
        out = exact_ceei(inst)
        again = make_acyclic(inst, out)
        assert again.x == out.x and again.prices == out.prices

    def test_cancels_half_half_square(self):
        inst = Instance.from_rows([[1, 1], [1, 1]])
        out = outcome([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]], [1, 1])
        acyclic = make_acyclic(inst, out)
        graph = payment_graph(acyclic.x, acyclic.prices)
        assert graph.is_acyclic()
        assert verify_fisher_equilibrium(inst, acyclic).holds
        assert acyclic.prices == out.prices
        # Pins the cancellation order: edge (1, 1) closes the cycle with the
        # forest path a1-c0-a0-c1; all four weights tie, so the first path
        # edge (1, 0) is cancelled, and (0, 1) with it.
        assert acyclic.x == FractionalAllocation.from_rows([[1, 0], [0, 1]])

    def test_edge_count_bound_and_support_shrinks(self):
        inst = Instance.from_rows([[1, 1, 1], [1, 1, 1]])
        x = [[F(2, 3), F(1, 2), F(1, 3)], [F(1, 3), F(1, 2), F(2, 3)]]
        out = outcome(x, [F(2, 3)] * 3, eps=0)
        assert verify_fisher_equilibrium(inst, out).holds
        before = set(payment_graph(out.x, out.prices).edge_dict())
        acyclic = make_acyclic(inst, out)
        after = payment_graph(acyclic.x, acyclic.prices)
        assert after.is_acyclic()
        assert set(after.edge_dict()) < before
        assert len(after.edge_dict()) <= 2 + 3 - 1

    def test_random_tie_heavy_outcomes_become_forests(self):
        rng = random.Random(2026)
        cyclic = 0
        for _ in range(150):
            n, m = rng.randint(2, 5), rng.randint(2, 8)
            inst = Instance.from_rows(
                [[rng.randint(1, 3) for _ in range(m)] for _ in range(n)])
            out = approx_ceei(inst, default_epsilon(n, m))
            before = payment_graph(out.x, out.prices)
            acyclic = make_acyclic(inst, out)
            after = payment_graph(acyclic.x, acyclic.prices)
            assert verify_fisher_equilibrium(inst, acyclic).holds
            assert after.is_acyclic()
            assert acyclic.prices == out.prices and acyclic.epsilon == out.epsilon
            assert set(after.edge_dict()) <= set(before.edge_dict())
            incomes = [[sum(w for (i, _), w in graph.edge_dict().items() if i == agent)
                        for agent in range(n)] for graph in (before, after)]
            assert incomes[0] == incomes[1]
            if before.is_acyclic():
                assert acyclic.x == out.x
            else:
                cyclic += 1
        assert cyclic >= 50

    def test_chores_without_forest_edges_need_no_path_search(self, monkeypatch):
        # One agent pays for 601 chores; none has a forest edge when its own
        # edge comes up, so none can close a cycle.
        calls = []
        real = equilibrium._forest_path
        monkeypatch.setattr(equilibrium, "_forest_path",
                            lambda *args: calls.append(args) or real(*args))
        weights = {(0, c): F(1 + c % 7) for c in range(601)}
        adj = equilibrium._cancel_cycles(1, 601, dict(weights))
        assert calls == []
        assert adj[0] == set(range(1, 602))

    def test_path_search_runs_only_within_a_union_find_set(self, monkeypatch):
        # The pipeline's earnings on gen --agents 50 --chores 200 --seed 7.
        # Without the union-find guard, 51 of the 76 path searches find the
        # ends apart. The guard skips 49 of them, each search it runs finds
        # the same path as before, and the cancellation ends with the same
        # earnings and forest.
        rng = random.Random(7)
        inst = Instance.from_rows([[rng.randint(1, 20) for _ in range(200)] for _ in range(50)])
        *_, flows = equilibrium._price_loop(inst, default_epsilon(50, 200))
        weights = {edge: flow for edge, flow in flows.items() if flow}
        real = equilibrium._forest_path

        def run(cancel):
            found = []
            monkeypatch.setattr(equilibrium, "_forest_path",
                                lambda *args: found.append(real(*args)) or found[-1])
            cancelled = dict(weights)
            return cancel(50, 200, cancelled), cancelled, found

        adj, left, unguarded = run(unguarded_cancel_cycles)
        guarded_adj, guarded_left, guarded = run(equilibrium._cancel_cycles)
        assert (guarded_adj, guarded_left) == (adj, left)
        assert (len(unguarded), unguarded.count(None)) == (76, 51)
        assert (len(guarded), guarded.count(None)) == (27, 2)
        assert [path for path in guarded if path] == [path for path in unguarded if path]

    def test_rejects_non_equilibrium(self):
        inst = Instance.from_rows([[1, 2], [2, 1]])
        with pytest.raises(InputError):
            make_acyclic(inst, outcome([[0, 1], [1, 0]], [1, 1]))

    def test_result_failing_verification_is_a_bug(self, monkeypatch):
        # Every chore's payment moved to agent 0 still clears, but agent 1
        # earns nothing, so the re-verification of the result fails.
        real = equilibrium.payment_graph

        def corrupted(x, prices):
            merged = {}
            for (_, c), amount in real(x, prices).edge_dict().items():
                merged[(0, c)] = merged.get((0, c), 0) + amount
            return PaymentGraph.from_edges(x.n, x.m, merged)

        monkeypatch.setattr(equilibrium, "payment_graph", corrupted)
        inst = Instance.from_rows([[1, 1], [1, 1]])
        with pytest.raises(AlgorithmBugError, match="cycle cancellation broke the equilibrium"):
            make_acyclic(inst, outcome([[F(1, 2)] * 2] * 2, [1, 1]))
