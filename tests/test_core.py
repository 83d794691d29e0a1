import itertools
import random
from fractions import Fraction

import pytest

from fairchores.core import (
    ChoreCopy,
    FractionalAllocation,
    Instance,
    PaymentGraph,
    PriceVector,
    bundle_disutility,
    bundle_payment,
    mpb,
    payment_graph,
    rat,
)
from fairchores.errors import InputError

F = Fraction


def test_rat_parsing():
    assert rat(3) == F(3)
    assert rat("2/3") == F(2, 3)
    assert rat("0.25") == F(1, 4)
    assert rat(F(7, 2)) == F(7, 2)
    with pytest.raises(InputError):
        rat("nonsense")
    with pytest.raises(InputError):
        rat("1/0")
    assert rat("1.5e3") == F(1500)
    assert rat("1e-990") == F(1, 10**990)
    for text in ("1e99999999", "1e-99999999", "1e999", "9" * 1001, "1/" + "7" * 1001, "1e_10"):
        with pytest.raises(InputError):
            rat(text)


def test_instance_validation():
    with pytest.raises(InputError):
        Instance.from_rows([[1, 2], [3]])
    with pytest.raises(InputError):
        Instance.from_rows([[1, -2]])
    with pytest.raises(InputError):
        Instance.from_rows([[1, True]])
    with pytest.raises(InputError):
        Instance(((F(1), 2),))
    with pytest.raises(InputError):
        Instance(((F(-1, 3),),))
    inst = Instance.from_rows([[1, 2], [3, 4]])
    assert (inst.n, inst.m) == (2, 2)


def per_entry_instance(rows):
    """The instance built the plain way: one ``rat`` call per entry."""
    return Instance(tuple(tuple(rat(v) for v in row) for row in rows))


def test_from_rows_matches_the_per_entry_build():
    # Rows of plain ints share one Fraction per distinct value; every other
    # row goes through rat. Both give the per-entry instance, on int rows,
    # mixed rows and 500-digit rows.
    rng = random.Random(8)
    big = [rng.randint(10**499, 10**500 - 1) for _ in range(3)]
    matrices = [
        [[rng.randint(0, 20) for _ in range(9)] for _ in range(4)],
        [[3, "2/3", F(5, 7), 0.25], [1, 1, 2, 3], ["7", 2, 2, F(4)]],
        [big, [str(v) for v in big], [f"1/{v}" for v in big]],
        [[v * k for v in big] for k in (1, 2, 3)],
    ]
    for rows in matrices:
        inst = Instance.from_rows(rows)
        assert inst == per_entry_instance(rows)
        assert all(type(v) is Fraction for row in inst.disutility for v in row)
    inst = Instance.from_rows([[1, 2, 2], [2, 1, 1]])
    assert len({id(v) for row in inst.disutility for v in row}) == 2
    # Bad entries raise what the per-entry build raises, word for word.
    for rows in ([[1, True]], [[False, 1]], [[1, -2]], [[-1, "1/2"]], [[1, "nonsense"]],
                 [[1, "1/0"]], [[1, 2.5, None]], [[1, 2], [3]]):
        with pytest.raises(InputError) as fast:
            Instance.from_rows(rows)
        with pytest.raises(InputError) as plain:
            per_entry_instance(rows)
        assert str(fast.value) == str(plain.value)


def test_bundle_disutility_examples():
    inst = Instance.from_rows([[1, 2]])
    assert bundle_disutility(inst, 0, {ChoreCopy(0), ChoreCopy(1)}) == 3
    assert bundle_disutility(inst, 0, set()) == 0
    triple = Instance.from_rows([[1, 1, 1]])
    with_copy = {ChoreCopy(0, 0), ChoreCopy(0, 1)}
    assert bundle_disutility(triple, 0, with_copy) == 2


def test_bundle_payment_examples():
    p = PriceVector.from_values([1, 1])
    assert bundle_payment(p, {ChoreCopy(0), ChoreCopy(1)}) == 2
    assert bundle_payment(p, set()) == 0
    p3 = PriceVector.from_values([3])
    assert bundle_payment(p3, {ChoreCopy(0, 0), ChoreCopy(0, 1)}) == 6


def test_mpb_examples():
    p = PriceVector.from_values([1, 1])
    assert mpb(Instance.from_rows([[1, 2]]), p, 0) == (1, frozenset({0}))
    assert mpb(Instance.from_rows([[2, 1]]), p, 0) == (1, frozenset({1}))
    # direct evaluation: agent 1 of [[1,2],[2,1]] at unit prices
    assert mpb(Instance.from_rows([[1, 2], [2, 1]]), p, 1) == (1, frozenset({1}))
    with pytest.raises(InputError):
        mpb(Instance.from_rows([[]]), PriceVector(()), 0)


def test_fractional_allocation_must_clear():
    with pytest.raises(InputError):
        FractionalAllocation.from_rows([[F(1, 2), 1], [F(1, 4), 0]])
    with pytest.raises(InputError):
        FractionalAllocation.from_rows([[2, -1]])
    ok = FractionalAllocation.from_rows([[F(1, 2), 1], [F(1, 2), 0]])
    assert ok.n == 2 and ok.m == 2


def test_prices_strictly_positive():
    with pytest.raises(InputError):
        PriceVector.from_values([1, 0])


def test_payment_graph_diagonal():
    x = FractionalAllocation.from_rows([[1, 0], [0, 1]])
    g = payment_graph(x, PriceVector.from_values([1, 1]))
    assert sorted(g.edge_dict()) == [(0, 0), (1, 1)]
    assert g.edge_dict() == {(0, 0): 1, (1, 1): 1}
    assert g.is_acyclic()


def test_payment_graph_four_cycle():
    x = FractionalAllocation.from_rows([[F(1, 2)] * 2] * 2)
    g = payment_graph(x, PriceVector.from_values([1, 1]))
    assert len(g.edge_dict()) == 4
    assert all(w == F(1, 2) for w in g.edge_dict().values())
    assert not g.is_acyclic()


def test_payment_graph_path():
    # a0 holds c0 and half of c1; a1 holds the other half and c2
    x = FractionalAllocation.from_rows([[1, F(1, 2), 0], [0, F(1, 2), 1]])
    p = PriceVector.from_values([F(2, 3)] * 3)
    g = payment_graph(x, p)
    assert sorted(g.edge_dict()) == [(0, 0), (0, 1), (1, 1), (1, 2)]
    assert g.is_acyclic()
    weights = g.edge_dict()
    assert weights[(0, 1)] == F(1, 3)
    assert weights[(0, 0)] + weights[(0, 1)] == 1 == weights[(1, 1)] + weights[(1, 2)]


def test_payment_graph_column_sums():
    rng = random.Random(11)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        cols = []
        for _ in range(m):
            cuts = sorted(rng.randint(0, 12) for _ in range(n - 1))
            weights = [F(b - a, 12) for a, b in zip([0] + cuts, cuts + [12])]
            cols.append(weights)
        x = FractionalAllocation.from_rows(
            [[cols[c][i] for c in range(m)] for i in range(n)])
        p = PriceVector.from_values([rng.randint(1, 9) for _ in range(m)])
        g = payment_graph(x, p)
        for c in range(m):
            assert sum(w for (_, h), w in g.edge_dict().items() if h == c) == p[c]


def _random_bipartite(rng, kind):
    """Edge weights of a random agent-chore graph of the given kind."""
    n, m = rng.randint(1, 5), rng.randint(0, 6)
    pairs = [(i, c) for i in range(n) for c in range(m)]
    rng.shuffle(pairs)
    if kind == "empty":
        pairs = []
    elif kind == "sparse":  # mostly isolated nodes
        pairs = pairs[:rng.randint(0, 2)]
    elif kind == "forest":
        root = list(range(n + m))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        kept = []
        for i, c in pairs:
            if find(i) != find(n + c) and rng.random() < 0.8:
                root[find(i)] = find(n + c)
                kept.append((i, c))
        pairs = kept
    else:  # dense: cyclic whenever some two agents share two chores
        pairs = [pair for pair in pairs if rng.random() < 0.7]
    return n, m, {pair: F(rng.randint(1, 9), rng.randint(1, 4)) for pair in pairs}


def test_forest_and_components_agree_with_networkx():
    import networkx as nx  # test oracle only; the package itself never imports it

    rng = random.Random(6)
    cyclic = 0
    for index in range(300):
        kind = ("empty", "sparse", "forest", "dense")[index % 4]
        n, m, weights = _random_bipartite(rng, kind)
        g = PaymentGraph.from_edges(n, m, weights)
        oracle = g.to_networkx()
        assert g.is_acyclic() == nx.is_forest(oracle)
        if kind == "forest":
            assert g.is_acyclic()
        cyclic += not g.is_acyclic()
    assert cyclic >= 30


def test_additivity_over_disjoint_unions():
    rng = random.Random(5)
    inst = Instance.from_rows([[rng.randint(0, 9) for _ in range(6)] for _ in range(3)])
    p = PriceVector.from_values([rng.randint(1, 9) for _ in range(6)])
    for _ in range(50):
        units = [ChoreCopy(rng.randrange(6), rng.randrange(3)) for _ in range(5)]
        pool = set(units)
        left = {u for u in pool if rng.random() < 0.5}
        right = pool - left
        agent = rng.randrange(3)
        assert (bundle_disutility(inst, agent, pool)
                == bundle_disutility(inst, agent, left) + bundle_disutility(inst, agent, right))
        assert bundle_payment(p, pool) == bundle_payment(p, left) + bundle_payment(p, right)


def test_surplus_allocation_invariants():
    from fairchores.core import SurplusAllocation

    good = SurplusAllocation((frozenset({ChoreCopy(0, 0)}),
                              frozenset({ChoreCopy(0, 1), ChoreCopy(1, 0)})), 2)
    assert good.surplus_count == 1
    with pytest.raises(InputError):  # chore 1 never allocated
        SurplusAllocation((frozenset({ChoreCopy(0, 0)}), frozenset()), 2)
    with pytest.raises(InputError):  # same unit twice
        SurplusAllocation((frozenset({ChoreCopy(0, 0)}),
                           frozenset({ChoreCopy(0, 0)})), 1)


def first_fault(bundles, num_chores):
    """The text of the first fault a per-unit scan in bundle order finds, or
    None: the validation ``SurplusAllocation`` ran before it decided validity
    by set operations, kept as the oracle for its messages."""
    seen, covered = set(), set()
    for bundle in bundles:
        for unit in bundle:
            if unit in seen:
                return f"chore copy {unit} appears in two bundles"
            seen.add(unit)
            if not 0 <= unit.chore < num_chores:
                return f"chore id {unit.chore} out of range"
            if unit.copy < 0:
                return f"chore copy {unit} has a negative copy index"
            covered.add(unit.chore)
    if len(covered) != num_chores:
        first = min(set(range(len(covered) + 1)) - covered)
        return f"chores never allocated, the first is chore {first}"
    return None


def assert_validates_like_the_scan(bundles, num_chores):
    from fairchores.core import SurplusAllocation

    expected = first_fault(bundles, num_chores)
    if expected is None:
        assert SurplusAllocation(bundles, num_chores).bundles == bundles
    else:
        with pytest.raises(InputError) as caught:
            SurplusAllocation(bundles, num_chores)
        assert str(caught.value) == expected
    return expected


def test_surplus_allocation_faults_are_named_as_by_the_unit_scan():
    U = ChoreCopy
    cases = [
        ((), 0),
        ((frozenset(),), 0),
        ((frozenset(), frozenset(), frozenset()), 0),
        ((frozenset(), frozenset()), 2),
        ((frozenset({U(0)}), frozenset({U(0)})), 1),  # one unit in two bundles
        ((frozenset({U(0), U(1)}), frozenset({U(-1)})), 2),
        ((frozenset({U(0), U(1)}), frozenset({U(2)})), 2),
        ((frozenset({U(0), U(0, -1)}),), 1),
        ((frozenset({U(0), U(2)}),), 3),  # chore 1 missing
        ((frozenset({U(1), U(2)}),), 3),  # chore 0 missing
        ((frozenset({U(0, 1)}), frozenset({U(0, 2)})), 1),
        ((frozenset({U(1, 1)}),), 1),  # only a copy of an unknown chore
        ((frozenset({U(0), U(0, 1)}), frozenset({U(0, 1), U(-1)})), 1),
        ((frozenset({U(-1)}), frozenset({U(0), U(0, 1)}), frozenset({U(0, 1)})), 1),
        ((frozenset({U(0, -2), U(3)}), frozenset({U(1), U(1)})), 3),
        ((frozenset({U(5)}), frozenset({U(0, -1)})), 0),
        ((frozenset({U(0, -1)}), frozenset({U(5)})), 0),
    ]
    for bundles, num_chores in cases:
        assert_validates_like_the_scan(bundles, num_chores)
    # Several faults at once, with the bundles in every order.
    faulty = (frozenset({U(0), U(1)}), frozenset({U(0)}), frozenset({U(2, -1)}),
              frozenset({U(-1)}), frozenset({U(5)}), frozenset())
    messages = {assert_validates_like_the_scan(order, 3)
                for order in itertools.permutations(faulty)}
    assert len(messages) == 4 and f"chore copy {U(0)} appears in two bundles" in messages


def test_surplus_allocation_validates_random_bundles_like_the_unit_scan():
    rng = random.Random(39)
    valid = faults = 0
    for _ in range(3000):
        n = rng.randint(1, 4)
        m = rng.randint(0, 8)
        bundles = [set() for _ in range(n)]
        for c in range(m):
            if rng.random() > 0.05:  # now and then a chore goes missing
                bundles[rng.randrange(n)].add(ChoreCopy(c))
        for copy in range(1, rng.randint(1, n + 1)):
            if m:
                bundles[rng.randrange(n)].add(ChoreCopy(rng.randrange(m), copy))
        for _ in range(rng.choice((0, 0, 0, 1, 2, 3))):
            kind = rng.randrange(4)
            target = bundles[rng.randrange(n)]
            if kind == 0 and any(bundles):  # a unit that another bundle holds
                target.add(rng.choice([u for b in bundles for u in b]))
            elif kind == 1:
                target.add(ChoreCopy(rng.choice((-1, m, m + 3))))
            elif kind == 2:
                target.add(ChoreCopy(rng.randrange(max(m, 1)), -rng.randint(1, 2)))
            elif kind == 3 and target:
                target.discard(rng.choice(sorted(target)))
        if assert_validates_like_the_scan(tuple(map(frozenset, bundles)), m) is None:
            valid += 1
        else:
            faults += 1
    assert valid >= 1000 and faults >= 1000, (valid, faults)
