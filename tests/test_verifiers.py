import hashlib
import json
import random
from fractions import Fraction

import pytest

from fairchores.core import (
    ZERO,
    ChoreCopy,
    FractionalAllocation,
    Instance,
    MarketOutcome,
    PriceVector,
    SurplusAllocation,
    bundle_disutility,
    bundle_payment,
    mpb,
)
from fairchores.equilibrium import (
    approx_ceei,
    verify_fisher_equilibrium,
)
from fairchores.errors import InputError, InstanceTooLargeError
from fairchores.serialize import fmt_rat
from fairchores.simplex import solve_lp
from fairchores.three_agent import perturb_nondegenerate
from fairchores.verifiers import (
    check_ef1,
    check_efx,
    check_fisher_integral,
    check_fpo,
    check_nondegenerate,
    check_pef1,
    check_po_brute,
    check_proportional,
    check_tefx,
    implication_suite,
)
from fairchores.verifiers import EF1, EFX, FISHER_EQ, PEF1, PROPORTIONAL, TEFX, Certificate

F = Fraction


def alloc_of(m, *bundles):
    return SurplusAllocation(tuple(frozenset(map(ChoreCopy, b)) for b in bundles), m)


def random_partition(rng, n, m):
    bundles = [set() for _ in range(n)]
    for c in range(m):
        bundles[rng.randrange(n)].add(c)
    return alloc_of(m, *bundles)


class TestEnvyChecks:
    def test_ef1_single_agent(self):
        inst = Instance.from_rows([[5, 7]])
        assert check_ef1(inst, alloc_of(2, {0, 1})).holds

    def test_ef1_removal_rescues(self):
        inst = Instance.from_rows([[3, 1], [1, 3]])
        assert check_ef1(inst, alloc_of(2, {0}, {1})).holds

    def test_ef1_everything_on_one_agent(self):
        inst = Instance.from_rows([[1, 1, 1], [1, 1, 1]])
        certificate = check_ef1(inst, alloc_of(3, {0, 1, 2}, set()))
        assert not certificate.holds
        w = certificate.witness
        assert (w["agent"], w["envied"]) == (0, 1)
        # the witness numbers reproduce the violated inequality
        assert F(w["best_removal"]) > F(w["other"])

    def test_tefx_examples(self):
        singles = Instance.from_rows([[1, 2, 3]] * 3)
        assert check_tefx(singles, alloc_of(3, {0}, {1}, {2})).holds
        ones = Instance.from_rows([[1, 1, 1]] * 3)
        assert not check_tefx(ones, alloc_of(3, {0, 1, 2}, set(), set())).holds

    def test_efx_implies_tefx_spot(self):
        rng = random.Random(3)
        for _ in range(50):
            n, m = rng.randint(2, 4), rng.randint(2, 6)
            inst = Instance.from_rows(
                [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)])
            alloc = random_partition(rng, n, m)
            if check_efx(inst, alloc).holds:
                assert check_tefx(inst, alloc).holds

    def test_proportional(self):
        even = Instance.from_rows([[1, 1], [1, 1]])
        assert check_proportional(even, alloc_of(2, {0}, {1})).holds
        lump = check_proportional(even, alloc_of(2, {0, 1}, set()))
        assert not lump.holds and lump.witness["agent"] == 0

    def test_pef1(self):
        p = PriceVector.from_values([1, 1])
        empty = SurplusAllocation((frozenset(), frozenset()), 0)
        assert check_pef1(PriceVector(()), empty).holds
        assert not check_pef1(p, alloc_of(2, {0, 1}, set())).holds
        assert check_pef1(p, alloc_of(2, {0}, {1})).holds


# The envy and share checks in Fractions, one bundle sum at a time: the
# oracle that the integer scan in ``verifiers`` must agree with.
def _fmt(value: Fraction) -> str:
    return str(fmt_rat(value))


def fraction_ef1(inst: Instance, alloc: SurplusAllocation) -> Certificate:
    """Envy-freeness up to removing one chore from the envious bundle."""
    for i in range(alloc.n):
        mine = alloc.bundles[i]
        total = bundle_disutility(inst, i, mine)
        drop = max((inst.d(i, u.chore) for u in mine), default=ZERO)
        for j in range(alloc.n):
            if i == j:
                continue
            other = bundle_disutility(inst, i, alloc.bundles[j])
            if total - drop > other:
                return Certificate(EF1, False, {
                    "agent": i, "envied": j,
                    "own": _fmt(total), "best_removal": _fmt(total - drop),
                    "other": _fmt(other)})
    return Certificate(EF1, True)


def fraction_efx(inst: Instance, alloc: SurplusAllocation) -> Certificate:
    """Envy-freeness up to removing any chore from the envious bundle."""
    for i in range(alloc.n):
        mine = alloc.bundles[i]
        if not mine:
            continue
        total = bundle_disutility(inst, i, mine)
        softest = min(mine, key=lambda u: (inst.d(i, u.chore), u))
        drop = inst.d(i, softest.chore)
        for j in range(alloc.n):
            if i == j:
                continue
            other = bundle_disutility(inst, i, alloc.bundles[j])
            if total - drop > other:
                return Certificate(EFX, False, {
                    "agent": i, "envied": j,
                    "chore": softest.chore, "copy": softest.copy,
                    "after_removal": _fmt(total - drop), "other": _fmt(other)})
    return Certificate(EFX, True)


def fraction_tefx(inst: Instance, alloc: SurplusAllocation) -> Certificate:
    """No strong envy: transferring any single chore kills the envy."""
    for i in range(alloc.n):
        mine = alloc.bundles[i]
        if not mine:
            continue
        total = bundle_disutility(inst, i, mine)
        softest = min(mine, key=lambda u: (inst.d(i, u.chore), u))
        drop = inst.d(i, softest.chore)
        for j in range(alloc.n):
            if i == j:
                continue
            other = bundle_disutility(inst, i, alloc.bundles[j])
            if total - drop > other + drop:
                return Certificate(TEFX, False, {
                    "agent": i, "envied": j,
                    "chore": softest.chore, "copy": softest.copy,
                    "after_transfer": _fmt(total - drop),
                    "other_with_chore": _fmt(other + drop)})
    return Certificate(TEFX, True)


def fraction_proportional(inst: Instance, alloc: SurplusAllocation) -> Certificate:
    """Every bundle costs its holder at most a 1/n share of all original chores."""
    for i in range(alloc.n):
        own = bundle_disutility(inst, i, alloc.bundles[i])
        share = sum(inst.disutility[i], ZERO) / alloc.n
        if own > share:
            return Certificate(PROPORTIONAL, False, {
                "agent": i, "own": _fmt(own), "share": _fmt(share)})
    return Certificate(PROPORTIONAL, True)


def fraction_pef1(prices: PriceVector, alloc: SurplusAllocation) -> Certificate:
    """Payment envy-freeness up to one chore."""
    paid = [bundle_payment(prices, bundle) for bundle in alloc.bundles]
    for i, mine in enumerate(alloc.bundles):
        if not mine:
            continue
        kept = paid[i] - max(prices[u.chore] for u in mine)
        for j, other in enumerate(paid):
            if i != j and kept > other:
                return Certificate(PEF1, False, {
                    "agent": i, "envied": j,
                    "own_after_removal": _fmt(kept), "other": _fmt(other)})
    return Certificate(PEF1, True)


def random_value(rng, kind, positive=False):
    """Zeros and small integers, small fractions, or a small numerator over a
    9-digit or a 500-digit denominator."""
    low = 1 if positive else 0
    if kind == 0:
        return F(rng.randint(low, 9))
    if kind == 1:
        return F(rng.randint(low, 9), rng.randint(1, 4))
    digits = 9 if kind == 2 else 500
    return F(rng.randint(low, 999), rng.randint(10 ** (digits - 1), 10 ** digits - 1))


def random_surplus_allocation(rng, n, m):
    """Originals dealt at random, sometimes all to one agent, plus up to three
    copies of random chores; empty bundles are common."""
    lump = rng.random() < 0.2
    bundles = [set() for _ in range(n)]
    for c in range(m):
        bundles[0 if lump else rng.randrange(n)].add(ChoreCopy(c))
    for copy in range(1, rng.randint(1, 4) if m else 1):
        bundles[rng.randrange(n)].add(ChoreCopy(rng.randrange(m), copy))
    return SurplusAllocation(tuple(frozenset(b) for b in bundles), m)


def test_envy_scan_agrees_with_fraction_oracle():
    rng = random.Random(2020)
    seen = {name: set() for name in ("ef1", "efx", "tefx", "prop", "pef1")}
    for trial in range(4000):
        # One in twenty draws reads 500-digit denominators, where the oracle
        # is slow; the rest cycle through the three other kinds of entry.
        kind = 3 if trial % 20 == 19 else trial % 3
        n, m = rng.randint(1, 5), rng.randint(0, 9)
        inst = Instance(tuple(tuple(random_value(rng, kind) for _ in range(m))
                              for _ in range(n)))
        prices = PriceVector(tuple(random_value(rng, kind, positive=True) for _ in range(m)))
        alloc = random_surplus_allocation(rng, n, m)
        pairs = {
            "ef1": (check_ef1(inst, alloc), fraction_ef1(inst, alloc)),
            "efx": (check_efx(inst, alloc), fraction_efx(inst, alloc)),
            "tefx": (check_tefx(inst, alloc), fraction_tefx(inst, alloc)),
            "prop": (check_proportional(inst, alloc), fraction_proportional(inst, alloc)),
            "pef1": (check_pef1(prices, alloc), fraction_pef1(prices, alloc)),
        }
        for name, (certificate, oracle) in pairs.items():
            assert certificate.to_dict() == oracle.to_dict(), (name, inst, alloc, prices)
            seen[name].add(certificate.holds)
    assert all(verdicts == {True, False} for verdicts in seen.values()), seen


class TestParetoChecks:
    def test_po_single_agent(self):
        inst = Instance.from_rows([[2, 3]])
        assert check_po_brute(inst, alloc_of(2, {0, 1})).holds

    def test_po_antidiagonal_dominated(self):
        inst = Instance.from_rows([[1, 2], [2, 1]])
        certificate = check_po_brute(inst, alloc_of(2, {1}, {0}))
        assert not certificate.holds
        dominating = certificate.witness["dominating"]
        assert dominating[0] == [{"chore": 0, "copy": 0}]
        assert dominating[1] == [{"chore": 1, "copy": 0}]

    def test_po_diagonal_optimal(self):
        inst = Instance.from_rows([[1, 2], [2, 1]])
        assert check_po_brute(inst, alloc_of(2, {0}, {1})).holds

    def test_po_limit(self):
        inst = Instance.from_rows([[1] * 10] * 4)
        with pytest.raises(InstanceTooLargeError):
            check_po_brute(inst, alloc_of(10, set(range(10)), set(), set(), set()))

    def test_fpo_lp_variable_cap(self):
        # One agent, so the linear program has one variable per chore.
        assert check_fpo(Instance.from_rows([[1] * 600]), alloc_of(600, set(range(600)))).holds
        with pytest.raises(InstanceTooLargeError):
            check_fpo(Instance.from_rows([[1] * 601]), alloc_of(601, set(range(601))))

    def test_fpo_detects_domination(self):
        inst = Instance.from_rows([[1, 2], [2, 1]])
        certificate = check_fpo(inst, alloc_of(2, {1}, {0}))
        assert not certificate.holds
        assert certificate.witness["improving_agent"] == 0

    def test_fpo_single_agent(self):
        inst = Instance.from_rows([[4, 5, 6]])
        assert check_fpo(inst, alloc_of(3, {0, 1, 2})).holds

    def test_fpo_agrees_with_brute_force(self):
        rng = random.Random(23)
        agreements = 0
        for _ in range(40):
            n, m = rng.randint(2, 3), rng.randint(2, 5)
            inst = Instance.from_rows(
                [[rng.randint(1, 9) for _ in range(m)] for _ in range(n)])
            alloc = random_partition(rng, n, m)
            fpo = check_fpo(inst, alloc)
            po = check_po_brute(inst, alloc)
            if fpo.holds:
                assert po.holds  # fractional optimality is the stronger notion
                agreements += 1
        assert agreements > 0

    @staticmethod
    def assert_witness_revalidates(inst, alloc, certificate):
        assert not certificate.holds
        w = certificate.witness
        items = [ChoreCopy(e["chore"], e["copy"]) for e in w["items"]]
        assert items == alloc.items()
        y = [[F(v) for v in row] for row in w["dominating"]]
        # clears every item, worsens nobody and strictly improves the named agent
        assert all(v >= 0 for row in y for v in row)
        for t in range(len(items)):
            assert sum(y[i][t] for i in range(inst.n)) == 1
        loads = [sum(y[i][t] * inst.d(i, items[t].chore) for t in range(len(items)))
                 for i in range(inst.n)]
        for i in range(inst.n):
            assert loads[i] <= bundle_disutility(inst, i, alloc.bundles[i])
        j = w["improving_agent"]
        assert F(w["current"]) == bundle_disutility(inst, j, alloc.bundles[j])
        assert loads[j] == F(w["objective"]) < F(w["current"])

    def test_fpo_witness_revalidates(self):
        inst = Instance.from_rows([[1, 3], [3, 1]])
        alloc = alloc_of(2, {1}, {0})
        self.assert_witness_revalidates(inst, alloc, check_fpo(inst, alloc))
        # Random allocations with copies, rational entries and zero entries.
        rng = random.Random(31)
        dominated = zeros = copies = 0
        while dominated < 300:
            n = rng.randint(2, 4)
            m = rng.randint(n, 8)
            inst = Instance.from_rows(
                [[F(0) if rng.random() < 0.1 else F(rng.randint(1, 20), rng.choice((1, 2, 3, 7)))
                  for _ in range(m)] for _ in range(n)])
            alloc = random_surplus_allocation(rng, n, m)
            certificate = check_fpo(inst, alloc)
            if not certificate.holds:
                self.assert_witness_revalidates(inst, alloc, certificate)
                dominated += 1
                zeros += inst.has_zero_entry()
                copies += len(alloc.items()) > m
        assert zeros >= 50 and copies >= 150, (zeros, copies)

    def test_fpo_certificate_is_pinned(self):
        # The whole certificate, witness included, as the Fraction tableau
        # gave it: a change of pivot path shows up as a different matrix.
        inst = Instance.from_rows([[2, 4, 5], [3, F(7, 2), 1], [1, F(1, 2), F(2, 3)]])
        alloc = SurplusAllocation((frozenset({ChoreCopy(1, 0), ChoreCopy(2, 1)}),
                                   frozenset({ChoreCopy(2, 0)}),
                                   frozenset({ChoreCopy(0, 0)})), 3)
        assert check_fpo(inst, alloc).to_dict() == {
            "property": "fPO", "holds": False, "witness": {
                "improving_agent": 0, "objective": "13/4", "current": "9",
                "items": [{"chore": 0, "copy": 0}, {"chore": 1, "copy": 0},
                          {"chore": 2, "copy": 0}, {"chore": 2, "copy": 1}],
                "dominating": [["1", "0", "0", "1/4"], ["0", "0", "1/4", "3/4"],
                               ["0", "1", "3/4", "0"]]}}

    def test_fpo_certificates_match_the_pinned_digest(self):
        # sha256 over 300 certificates, one JSON line each, as a tableau over
        # one common denominator, with the total disutility in rationals,
        # gave them: a change to any witness field (``dominating``,
        # ``objective``, ``current``, ``improving_agent``) shows here.
        rng = random.Random(38)
        texts = []
        for _ in range(300):
            n = rng.randint(2, 4)
            m = rng.randint(n, 8)
            inst = Instance.from_rows(
                [[F(0) if rng.random() < 0.1 else F(rng.randint(1, 20), rng.choice((1, 2, 3, 7)))
                  for _ in range(m)] for _ in range(n)])
            bundles = [set() for _ in range(n)]
            for c in range(m):
                bundles[rng.randrange(n)].add(ChoreCopy(c))
            for copy in range(1, rng.randint(1, n)):  # up to n-1 copies
                bundles[rng.randrange(n)].add(ChoreCopy(rng.randrange(m), copy))
            alloc = SurplusAllocation(tuple(frozenset(b) for b in bundles), m)
            texts.append(json.dumps(check_fpo(inst, alloc).to_dict()))
        assert sum('"holds": false' in text for text in texts) == 270
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        assert digest == "6df83a5d60ee6e8103845718107b0e378272c591a68dbe2b8eba7773554454b6"

    @staticmethod
    def improvable_agents(inst, alloc):
        """Per-agent definition: min d_j(y_j) s.t. clearing and caps, for each j."""
        items = alloc.items()
        n, k = inst.n, len(items)
        caps = [bundle_disutility(inst, i, alloc.bundles[i]) for i in range(n)]
        a_eq = [[F(int(v % k == t)) for v in range(n * k)] for t in range(k)]
        a_ub = [[inst.d(i, items[v % k].chore) if v // k == i else F(0)
                 for v in range(n * k)] for i in range(n)]
        # Start at the allocation itself: each unit's owner basic in its row.
        start = [next(i for i in range(n) if unit in alloc.bundles[i]) * k + t
                 for t, unit in enumerate(items)]
        return [j for j in range(n)
                if solve_lp(a_ub[j], a_eq, [1] * k, a_ub, caps, start).objective < caps[j]]

    def test_fpo_agrees_with_per_agent_programs(self):
        rng = random.Random(29)
        cases = []
        for _ in range(60):
            n, m = rng.randint(2, 3), rng.randint(2, 5)
            inst = Instance.from_rows(
                [[rng.randint(1, 9) for _ in range(m)] for _ in range(n)])
            cases.append((inst, random_partition(rng, n, m)))
        # Agent 0 holds nothing and cannot improve; agents 1 and 2 gain by swapping.
        cases.append((Instance.from_rows([[5, 5], [1, 2], [2, 1]]),
                      alloc_of(2, set(), {1}, {0})))
        dominated = 0
        for inst, alloc in cases:
            improvable = self.improvable_agents(inst, alloc)
            certificate = check_fpo(inst, alloc)
            assert certificate.holds == (not improvable)
            if improvable:
                dominated += 1
                assert certificate.witness["improving_agent"] in improvable
        assert 0 < dominated < len(cases)
        # The last case: the witness skips agent 0, which cannot improve.
        assert improvable == [1, 2]
        assert certificate.witness["improving_agent"] == 1


def test_envy_family_certificates_match_the_pinned_digest():
    # sha256 over 400 draws' certificates from the six checks that scan
    # bundles unit by unit, one JSON line each, as checks that read every
    # unit's cost through its ChoreCopy gave them. Copies of one chore tie on
    # cost, so the witness's "chore" and "copy" pin the (cost, unit) order.
    rng = random.Random(39)
    checks = {
        EF1: lambda inst, alloc, prices: check_ef1(inst, alloc),
        EFX: lambda inst, alloc, prices: check_efx(inst, alloc),
        TEFX: lambda inst, alloc, prices: check_tefx(inst, alloc),
        PEF1: lambda inst, alloc, prices: check_pef1(prices, alloc),
        PROPORTIONAL: lambda inst, alloc, prices: check_proportional(inst, alloc),
        FISHER_EQ: check_fisher_integral,
    }
    texts = []
    failed = dict.fromkeys(checks, 0)
    for index in range(400):
        n, m = rng.randint(2, 4), rng.randint(1, 8)
        zeros = index % 4 == 1

        def row():
            return [F(0) if zeros and rng.random() < 0.3
                    else F(rng.randint(1, 12), rng.choice((1, 1, 2, 3))) for _ in range(m)]

        rows = [row()] * n if index % 5 == 4 else [row() for _ in range(n)]
        inst = Instance.from_rows(rows)
        if index % 3:  # chores dealt at random, else round robin by agent 0's costs
            owner = [rng.randrange(n) for _ in range(m)]
        else:
            owner = [0] * m
            for turn, c in enumerate(sorted(range(m), key=rows[0].__getitem__)):
                owner[c] = turn % n
        bundles = [set() for _ in range(n)]
        for c in range(m):
            bundles[owner[c]].add(ChoreCopy(c))
        tied = rng.randrange(m)  # copies of one chore, often beside the original
        for copy in range(1, rng.randint(1, n)):
            holder = owner[tied] if rng.random() < 0.6 else rng.randrange(n)
            bundles[holder].add(ChoreCopy(tied, copy))
        alloc = SurplusAllocation(tuple(frozenset(b) for b in bundles), m)
        if index % 2:  # each chore priced at its holder's cost, else at random
            prices = PriceVector(tuple(rows[owner[c]][c] or F(1) for c in range(m)))
        else:
            prices = PriceVector(tuple(F(rng.randint(1, 9), rng.choice((1, 2)))
                                       for _ in range(m)))
        for name, check in checks.items():
            certificate = check(inst, alloc, prices)
            failed[name] += not certificate.holds
            texts.append(json.dumps(certificate.to_dict()))
    # Every property fails often, which covers its witness, and holds now and then.
    assert all(200 <= count <= 380 for count in failed.values()), failed
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "bed8f2d5583c821ad68c3667cab0882cfcaa12bf690a288e7c5f7f03968074d7"


class TestNonDegenerate:
    def test_binary_weights(self):
        assert check_nondegenerate(Instance.from_rows([[1, 2, 4]])).holds

    def test_tied_pair(self):
        certificate = check_nondegenerate(Instance.from_rows([[1, 1]]))
        assert not certificate.holds
        w = certificate.witness
        assert w["subset_a"] != w["subset_b"]

    def test_witness_revalidates(self):
        inst = Instance.from_rows([[2, 3, 5]])
        certificate = check_nondegenerate(inst)
        assert not certificate.holds
        w = certificate.witness
        sum_a = sum(inst.d(w["agent"], c) for c in w["subset_a"])
        sum_b = sum(inst.d(w["agent"], c) for c in w["subset_b"])
        assert sum_a == sum_b == F(w["sum"])

    def test_perturbed_instances_pass(self):
        rng = random.Random(9)
        for _ in range(10):
            n, m = rng.randint(1, 3), rng.randint(1, 8)
            inst = Instance.from_rows(
                [[rng.randint(0, 6) for _ in range(m)] for _ in range(n)])
            pert, _ = perturb_nondegenerate(inst)
            assert check_nondegenerate(pert).holds

    def test_limit(self):
        wide = Instance.from_rows([[1] * 13])
        with pytest.raises(InstanceTooLargeError):
            check_nondegenerate(wide)


class TestFisherIntegral:
    def test_best_ratio_bundles_pass(self):
        inst = Instance.from_rows([[1, 2], [2, 1]])
        p = PriceVector.from_values([1, 1])
        assert check_fisher_integral(inst, alloc_of(2, {0}, {1}), p).holds
        bad = check_fisher_integral(inst, alloc_of(2, {1}, {0}), p)
        assert not bad.holds and bad.witness["agent"] == 0

    @pytest.mark.parametrize("prices", [[1, 1, 5], [1]])
    def test_one_price_per_chore(self, prices):
        # The best-ratio sets and the payment scan range over the price
        # vector's chores, so a vector of another length is bad input, not a
        # verdict, for the Fisher check and for pEF1 alike.
        inst = Instance.from_rows([[1, 1], [1, 1]])
        alloc, vector = alloc_of(2, {0}, {1}), PriceVector.from_values(prices)
        message = f"^{len(prices)} prices for 2 chores$"
        with pytest.raises(InputError, match=message):
            check_fisher_integral(inst, alloc, vector)
        with pytest.raises(InputError, match=message):
            check_pef1(vector, alloc)


# Every exported check of an allocation against an instance, and whether it
# also takes prices.
SHAPED_CHECKS = {
    "ef1": (check_ef1, False), "efx": (check_efx, False), "tefx": (check_tefx, False),
    "prop": (check_proportional, False), "po": (check_po_brute, False),
    "fpo": (check_fpo, False), "fisher": (check_fisher_integral, True),
    "implications": (implication_suite, True),
}


@pytest.mark.parametrize("bundles, m", [
    (({0}, {1}), 2),  # one bundle too few
    (({0}, {1}, set(), set()), 2),  # one bundle too many
    (({0}, {1}, {2}), 3),  # a chore past the instance's last
], ids=["too_few", "too_many", "chore_past_m"])
@pytest.mark.parametrize("name", sorted(SHAPED_CHECKS))
def test_allocation_of_another_shape_is_bad_input(name, bundles, m):
    check, takes_prices = SHAPED_CHECKS[name]
    inst = Instance.from_rows([[1, 2], [2, 1], [9, 9]])
    prices = (PriceVector.from_values([1, 1]),) if takes_prices else ()
    with pytest.raises(InputError, match=(
            rf"^allocation has {len(bundles)} bundles over {m} chores, "
            r"instance has 3 agents and 2 chores$")):
        check(inst, alloc_of(m, *bundles), *prices)


def fraction_fisher_report(inst, out):
    """The equilibrium check with every ratio divided out in Fractions."""
    for i in range(inst.n):
        income = out.income(i)
        if not 1 - out.epsilon <= income <= 1 + out.epsilon:
            return Certificate(FISHER_EQ, False, {
                "condition": "incomes", "agent": i, "income": _fmt(income)})
    for i in range(inst.n):
        best, _ = mpb(inst, out.prices, i)
        for c in range(inst.m):
            if out.x.x[i][c] > 0 and inst.d(i, c) / out.prices[c] != best:
                return Certificate(FISHER_EQ, False, {
                    "condition": "min-pain-per-buck", "agent": i, "chore": c})
    return Certificate(FISHER_EQ, True)


def fraction_fisher_integral(inst, alloc, prices):
    """``check_fisher_integral`` with every ratio divided out in Fractions."""
    for i in range(alloc.n):
        if not alloc.bundles[i]:
            continue
        best, _ = mpb(inst, prices, i)
        for unit in sorted(alloc.bundles[i]):
            if inst.d(i, unit.chore) / prices[unit.chore] != best:
                return Certificate(FISHER_EQ, False, {
                    "condition": "min-pain-per-buck", "agent": i,
                    "chore": unit.chore, "copy": unit.copy})
    return Certificate(FISHER_EQ, True)


def random_outcomes(rng):
    """Outcomes that pass, and ones that fail each condition, on instances
    with and without zero disutilities."""
    for trial in range(400):
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        zeros = trial % 2
        rows = [[F(rng.randint(0 if zeros else 1, 9), rng.randint(1, 3)) for _ in range(m)]
                for _ in range(n)]
        inst = Instance.from_rows(rows)
        if trial % 4 == 1 and not inst.has_zero_entry():
            eq = approx_ceei(inst, F(1, rng.randint(2, 30)))
            x, prices, eps = [list(r) for r in eq.x.x], list(eq.prices), eq.epsilon
        elif rng.random() < 0.5:
            # Random earnings on every chore and every agent, each agent's
            # scaled to sum to 1: incomes of exactly 1, best ratio or not.
            earned = [[ZERO] * m for _ in range(n)]
            for c in range(m):
                earned[rng.randrange(n)][c] = F(rng.randint(1, 5))
            for row in earned:
                row[rng.randrange(m)] = F(rng.randint(1, 5))
            earned = [[value / sum(row) for value in row] for row in earned]
            prices = [sum(column) for column in zip(*earned)]
            x = [[value / prices[c] for c, value in enumerate(row)] for row in earned]
            eps = rng.choice((ZERO, F(1, rng.randint(2, 10))))
        else:
            prices = [F(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(m)]
            eps = rng.choice((ZERO, F(1, rng.randint(2, 10))))
            # Each chore split among a few agents, at best ratio half the time.
            x = [[ZERO] * m for _ in range(n)]
            for c in range(m):
                holders = rng.sample(range(n), rng.randint(1, n))
                if rng.random() < 0.5:
                    holders = [i for i in range(n)
                               if c in mpb(inst, PriceVector(tuple(prices)), i)[1]] or holders
                weights = [rng.randint(1, 3) for _ in holders]
                for i, w in zip(holders, weights):
                    x[i][c] = F(w, sum(weights))
        kind = rng.randrange(3)
        if kind == 1:
            c = rng.randrange(m)
            prices[c] *= F(rng.randint(1, 5), rng.randint(1, 5))
        elif kind == 2 and n > 1:
            c = rng.randrange(m)
            i, j = rng.sample(range(n), 2)
            x[i][c], x[j][c] = x[j][c], x[i][c]
        allocation = FractionalAllocation(tuple(tuple(r) for r in x))
        yield inst, MarketOutcome(allocation, PriceVector(tuple(prices)), eps)


def test_best_ratio_checks_agree_with_fraction_oracle():
    rng = random.Random(43)
    seen = {"holds": 0, "incomes": 0, "min-pain-per-buck": 0, "integral": 0}
    for inst, out in random_outcomes(rng):
        report = verify_fisher_equilibrium(inst, out)
        assert report == fraction_fisher_report(inst, out)
        seen["holds" if report.holds else report.witness["condition"]] += 1
        # The integral check on bundles drawn from the outcome's support,
        # with copies of shared chores.
        bundles = [set() for _ in range(inst.n)]
        for c in range(inst.m):
            holders = [i for i in range(inst.n) if out.x.x[i][c] > 0] or [0]
            for k, i in enumerate(holders):
                bundles[i].add(ChoreCopy(c, k))
        alloc = SurplusAllocation(tuple(frozenset(b) for b in bundles), inst.m)
        certificate = check_fisher_integral(inst, alloc, out.prices)
        assert certificate == fraction_fisher_integral(inst, alloc, out.prices)
        seen["integral"] += certificate.holds
    assert min(seen.values()) >= 20, seen


class TestImplicationSuite:
    def test_equilibrium_round_trip(self):
        inst = Instance.from_rows([[1, 2], [2, 1]])
        p = PriceVector.from_values([1, 1])
        rows = implication_suite(inst, alloc_of(2, {0}, {1}), p)
        assert all(consequent for _, antecedent, consequent in rows if antecedent)
        names = [name for name, _, _ in rows]
        assert "pEF1+FisherEq=>EF1" in names and "fPO=>PO" in names

    def test_vacuous_on_arbitrary_allocations(self):
        rng = random.Random(41)
        for _ in range(30):
            n, m = rng.randint(2, 3), rng.randint(2, 5)
            inst = Instance.from_rows(
                [[rng.randint(1, 9) for _ in range(m)] for _ in range(n)])
            alloc = random_partition(rng, n, m)
            prices = PriceVector.from_values([rng.randint(1, 5) for _ in range(m)])
            rows = implication_suite(inst, alloc, prices)
            assert all(consequent for _, antecedent, consequent in rows if antecedent)
