"""Competitive equilibria with equal incomes for chore markets.

Three entry points matter to callers: ``verify_fisher_equilibrium`` certifies a
candidate outcome with a ``Certificate`` whose witness names the first failing
condition, ``exact_ceei`` / ``approx_ceei`` produce verified outcomes, and
``make_acyclic`` turns any verified outcome into one whose payment graph is a
forest without touching prices. ``approx_ceei`` at epsilon 0 returns an exact
equilibrium; ``exact_ceei``, exhaustive, is its oracle at every epsilon.
Every solver re-verifies what it returns, and an outcome that fails its own
check raises ``AlgorithmBugError`` naming the solver. The surplus pipeline
runs ``approx_ceei``'s loop, ``_price_loop``, directly and verifies its
integers with ``_routing_holds``, the same conditions without ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from ._flow import FlowNetwork
from .core import (
    FISHER_EQ,
    ZERO,
    Certificate,
    FractionalAllocation,
    Instance,
    MarketOutcome,
    PriceVector,
    integer_rows,
    over_common_denominator,
    payment_graph,
    price_scale,
    rat,
)
from .errors import (
    AlgorithmBugError,
    BudgetExhaustedError,
    InputError,
    InstanceTooLargeError,
)
from .serialize import rat_text

DEFAULT_ROUNDS = 100_000
_NO_CHORES = "no chores: equal unit incomes are unattainable"
# Raised when the price loop's accepted round fails its verification.
_UNVERIFIED = "approx_ceei: routed outcome failed verification; this is a bug"


def default_epsilon(n: int, m: int) -> Fraction:
    """Income slack used by the surplus pipeline: 1/(5nm), which needs a chore."""
    if m == 0:
        raise InputError(_NO_CHORES)
    return Fraction(1, 5 * n * m)


# Size caps of the exhaustive equilibrium search.
MAX_SEARCH_AGENTS = 4
MAX_SEARCH_CHORES = 7


def verify_fisher_equilibrium(inst: Instance, out: MarketOutcome) -> Certificate:
    """Check incomes, then the min-pain-per-buck condition.

    Every income must lie in [1-eps, 1+eps], so exactly 1 at ``epsilon == 0``.
    Clearing needs no check: ``FractionalAllocation`` allots every chore
    exactly once. The first failing condition comes back as the witness.
    """
    if inst.n != out.n or inst.m != out.m:
        raise InputError("instance and outcome dimensions disagree")

    # Allocation entries are non-negative, so the sums skip the zero ones.
    rows, prices = out.x.x, out.prices
    low, high = 1 - out.epsilon, 1 + out.epsilon
    for i, row in enumerate(rows):
        income = sum((value * prices[c] for c, value in enumerate(row) if value), ZERO)
        if not low <= income <= high:
            return Certificate(FISHER_EQ, False, {
                "condition": "incomes", "agent": i, "income": rat_text(income)})

    if inst.m > 0:
        sets = _best_ratio_sets(inst, prices)
        for i, row in enumerate(rows):
            c = next((c for c, value in enumerate(row) if value and c not in sets[i]), None)
            if c is not None:
                return Certificate(FISHER_EQ, False, {
                    "condition": "min-pain-per-buck", "agent": i, "chore": c})
    return Certificate(FISHER_EQ, True)


def _routing_holds(inst: Instance, eps: Fraction, P: list[int], L: int, flows) -> bool:
    """``verify_fisher_equilibrium``, with ``FractionalAllocation``'s clearing
    check, in integers: prices ``P`` and each edge's flow are over ``L``, a
    multiple of the denominator of ``eps``, as ``_price_loop`` leaves them.

    The MPB sets are computed afresh. Every flow is non-negative, and a
    positive one lies on an MPB edge; every chore is paid exactly its price;
    every income lies in ``[(1-eps)·L, (1+eps)·L]``.
    """
    sets = _mpb_structure(integer_rows(inst), P)
    paid, incomes = [0] * inst.m, [0] * inst.n
    for (i, c), flow in flows.items():
        if flow < 0 or flow and c not in sets[i]:
            return False
        paid[c] += flow
        incomes[i] += flow
    slack = eps.numerator * (L // eps.denominator)
    return paid == P and all(L - slack <= income <= L + slack for income in incomes)


def _best_ratio_sets(inst: Instance, prices: PriceVector) -> list[frozenset[int]]:
    """Every agent's min-pain-per-buck chore set at ``prices``, decided in integers.

    Needs at least one chore. The sets are ``core.mpb``'s, which divides in
    ``Fraction``s and stays as the test oracle.
    """
    return _mpb_structure(integer_rows(inst), price_scale(prices)[0])


# ---------------------------------------------------------------------------
# Exact equilibrium by support enumeration
# ---------------------------------------------------------------------------

def _enumerate_supports(n: int, m: int, D: Optional[list[list[int]]]):
    """Yield candidate supports in canonical order, with their trees' records.

    A support is a set of agent-chore edges forming a forest in which every
    agent and every chore has degree >= 1. Supports come out by edge count
    ascending, then lexicographically on the sorted edge tuple, edges ordered
    by (agent, chore) with edge id ``i*m + c``. Each yield carries the live
    ``chosen`` edge-id list plus one record per tree of the forest:
    ``(edge mask, agents, chores, P)``, where ``P`` holds the tree's integer
    relative prices (0 outside the tree). The mask is unique to the tree, so
    the caller can memoize per-tree work across supports.

    Given the integer disutilities ``D``, a branch is skipped when its last
    edge joins two trees into one that some member agent cannot accept: the
    tree edges fix the relative prices of the tree's chores, and one of them
    pays the agent a strictly better ratio than the agent's own edges
    (``_join``). So in every record each agent's edges are best-ratio within
    the tree, and no equilibrium has a support containing a skipped tree.
    ``D=None`` enumerates every support, filling in only the masks: the
    reference order that ``_forest_supports`` and the tests pin.
    """
    total = n * m
    parent = list(range(n + m))  # union-find over agents [0,n) and chores [n,n+m)
    tree = [(0, (i,), (), [0] * m) for i in range(n)]  # record per union-find root
    tree += [(0, (), (c,), [int(c == h) for h in range(m)]) for c in range(m)]
    anchor = [0] * n  # for each agent with an edge, a chore it has an edge to

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    agent_deg = [0] * n
    chore_deg = [0] * m
    chosen: list[int] = []

    def rec(start: int, remaining: int):
        if remaining == 0:
            if 0 not in agent_deg and 0 not in chore_deg:
                roots = {find(e // m) for e in chosen}
                yield chosen, [tree[r] for r in roots]
            return
        if total - start < remaining:
            return
        if remaining < max(agent_deg.count(0), chore_deg.count(0)):
            return
        for idx in range(start, total):
            i, c = divmod(idx, m)
            ra, rc = find(i), find(n + c)
            if ra != rc:
                one, saved = tree[ra], tree[rc]
                if D is None:  # unpruned: only the masks are read
                    joined = (one[0] | saved[0] | (1 << idx), (), (), None)
                else:
                    joined = _join(D, anchor, idx, m, one, saved)
                if joined is not None:
                    tree[rc] = joined
                    parent[ra] = rc
                    agent_deg[i] += 1
                    chore_deg[c] += 1
                    chosen.append(idx)
                    yield from rec(idx + 1, remaining - 1)
                    chosen.pop()
                    agent_deg[i] -= 1
                    chore_deg[c] -= 1
                    parent[ra] = ra
                    tree[rc] = saved
            # Skipping past a node's final candidate edge dooms the branch.
            if agent_deg[i] == 0 and idx == i * m + m - 1:
                return
            if chore_deg[c] == 0 and idx == (n - 1) * m + c:
                return

    for k in range(max(n, m), n + m):
        yield from rec(0, k)


def _join(D, anchor, idx, m, one, other):
    """Record of the tree edge ``idx`` = (i, c) makes, or None to prune.

    ``one`` is the tree of agent ``i`` and ``other`` that of chore ``c``. The
    new edge ties ``i``'s ratio on ``c`` to the one on ``i``'s anchor ``a``,
    so ``one``'s prices scale by ``D[i][a]*P_other[c]`` and ``other``'s by
    ``P_one[a]*D[i][c]``. Each tree passed this check when it was made, so
    only the new cross pairs are compared: None means some agent has a
    strictly better ratio on a chore of the other tree than on its anchor.
    """
    i, c = divmod(idx, m)
    mask_a, agents_a, chores_a, prices_a = one
    mask_b, agents_b, chores_b, prices_b = other
    mask = mask_a | mask_b | (1 << idx)
    if not chores_a:  # the first edge of agent i, which anchors it at c
        anchor[i] = c
        row = D[i]
        num, den = row[c], prices_b[c]
        for y in chores_b:
            if row[y] * den < num * prices_b[y]:
                return None
        return mask, agents_a + agents_b, chores_b, prices_b
    a = anchor[i]
    fa, fb = D[i][a] * prices_b[c], prices_a[a] * D[i][c]
    g = gcd(fa, fb)
    fa, fb = fa // g, fb // g
    # Agent j against a chore y of the other tree, on the joint scale:
    # d_j(y) * P_own[base] * f_own < d_j(base) * P_other[y] * f_other.
    for j in agents_a:
        row, base = D[j], anchor[j]
        left, right = prices_a[base] * fa, row[base] * fb
        for y in chores_b:
            if row[y] * left < right * prices_b[y]:
                return None
    for j in agents_b:
        row, base = D[j], anchor[j]
        left, right = prices_b[base] * fb, row[base] * fa
        for y in chores_a:
            if row[y] * left < right * prices_a[y]:
                return None
    prices = [x * fa + y * fb for x, y in zip(prices_a, prices_b)]
    return mask, agents_a + agents_b, chores_a + chores_b, prices


def _forest_supports(n: int, m: int):
    """Every candidate support as (agent, chore) tuples, in canonical order."""
    for chosen, _ in _enumerate_supports(n, m, None):
        yield tuple(divmod(e, m) for e in chosen)


def _solve_component(record, m: int) -> Optional[dict[tuple[int, int], int]]:
    """Earnings on a tree's edges that pay each of its agents an income of 1.

    ``record`` is a tree of ``_enumerate_supports``: with ``count`` agents
    and ``T`` the sum of its prices ``P``, chore ``c`` costs
    ``count * P[c] / T``. Earnings are scaled by ``T`` so the leaf stripping
    stays in integers. Returns None when some earning is negative. On a tree
    the stripping reaches every edge and leaves no demand behind, and when
    no earning is negative none exceeds its chore's price.
    """
    mask, agents, chores, P = record
    count, T = len(agents), sum(P)
    # Nodes are (0, agent) and (1, chore); chores demand count*P[c], agents T.
    need = {(1, c): count * P[c] for c in chores}
    need.update(((0, i), T) for i in agents)
    left: dict[tuple[int, int], set[int]] = {v: set() for v in need}
    bits = mask
    while bits:
        low = bits & -bits
        i, c = divmod(low.bit_length() - 1, m)
        left[(0, i)].add(c)
        left[(1, c)].add(i)
        bits ^= low
    queue = [v for v, nbrs in left.items() if len(nbrs) == 1]
    earn: dict[tuple[int, int], int] = {}
    while queue:
        v = queue.pop()
        if len(left[v]) != 1:
            continue
        other = left[v].pop()
        if v[0] == 1:
            edge, u = (other, v[1]), (0, other)
        else:
            edge, u = (v[1], other), (1, other)
        amount = need[v]
        if amount < 0:
            return None
        earn[edge] = amount
        need[u] -= amount
        left[u].discard(v[1])
        if len(left[u]) == 1:
            queue.append(u)
    return earn


def _components_compatible(D, m: int, one, other) -> bool:
    """No agent of ``one`` finds a strictly better ratio among ``other``'s chores.

    Both are records of ``_enumerate_supports``. An agent's ratio is read on
    its first edge, since all its edges tie within its tree.
    """
    mask, agents, _, P = one
    _, other_agents, chores, Q = other
    # d_i(c) / q_c < d_i(a) / p_a, with p = |agents| * P / sum(P) and
    # q = |other_agents| * Q / sum(Q) multiplied through.
    own_scale, other_scale = len(agents) * sum(Q), len(other_agents) * sum(P)
    full = (1 << m) - 1
    for i in agents:
        bits = mask >> (i * m) & full
        a = (bits & -bits).bit_length() - 1
        row = D[i]
        left, right = P[a] * own_scale, row[a] * other_scale
        for c in chores:
            if row[c] * left < right * Q[c]:
                return False
    return True


def exact_ceei(inst: Instance) -> MarketOutcome:
    """First equal-income equilibrium in canonical support order, exactly.

    Exhaustive over forest supports, so only permitted up to
    ``MAX_SEARCH_AGENTS`` x ``MAX_SEARCH_CHORES``.
    The returned outcome passes ``verify_fisher_equilibrium`` at epsilon 0.

    Each tree of a support is described once, by its record from
    ``_enumerate_supports``: edges, agents, chores and integer relative
    prices, built and checked as the tree's edges join. A tree in which
    some agent finds a strictly better pain-per-buck ratio on one of the
    tree's chores than on its own edges is never extended. Its edges fix
    the relative prices of its chores in every support that contains it, so
    none of those supports has an equilibrium. Only failing supports are
    skipped, so the first feasible support in canonical order, and the
    outcome returned, are those of the unpruned search.

    What is left per support is to solve each tree's earnings
    (``_solve_component``) and to check that no agent prefers a chore of
    another tree (``_components_compatible``). Both are memoized by edge mask
    across supports, which leaves the canonical order untouched. The search
    never consults ``approx_ceei``, and so stays an independent oracle for it.
    """
    if inst.m == 0:
        raise InputError(_NO_CHORES)
    if inst.has_zero_entry():
        raise InputError("exact search requires strictly positive disutilities")
    if inst.n > MAX_SEARCH_AGENTS or inst.m > MAX_SEARCH_CHORES:
        raise InstanceTooLargeError(
            f"{inst.n} agents x {inst.m} chores exceeds search limits "
            f"({MAX_SEARCH_AGENTS} x {MAX_SEARCH_CHORES})")
    n, m = inst.n, inst.m
    # A tree's relative prices are ratios within one agent's row, so a
    # factor on a row cancels out of every record.
    D = integer_rows(inst)

    earn_cache: dict[int, Optional[dict[tuple[int, int], int]]] = {}
    pair_cache: dict[tuple[int, int], bool] = {}

    def earnings_of(record):
        key = record[0]
        if key not in earn_cache:
            earn_cache[key] = _solve_component(record, m)
        return earn_cache[key]

    def compatible(one, other):
        key = (one[0], other[0])
        if key not in pair_cache:
            pair_cache[key] = _components_compatible(D, m, one, other)
        return pair_cache[key]

    for _, trees in _enumerate_supports(n, m, D):
        if any(earnings_of(record) is None for record in trees):
            continue
        if not all(compatible(one, other)
                   for one in trees for other in trees if one[0] != other[0]):
            continue

        prices: list[Fraction] = [ZERO] * m
        earnings: dict[tuple[int, int], Fraction] = {}
        for mask, agents, chores, P in trees:
            T = sum(P)
            for c in chores:
                prices[c] = Fraction(len(agents) * P[c], T)
            for edge, amount in earn_cache[mask].items():
                earnings[edge] = Fraction(amount, T)
        outcome = _outcome_from_earnings(inst, prices, earnings, ZERO)
        if verify_fisher_equilibrium(inst, outcome).holds:
            return outcome
        raise AlgorithmBugError(
            "exact_ceei: support solver accepted an outcome the verifier rejects; this is a bug")
    raise AlgorithmBugError(
        "exact_ceei: support enumeration exhausted without an equilibrium; this is a bug")


# ---------------------------------------------------------------------------
# Approximate or exact equilibrium by earning-balancing price adjustment
# ---------------------------------------------------------------------------

def _mpb_structure(D, P):
    """Each agent's min-pain-per-buck set, whose least chore gives its best ratio.

    ``d_i(c)/p_c <= d_i(b)/p_b`` is decided as ``D[i][c]*P[b] <= D[i][b]*P[c]``:
    the rational comparison multiplied through by positive integers.
    """
    m = len(P)
    sets: list[frozenset[int]] = []
    for row in D:
        b = 0
        for c in range(1, m):
            if row[c] * P[b] < row[b] * P[c]:
                b = c
        num, den = row[b], P[b]
        sets.append(frozenset(c for c in range(m) if row[c] * den == num * P[c]))
    return sets


def _plain_network(n, m, P, L, mpb_sets, hi):
    """The cap-only network of a price round, with zero flow.

    Prices ``P`` are integers, price ``c`` times ``L``. Chore ``c`` is node
    ``c``, agent ``i`` node ``m + i``, the source ``n + m`` and the sink
    ``n + m + 1``. Edges: source to each chore, capped at its price; chore to
    agent, uncapped, along each MPB edge in (agent, chore) order; agent to
    sink, capped at ``hi``. Amounts are integers over the network's unit,
    here ``L``; ``_carry_plain_network`` moves the network, flow and all, to
    a later round with another unit.

    Returns ``(net, supply, income, edges, unit)``: the network, the supply
    and income edge indices, the MPB edge indices keyed by (agent, chore),
    and the unit.
    """
    s, t = n + m, n + m + 1
    net = FlowNetwork(n + m + 2)
    supply = [net.add_edge(s, c, P[c]) for c in range(m)]
    edges = {(i, c): net.add_edge(c, m + i, None) for i in range(n) for c in sorted(mpb_sets[i])}
    high = int(hi * L)
    income = [net.add_edge(m + i, t, high) for i in range(n)]
    return net, supply, income, edges, L


def _carry_plain_network(network, n, m, P, L, mpb_sets, hi):
    """An overpriced round's cap-only network, with its maximum flow, moved
    in place to the next round's prices ``P`` over ``L`` and ``mpb_sets``.

    - The MPB edges that left are unlinked. Each must carry no flow.
    - Every flow is divided by ``g``, the gcd of the MPB flows and the unit
      ``U``, then scaled to the new unit ``lcm(U/g, L)``, which holds the
      flow and this round's caps exactly.
    - The supply and income caps are reset from ``P`` and ``hi``. Each must
      still hold its flow.
    - The MPB edges that joined are added without flow.

    The caps and flows are then those of a fresh ``_plain_network`` with the
    carried flow loaded onto it; only the adjacency order differs, which
    changes the maximum flow found but not its cut. ``approx_ceei`` argues
    why the flow fits, and a flow that does not raises ``AlgorithmBugError``.
    Returns the network in ``_plain_network``'s form, with its new unit.
    """
    net, supply, income, edges, unit = network
    residual = net.residual
    for (i, c), index in list(edges.items()):
        if c not in mpb_sets[i]:
            if residual[index ^ 1]:
                raise AlgorithmBugError(
                    f"approx_ceei: dropped MPB edge ({i}, {c}) carries flow; this is a bug")
            net.unlink(index)
            del edges[(i, c)]
    g = gcd(unit, *(residual[index ^ 1] for index in edges.values()))
    U = lcm(unit // g, L)
    scale, up = U // (unit // g), U // L
    if g != 1 or scale != 1:
        for index in [*supply, *edges.values(), *income]:
            residual[index ^ 1] = residual[index ^ 1] // g * scale
    caps = [value * up for value in P] + [int(hi * L) * up] * n
    for index, cap in zip(supply + income, caps):
        residual[index] = cap - residual[index ^ 1]
        if residual[index] < 0:
            raise AlgorithmBugError(
                "approx_ceei: a carried flow exceeds its rescaled cap; this is a bug")
    for i, chores in enumerate(mpb_sets):
        for c in chores:
            if (i, c) not in edges:
                edges[(i, c)] = net.add_edge(c, m + i, None)
    return net, supply, income, edges, U


def _floor_network(n, m, P, L, mpb_sets, lo):
    """``_plain_network`` with the caps at ``lo``, and its maximum flow from
    zero: the network and whether that flow fills every income to ``lo``."""
    network = _plain_network(n, m, P, L, mpb_sets, lo)
    return network, network[0].max_flow(n + m, n + m + 1) == n * int(lo * L)


def _route_within_bounds(n, m, L, lo, hi, floor):
    """Earnings routing with every chore saturated and incomes in [lo, hi].

    ``floor`` is ``_floor_network``'s result for the round: the cap-only
    network with its caps at ``lo`` and a maximum flow from zero, and
    whether that flow fills every income to ``lo``. Prices, ``lo * L`` and
    ``hi * L`` are integers over ``L``. A second maximum flow, with the caps
    raised to ``hi``, continues from the first. Returns each MPB edge's
    flow, its earning over ``L``, or None when no such routing exists
    (the lower-bound argument of Ford and Fulkerson, *Flows in Networks*,
    1962): a bounded routing trimmed to ``lo`` per agent is a first flow of
    ``n * lo``, and the second flow lowers no income and ends at a maximum
    flow, which pays every chore in full if any routing does. Which routing
    is returned is fixed by the two flows.
    """
    low, high = int(lo * L), int(hi * L)
    (net, supply, income, edges, _), filled = floor
    if not filled:
        return None
    for index in income:
        net.residual[index] += high - low
    net.max_flow(n + m, n + m + 1)
    if any(net.residual[index] for index in supply):
        return None
    return {edge: net.flow_value(index) for edge, index in edges.items()}


def _route_plain(n, m, P, L, mpb_sets, hi, carried=None):
    """Cap-only routing, the first flow of every price round.

    Builds ``_plain_network`` from zero flow or, given the last overpriced
    round's network as ``carried``, moves that one to this round in place
    (``_carry_plain_network``). Then augments it to a maximum flow. Returns
    the network, the chores whose payment is not fully routed, and the
    network in ``_plain_network``'s form, for the next round to carry.

    The caller reads only ``reachable`` off the network, the same set after
    every maximum flow from any starting flow, so carrying leaves the
    round's decision as it was.
    """
    if carried is None:
        network = _plain_network(n, m, P, L, mpb_sets, hi)
    else:
        network = _carry_plain_network(carried, n, m, P, L, mpb_sets, hi)
    net, supply = network[0], network[1]
    net.max_flow(n + m, n + m + 1)
    return net, [c for c in range(m) if net.residual[supply[c]]], network


def _reduced(Q: list[int], R: int) -> tuple[list[int], int]:
    """The price vector Q / R with the common factor of ``R`` and ``Q`` removed."""
    g = gcd(R, *Q)
    if g == 1:
        return Q, R
    return [value // g for value in Q], R // g


def _outcome_from_earnings(inst, prices, earnings, epsilon) -> MarketOutcome:
    """Outcome from per-edge earnings."""
    rows = [[ZERO] * inst.m for _ in range(inst.n)]
    for (i, c), amount in earnings.items():
        rows[i][c] = amount / prices[c]
    x = FractionalAllocation(tuple(tuple(row) for row in rows))
    return MarketOutcome(x, PriceVector(tuple(prices)), epsilon)


def approx_ceei(inst: Instance, epsilon) -> MarketOutcome:
    """Equilibrium with incomes within [1-eps, 1+eps], by price adjustment.

    ``eps`` lies in [0, 1); at 0 every income is exactly 1 and the outcome
    is an exact equilibrium. The price loop follows the combinatorial
    algorithm for chore competitive equilibria of Chaudhury, Garg,
    McGlaughlin and Mehta (EC 2022). It starts with each chore priced at its
    least disutility over the agents, the prices scaled to total ``n``, so
    that every chore lies in the best-ratio set of each agent who dislikes
    it least. Every round first routes chore payments to agents along
    current best-ratio edges with only the income caps (``_route_plain``).
    Only when every chore routes is the same network routed again from
    zero, every income filled to its floor first and then up to its cap
    (``_route_within_bounds``), and that routing decides acceptance.

    A failing round reads one minimum cut, the set ``reach`` of nodes
    reachable from the source in the residual network, the same for every
    maximum flow. An overpriced round, with a chore left unrouted under the
    caps, reads it off the cap-only network. An underpaid round, where every
    chore routes but the floors cannot all be met, reads it off the floor
    network: ``_plain_network`` with the caps at ``lo``, from zero. An
    uncapped best-ratio edge never crosses a minimum cut, so the agents
    outside ``reach`` have all their best-ratio chores outside it too. On
    the overpriced side the agents in ``reach`` cannot absorb under their
    caps what the chores in it pay; on the underpaid side the chores outside
    it pay the agents outside it less than their floors. Either way the
    chores in ``reach`` rise multiplicatively, by exactly the factor that
    lets the next agent outside ``reach`` tie with one of them, so that the
    next agent-chore pair joins the best-ratio graph. When no chore is in
    ``reach`` or no agent is outside it, the price total is rescaled to
    ``n`` instead. The returned outcome is re-verified before being
    accepted, so the adjustment policy affects speed, never soundness.
    Termination is bounded only by ``DEFAULT_ROUNDS``, past which
    ``BudgetExhaustedError`` is raised.

    Prices are one integer vector ``Q`` over a shared denominator ``R``,
    reduced so that ``gcd(R, *Q) == 1``; ``R`` is then the lcm of the price
    denominators. Within a round they are scaled by ``L``, the lcm of ``R``
    and the denominator of the income bounds, and each agent's row by its
    own lcm (``integer_rows``), so the best-ratio sets, every flow and the
    factor are computed in integers; each integer comparison is the rational
    one multiplied through by a positive integer. The loop is
    ``_price_loop``, which returns those integers; only the outcome built
    from them here holds ``Fraction``s. The surplus pipeline takes the
    integers as they are and checks them with ``_routing_holds`` instead.

    Each round carries its state into the next, and no round decides
    differently for it:

    - *MPB sets.* ``_mpb_structure`` builds them once; after that each
      agent keeps its set, and any chore of it gives the agent's best ratio.
      A rise multiplies the blocked prices by one factor ``top/bottom > 1``,
      so ratios within each side keep their order. Every candidate's set
      lies on the unblocked side, and the factor is the least that ties a
      candidate with a blocked chore, so a candidate gains exactly the
      blocked chores that tie at it, collected where the factor is chosen.
      Every other agent has a blocked chore in its set; those now beat its
      unblocked ones, which it drops. A uniform rescale changes no set.
      The sets equal ``_mpb_structure``'s every round.
    - *Flow.* After an overpriced round, its cap-only network, maximum flow
      and all, becomes the next round's: ``_carry_plain_network`` unlinks
      the dropped MPB edges, rescales the flow to the new unit, resets the
      caps and adds the joined edges, in place. The flow still fits:
      blocked prices only rise, income caps are fixed in money, and a
      dropped edge runs from an unblocked chore to a reachable agent, so it
      carried nothing (flow on it would make its chore reachable). The
      update checks both. The next round reads only the cut when a chore
      stays unrouted, and the cut is the same after every maximum flow.
      When every chore routes, the bounded routing starts from one flow
      from zero on a fresh floor network (``_floor_network``), and when
      that flow leaves an income short of its floor, the round reads its
      cut off that same network. A routed round's flow may sit on dropped
      edges, and a normalisation or a uniform rescale moves the caps under
      the flow, so the round after one of these builds a fresh network too.
    """
    eps, Q, R, L, flows = _price_loop(inst, epsilon)
    outcome = _outcome_from_earnings(
        inst, [Fraction(value, R) for value in Q],
        {edge: Fraction(flow, L) for edge, flow in flows.items()}, eps)
    if verify_fisher_equilibrium(inst, outcome).holds:
        return outcome
    raise AlgorithmBugError(_UNVERIFIED)


def _price_loop(inst: Instance, epsilon):
    """``approx_ceei``'s price loop, unverified and in integers.

    Returns ``(eps, Q, R, L, flows)``: the slack as a ``Fraction``, the
    prices ``Q / R``, the unit ``L`` of the accepted round and its bounded
    routing, each MPB edge's flow, an earning over ``L``.
    """
    if inst.m == 0:
        raise InputError(_NO_CHORES)
    if inst.has_zero_entry():
        raise InputError("price adjustment requires strictly positive disutilities")
    eps = rat(epsilon)
    if not 0 <= eps < 1:
        raise InputError(f"epsilon must lie in [0, 1), got {eps}")

    n, m = inst.n, inst.m
    lo, hi = 1 - eps, 1 + eps
    D = integer_rows(inst)
    # Each chore starts at its least disutility over the agents, the prices
    # scaled to total n, so it lies in the MPB set of every agent who
    # dislikes it least. The m minima M are taken over the lcm of their own
    # denominators. Prices have one form Q / R with gcd(R, *Q) == 1, so
    # reducing n * M / sum(M) finds the (Q, R) of the rational start.
    M, _ = over_common_denominator([min(column) for column in zip(*inst.disutility)])
    Q, R = _reduced([n * value for value in M], sum(M))
    # The sets do not depend on the price scale.
    mpb_sets = _mpb_structure(D, Q)
    carried = None

    for _ in range(DEFAULT_ROUNDS):
        total = sum(Q)
        if total > 2 * n * R or 2 * total < n * R:
            scale = Fraction(n * R, total)
            rounded = scale.limit_denominator(10**9)
            if rounded > 0:
                scale = rounded
            Q, R = _reduced([value * scale.numerator for value in Q], R * scale.denominator)
            carried = None

        # lo and hi share the denominator of eps.
        step = eps.denominator // gcd(eps.denominator, R)
        L = R * step
        P = [value * step for value in Q]
        mpb_values = [(D[i][b], P[b]) for i, b in enumerate(map(min, mpb_sets))]
        # A routing that pays every chore in full with incomes in [lo, hi]
        # is also a routing of the cap-only network, so a chore left unrouted
        # there proves the bounded routing infeasible without solving it.
        net, unrouted, network = _route_plain(n, m, P, L, mpb_sets, hi, carried)
        if not unrouted:
            floor = _floor_network(n, m, P, L, mpb_sets, lo)
            flows = _route_within_bounds(n, m, L, lo, hi, floor)
            if flows is not None:
                return eps, Q, R, L, flows
            # Every chore routes under the caps, so the floors failed: the
            # cut is read off the floor network instead.
            (net, *_), filled = floor
            if filled:
                # Every income at its floor, then raised to a maximum flow
                # under the caps, would route every chore within the bounds.
                raise AlgorithmBugError(
                    "approx_ceei: routing disagreed with itself; this is a bug")
        # Raise the chores in the cut's source side until an agent on its
        # sink side ties with one of them.
        reach = net.reachable(n + m)
        blocked = [c for c in range(m) if c in reach]
        candidates = [i for i in range(n) if m + i not in reach]

        # The factor that brings chore c into agent i's MPB set is
        # (D[i][c]/P[c]) / (num/den) with (num, den) = mpb_values[i]. Each
        # candidate's least factor comes from its least blocked ratio
        # D[i][c]/P[c], with the chores that tie at it; take the least of
        # the candidates' factors, with every candidate that ties at it.
        # Without a blocked chore there is no factor, and lam stays None.
        lam = None
        ties = []
        for i in candidates if blocked else ():
            row = D[i]
            best, price, near = row[blocked[0]], P[blocked[0]], [blocked[0]]
            for c in blocked[1:]:
                left, right = row[c] * price, best * P[c]
                if left < right:
                    best, price, near = row[c], P[c], [c]
                elif left == right:
                    near.append(c)
            num, den = mpb_values[i]
            top, bottom = best * den, price * num
            if lam is not None:
                left, right = top * lam[1], lam[0] * bottom
                if left > right:
                    continue
                if left == right:
                    ties += ((i, c) for c in near)
                    continue
            lam, ties = (top, bottom), [(i, c) for c in near]
        if lam is None:
            Q, R = _reduced([n * value for value in Q], sum(Q))
            carried = None
            continue
        # Blocked prices times top/bottom, over the denominator R * bottom.
        # The factor is reduced first, so the products stay small; _reduced
        # still strips what the rise leaves in common.
        g = gcd(*lam)
        top, bottom = lam[0] // g, lam[1] // g
        rise = frozenset(blocked)
        Q, R = _reduced([value * (top if c in rise else bottom) for c, value in enumerate(Q)],
                        R * bottom)
        for i, chores in enumerate(mpb_sets):
            keep = chores & rise
            if keep and keep != chores:
                mpb_sets[i] = keep
        for i, c in ties:
            mpb_sets[i] = mpb_sets[i] | {c}
        # An overpriced round's network holds no flow on the edges the rise
        # drops, so the next round updates it in place; a routed round's
        # flow need not fit.
        carried = network if unrouted else None

    raise BudgetExhaustedError(
        f"no verified outcome within {DEFAULT_ROUNDS} price-adjustment rounds")


# ---------------------------------------------------------------------------
# Cycle cancellation
# ---------------------------------------------------------------------------

def _forest_path(adj, start: int, goal: int) -> Optional[list[int]]:
    """Nodes of the forest path from ``start`` to ``goal``, or None when apart."""
    parent = {start: None}
    stack = [start]
    while stack and goal not in parent:
        u = stack.pop()
        for v in adj[u] - parent.keys():
            parent[v] = u
            stack.append(v)
    if goal not in parent:
        return None
    path = [goal]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def _cancel_cycles(n: int, m: int, weights: dict) -> list[set[int]]:
    """Cancel the cycles of the earnings ``weights`` in place, in the dict's
    edge order: an edge closing a cycle with the forest path between its ends
    shifts earnings alternately around it by the least weight (first in path
    order, the new edge last), keeping incomes and payments; edges at zero
    leave. Returns the forest's adjacency, chore ``c`` at node ``n + c``."""
    adj: list[set[int]] = [set() for _ in range(n + m)]  # chore c is node n + c
    for i, c in list(weights):
        # A chore without forest edges yet cannot close a cycle.
        path = _forest_path(adj, i, n + c) if adj[n + c] else None
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


def make_acyclic(inst: Instance, out: MarketOutcome) -> MarketOutcome:
    """Verified equilibrium with a forest payment graph, from a verified one:
    ``_cancel_cycles`` in (agent, chore) edge order keeps prices, incomes and
    the support inclusion. A standalone tool; the rounding cancels cycles itself."""
    if not verify_fisher_equilibrium(inst, out).holds:
        raise InputError("make_acyclic requires a verified equilibrium")

    weights = payment_graph(out.x, out.prices).edge_dict()
    _cancel_cycles(out.n, out.m, weights)
    result = _outcome_from_earnings(inst, out.prices, weights, out.epsilon)
    if not verify_fisher_equilibrium(inst, result).holds:
        raise AlgorithmBugError(
            "make_acyclic: cycle cancellation broke the equilibrium; this is a bug")
    return result
