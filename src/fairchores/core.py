"""Data model (instances, allocations, prices, certificates) and the elementary evaluations.

All numeric quantities are exact rationals (`fractions.Fraction`) at the
boundary; nothing in the algorithmic pipeline ever rounds. Inside, solvers and
certificates compare costs in integers, which each value makes once, on
first use, and keeps: an ``Instance`` its rows over their own lcms
(``row_scales``), a ``PriceVector`` its prices over their lcm
(``price_scale``). Values are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .errors import InputError

ZERO = Fraction(0)

# Most decimal digits a rational given as text may expand to: every digit
# written, numerator and denominator together, plus the exponent's magnitude.
# It keeps an entry like "1e99999999" from building a hundred-million-digit
# integer.
MAX_TEXT_DIGITS = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


def rat(value) -> Fraction:
    """Coerce ints / strings like '2/3' / decimal strings to an exact Fraction."""
    if type(value) is int:  # the common case, ahead of the slower ABC checks
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # JSON's NaN and Infinity literals parse to floats with no rational value.
        if not math.isfinite(value):
            raise InputError(f"not a rational: {value!r}")
        # Exact value of the printed decimal form, not of the binary float.
        return Fraction(repr(value))
    if isinstance(value, str):
        digits = sum(ch.isdigit() for ch in value)
        exponent = _EXPONENT.search(value)
        if digits > MAX_TEXT_DIGITS or (
                exponent and digits + abs(int(exponent.group(1))) > MAX_TEXT_DIGITS):
            raise InputError(
                f"not a rational of at most {MAX_TEXT_DIGITS} digits: {value[:40]!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {value!r}") from exc
    raise InputError(f"not a rational: {value!r}")


class ChoreCopy(NamedTuple):
    """One physical unit of work: the original chore (copy 0) or a duplicate."""

    chore: int
    copy: int = 0


_CHORE, _COPY = itemgetter(0), itemgetter(1)


@dataclass(frozen=True)
class Instance:
    """A chore-division instance: ``n`` agents, ``m`` chores, disutility matrix.

    ``disutility[i][c]`` is how much agent ``i`` dislikes chore ``c``; bundles
    are valued additively. Entries must be non-negative rationals.
    """

    disutility: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.disutility:
            raise InputError("instance needs at least one agent")
        widths = {len(row) for row in self.disutility}
        if len(widths) != 1:
            raise InputError("disutility rows have inconsistent lengths")
        for row in self.disutility:
            for value in row:
                if type(value) is not Fraction and not isinstance(value, Fraction):
                    raise InputError("disutility entries must be Fractions")
                if value.numerator < 0:
                    raise InputError("disutility entries must be non-negative")

    @classmethod
    def from_rows(cls, rows) -> "Instance":
        """Coerce each entry with ``rat``; a row of plain ints maps each of
        its distinct values to one ``Fraction``, shared within the call."""
        shared: dict[int, Fraction] = {}

        def coerce(row) -> tuple[Fraction, ...]:
            row = tuple(row)
            if set(map(type, row)) <= {int}:
                for value in set(row).difference(shared):
                    shared[value] = Fraction(value)
                return tuple(map(shared.__getitem__, row))
            return tuple(rat(v) for v in row)

        return cls(tuple(map(coerce, rows)))

    @property
    def n(self) -> int:
        return len(self.disutility)

    @property
    def m(self) -> int:
        return len(self.disutility[0])

    def d(self, agent: int, chore: int) -> Fraction:
        return self.disutility[agent][chore]

    def has_zero_entry(self) -> bool:
        return any(v == 0 for row in self.disutility for v in row)

    @cached_property
    def _row_scales(self) -> list[tuple[list[int], int]]:
        return [over_common_denominator(row) for row in self.disutility]


@dataclass(frozen=True)
class FractionalAllocation:
    """An n x m matrix of fractions; every chore's column sums to exactly 1."""

    x: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len({len(row) for row in self.x}) > 1:
            raise InputError("allocation rows have inconsistent lengths")
        for row in self.x:
            for value in row:
                if value < 0 or value > 1:
                    raise InputError("allocation fractions must lie in [0, 1]")
        for c in range(self.m):
            column = sum((row[c] for row in self.x), ZERO)
            if column != 1:
                raise InputError(f"chore {c} is allocated {column}, expected exactly 1")

    @classmethod
    def from_rows(cls, rows) -> "FractionalAllocation":
        return cls(tuple(tuple(rat(v) for v in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def m(self) -> int:
        return len(self.x[0]) if self.x else 0


@dataclass(frozen=True)
class PriceVector:
    """Strictly positive chore prices. Copies always cost what the original costs."""

    p: tuple[Fraction, ...]

    def __post_init__(self):
        for value in self.p:
            if value <= 0:
                raise InputError("prices must be strictly positive")

    @classmethod
    def from_values(cls, values) -> "PriceVector":
        return cls(tuple(rat(v) for v in values))

    def __len__(self) -> int:
        return len(self.p)

    def __getitem__(self, chore: int) -> Fraction:
        return self.p[chore]

    def __iter__(self):
        return iter(self.p)

    def total(self) -> Fraction:
        return sum(self.p, ZERO)

    @cached_property
    def _scale(self) -> tuple[list[int], int]:
        return over_common_denominator(self.p)


@dataclass(frozen=True)
class MarketOutcome:
    """A fractional allocation with prices, in a market of equal incomes.

    Every agent is to earn 1; ``epsilon`` is the allowed income slack, so an
    income in [1-eps, 1+eps] passes, and 0 for an exact equilibrium. It lies
    in [0, 1).
    """

    x: FractionalAllocation
    prices: PriceVector
    epsilon: Fraction

    def __post_init__(self):
        if self.x.m != len(self.prices):
            raise InputError("allocation and price vector disagree on chore count")
        if not 0 <= self.epsilon < 1:
            raise InputError(f"epsilon must lie in [0, 1), got {self.epsilon}")

    @property
    def n(self) -> int:
        return self.x.n

    @property
    def m(self) -> int:
        return self.x.m

    def earning(self, agent: int, chore: int) -> Fraction:
        return self.x.x[agent][chore] * self.prices[chore]

    def income(self, agent: int) -> Fraction:
        return sum((self.earning(agent, c) for c in range(self.m)), ZERO)


@dataclass(frozen=True)
class SurplusAllocation:
    """Integral bundles over chore copies.

    Every original chore appears somewhere; ``surplus_count`` counts the extra
    duplicated units beyond the ``num_chores`` originals.
    """

    bundles: tuple[frozenset[ChoreCopy], ...]
    num_chores: int

    def __post_init__(self):
        # Valid allocations pass by set operations: no unit is shared when the
        # union is as long as the bundles together, and the chore ids then
        # cover exactly range(num_chores) when there are num_chores of them
        # between its ends. Anything else falls through to the unit scan,
        # which raises on the first fault in bundle order.
        bundles, m = self.bundles, self.num_chores
        units = set().union(*bundles)
        chores = set(map(_CHORE, units))
        if len(units) == sum(map(len, bundles)) and len(chores) == m and (
                not m or (min(chores) >= 0 and max(chores) < m
                          and min(map(_COPY, units)) >= 0)):
            return
        seen: set[ChoreCopy] = set()
        covered: set[int] = set()
        for bundle in self.bundles:
            for unit in bundle:
                if unit in seen:
                    raise InputError(f"chore copy {unit} appears in two bundles")
                seen.add(unit)
                if not 0 <= unit.chore < self.num_chores:
                    raise InputError(f"chore id {unit.chore} out of range")
                if unit.copy < 0:
                    raise InputError(f"chore copy {unit} has a negative copy index")
                covered.add(unit.chore)
        if len(covered) != self.num_chores:
            first = min(set(range(len(covered) + 1)) - covered)  # one of these is missing
            raise InputError(f"chores never allocated, the first is chore {first}")

    @property
    def n(self) -> int:
        return len(self.bundles)

    @property
    def surplus_count(self) -> int:
        return sum(len(b) for b in self.bundles) - self.num_chores

    def items(self) -> list[ChoreCopy]:
        """All allocated units (originals and copies), in a canonical order."""
        return sorted(unit for bundle in self.bundles for unit in bundle)


# Property name of the Fisher-equilibrium certificates, fractional or integral.
FISHER_EQ = "FisherEq"


@dataclass(frozen=True)
class Certificate:
    """Whether one property holds; a failed one carries a witness whose
    rationals are strings, re-checkable by plain arithmetic."""

    property: str
    holds: bool
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        return {"property": self.property, "holds": self.holds, "witness": self.witness}


@dataclass(frozen=True)
class PaymentGraph:
    """Bipartite agent-chore graph weighted by earnings x[i][c] * p[c].

    An edge is present exactly where the earning is positive.
    """

    n: int
    m: int
    weights: tuple[tuple[tuple[int, int], Fraction], ...]

    @classmethod
    def from_edges(cls, n: int, m: int, weights: dict[tuple[int, int], Fraction]) -> "PaymentGraph":
        items = tuple(sorted((edge, w) for edge, w in weights.items() if w > 0))
        return cls(n, m, items)

    def edge_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.weights)

    def to_networkx(self):
        """The graph on ("a", i) and ("c", c) nodes; no solver needs ``networkx``."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(("a", i) for i in range(self.n))
        graph.add_nodes_from(("c", c) for c in range(self.m))
        for (i, c), w in self.weights:
            graph.add_edge(("a", i), ("c", c), weight=w)
        return graph

    def is_acyclic(self) -> bool:
        """Whether the edges form a forest: no edge joins two nodes that already
        share a union-find root (agents [0, n), chores [n, n+m))."""
        parent = list(range(self.n + self.m))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            return a

        for (i, c), _ in self.weights:
            ra, rc = find(i), find(self.n + c)
            if ra == rc:
                return False
            parent[ra] = rc
        return True


def scaled(values, scale: int) -> list[int]:
    """Each rational times ``scale``, a common multiple of their denominators."""
    return [value.numerator * (scale // value.denominator) for value in values]


def over_common_denominator(values) -> tuple[list[int], int]:
    """Rationals as integers ``P`` over their least common denominator ``L``."""
    L = math.lcm(*(value.denominator for value in values))
    if L == 1:  # integral rationals, as in most instances: no divisions
        return [value.numerator for value in values], 1
    return scaled(values, L), L


def integer_rows(inst: Instance) -> list[list[int]]:
    """Each agent's disutilities times the lcm of that row's own denominators.

    Every comparison the solvers and certificates make reads one agent's
    costs at a time, or a ratio of two entries of one row (best-ratio sets,
    price-rise factors, tree prices, set costs, cap rows), and a positive
    factor on a row changes none of them. Sums across rows, such as a total
    disutility, need one scale for every row instead: the rationals
    themselves, or the lcm of every entry's denominator.
    """
    return [ints for ints, _ in row_scales(inst)]


def row_scales(inst: Instance) -> list[tuple[list[int], int]]:
    """``integer_rows`` with each row's scale: ``(ints, K_i)`` per agent, as
    ``over_common_denominator`` gives them, so that a certificate can state
    its costs as rationals again, ``Fraction(cost, K_i)``. Callers share
    them and never change them."""
    return inst._row_scales


def price_scale(prices: PriceVector) -> tuple[list[int], int]:
    """The prices as integers ``P`` over their lcm ``L``; shared, like
    ``row_scales``."""
    return prices._scale


def bundle_disutility(inst: Instance, agent: int, units: Iterable[ChoreCopy]) -> Fraction:
    """Additive disutility of a set of chore copies; copies count like originals."""
    total = ZERO
    for unit in units:
        total += inst.disutility[agent][unit.chore]
    return total


def bundle_payment(prices: PriceVector, units: Iterable[ChoreCopy]) -> Fraction:
    """Total price of a set of chore copies; copies are priced like originals."""
    total = ZERO
    for unit in units:
        total += prices[unit.chore]
    return total


def mpb(inst: Instance, prices: PriceVector, agent: int) -> tuple[Fraction, frozenset[int]]:
    """Minimum pain per buck of one agent: the best ratio d(c)/p(c) and its argmin set."""
    if inst.m == 0:
        raise InputError("pain per buck is undefined without chores")
    ratios = [inst.disutility[agent][c] / prices[c] for c in range(inst.m)]
    best = min(ratios)
    return best, frozenset(c for c, r in enumerate(ratios) if r == best)


def payment_graph(x: FractionalAllocation, prices: PriceVector) -> PaymentGraph:
    """Earning-weighted bipartite graph of a market outcome."""
    if x.m != len(prices):
        raise InputError("allocation and price vector disagree on chore count")
    weights = {}
    for i in range(x.n):
        for c in range(x.m):
            if x.x[i][c] > 0:
                weights[(i, c)] = x.x[i][c] * prices[c]
    return PaymentGraph.from_edges(x.n, x.m, weights)
