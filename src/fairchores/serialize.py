"""JSON (de)serialization that survives exact arithmetic round trips.

Rationals serialize as bare integers when whole and as "p/q" strings
otherwise; nothing ever goes through floating point. File writing is
deterministic: identical data produces identical bytes.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from .core import (
    ChoreCopy,
    FractionalAllocation,
    Instance,
    MarketOutcome,
    PriceVector,
    SurplusAllocation,
    rat,
)
from .errors import InputError


def _list(value, what: str, of_rows: bool = False) -> list:
    if not isinstance(value, list) or of_rows and not all(isinstance(r, list) for r in value):
        raise InputError(f"{what} must be a list" + " of rows" * of_rows)
    return value


def _count(value, what: str) -> int:
    if type(value) is not int or value < 0:  # bool is a subclass of int
        raise InputError(f"{what} must be a non-negative integer, got {value!r}")
    return value


@contextmanager
def _all_digits():
    """Lift the interpreter's int-to-str digit limit while output is formatted:
    prices multiply up many input denominators. ``load_json`` keeps the limit."""
    if not hasattr(sys, "get_int_max_str_digits"):  # Python < 3.10.7 has no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def fmt_rat(value: Fraction):
    if value.denominator == 1:
        return int(value)
    with _all_digits():
        return f"{value.numerator}/{value.denominator}"


def rat_text(value: Fraction) -> str:
    """A rational as one string, "p/q" or a whole number, written in full."""
    with _all_digits():
        return str(value)


def dumps(payload) -> str:
    """Indented JSON with sorted keys; integers of any length are written in full."""
    with _all_digits():
        return json.dumps(payload, indent=2, sort_keys=True)


def instance_to_dict(inst: Instance) -> dict:
    return {
        "agents": inst.n,
        "chores": inst.m,
        "disutility": [[fmt_rat(v) for v in row] for row in inst.disutility],
    }


def instance_from_dict(data: dict) -> Instance:
    try:
        rows = data["disutility"]
    except (KeyError, TypeError) as exc:
        raise InputError("instance file needs a 'disutility' matrix") from exc
    inst = Instance.from_rows(_list(rows, "'disutility'", of_rows=True))
    if "agents" in data and _count(data["agents"], "'agents'") != inst.n:
        raise InputError(f"'agents' says {data['agents']} but matrix has {inst.n} rows")
    if "chores" in data and _count(data["chores"], "'chores'") != inst.m:
        raise InputError(f"'chores' says {data['chores']} but matrix has {inst.m} columns")
    return inst


def outcome_to_dict(out: MarketOutcome) -> dict:
    return {
        "x": [[fmt_rat(v) for v in row] for row in out.x.x],
        "prices": [fmt_rat(p) for p in out.prices],
        "epsilon": fmt_rat(out.epsilon),
    }


def outcome_from_dict(data: dict) -> MarketOutcome:
    try:
        rows, values = data["x"], data["prices"]
    except (KeyError, TypeError) as exc:
        raise InputError("market outcome file needs 'x' and 'prices'") from exc
    x = FractionalAllocation.from_rows(_list(rows, "'x'", of_rows=True))
    prices = PriceVector.from_values(_list(values, "'prices'"))
    # Older files list every agent's budget, which can only be 1.
    if "budgets" in data:
        budgets = _list(data["budgets"], "'budgets'")
        if len(budgets) != x.n or any(rat(b) != 1 for b in budgets):
            raise InputError(f"'budgets' must be {x.n} ones: every agent earns 1")
    return MarketOutcome(x, prices, rat(data.get("epsilon", 0)))


def bundles_to_list(alloc: SurplusAllocation) -> list:
    return [[{"chore": u.chore, "copy": u.copy} for u in sorted(bundle)]
            for bundle in alloc.bundles]


def allocation_from_dict(data: dict) -> SurplusAllocation:
    try:
        raw = data["bundles"]
        chores = data["chores"]
    except (KeyError, TypeError) as exc:
        raise InputError("allocation file needs 'bundles' and 'chores'") from exc
    bundles = []
    for entry in _list(raw, "'bundles'", of_rows=True):
        units = set()
        for item in entry:
            if not isinstance(item, dict) or "chore" not in item:
                raise InputError(f"bad bundle item {item!r}")
            units.add(ChoreCopy(_count(item["chore"], "a chore id"),
                                _count(item.get("copy", 0), "a copy index")))
        bundles.append(frozenset(units))
    return SurplusAllocation(tuple(bundles), _count(chores, "'chores'"))


def prices_from_dict(data: dict) -> PriceVector:
    if not isinstance(data, dict) or "prices" not in data:
        raise InputError("no 'prices' found; pass a prices file")
    return PriceVector.from_values(_list(data["prices"], "'prices'"))


def dump_json(path, payload: dict) -> None:
    text = dumps(payload) + "\n"
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc


def load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except OSError as exc:  # a directory, or no permission to read
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except (ValueError, RecursionError) as exc:
        # Undecodable bytes, an integer literal past the interpreter's digit
        # limit, or nesting past its recursion limit.
        raise InputError(f"{path}: {exc}") from exc
