"""JSON (de)serialization that survives exact arithmetic round trips.

Rationals serialize as bare integers when whole and as "p/q" strings
otherwise; nothing ever goes through floating point. File writing is
deterministic: identical data produces identical bytes.
"""

from __future__ import annotations

import json
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


def fmt_rat(value: Fraction):
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


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
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError("'disutility' must be a list of rows")
    inst = Instance.from_rows(rows)
    if "agents" in data and data["agents"] != inst.n:
        raise InputError(f"'agents' says {data['agents']} but matrix has {inst.n} rows")
    if "chores" in data and data["chores"] != inst.m:
        raise InputError(f"'chores' says {data['chores']} but matrix has {inst.m} columns")
    return inst


def outcome_to_dict(out: MarketOutcome) -> dict:
    return {
        "x": [[fmt_rat(v) for v in row] for row in out.x.x],
        "prices": [fmt_rat(p) for p in out.prices],
        "budgets": [fmt_rat(b) for b in out.budgets],
        "epsilon": fmt_rat(out.epsilon),
    }


def outcome_from_dict(data: dict) -> MarketOutcome:
    try:
        x = FractionalAllocation.from_rows(data["x"])
        prices = PriceVector.from_values(data["prices"])
    except (KeyError, TypeError) as exc:
        raise InputError("market outcome file needs 'x' and 'prices'") from exc
    budgets = tuple(rat(b) for b in data.get("budgets", [1] * x.n))
    epsilon = rat(data.get("epsilon", 0))
    return MarketOutcome(x, prices, budgets, epsilon)


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
    for entry in raw:
        units = set()
        for item in entry:
            try:
                units.add(ChoreCopy(int(item["chore"]), int(item.get("copy", 0))))
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"bad bundle item {item!r}") from exc
        bundles.append(frozenset(units))
    return SurplusAllocation(tuple(bundles), int(chores))


def prices_from_dict(data: dict) -> PriceVector:
    if "prices" not in data:
        raise InputError("no 'prices' found; pass a prices file")
    return PriceVector.from_values(data["prices"])


def dump_json(path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc


def load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except ValueError as exc:
        # Undecodable bytes, or an integer literal past the interpreter's
        # digit limit.
        raise InputError(f"{path}: {exc}") from exc
