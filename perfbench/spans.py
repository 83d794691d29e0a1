"""Spans recorded from outside the library, by wrapping its layer entry points.

``Tracer.install`` replaces module and class attributes of the loaded
``fairchores`` modules with timing wrappers, in this process only, and
``uninstall`` puts the originals back. Each call becomes a span record
``(name, start, end, parent, instance, outcome, note)`` kept in memory; the
outcome is "ok", "none" (the call returned None) or the exception class name.
An attribute that no longer exists is reported as absent, never as an error,
so the benchmark keeps running after a layer is redesigned.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Point:
    name: str  # metric prefix
    target: str  # "module:attribute" or "module:Class.attribute"
    timed: bool = True  # report .s/.self_s/.calls; else only the call count as ``name``
    note: Optional[Callable] = None  # (args, kwargs) -> number kept on the span


def _lp_variables(args, kwargs):
    return len(args[0] if args else kwargs["cost"])


POINTS = (
    Point("rounding.fair_and_efficient", "fairchores.rounding:fair_and_efficient"),
    Point("three_agent.solve_three", "fairchores.three_agent:solve_three"),
    Point("equilibrium.approx_ceei", "fairchores.equilibrium:approx_ceei"),
    Point("equilibrium.exact_ceei", "fairchores.equilibrium:exact_ceei"),
    Point("equilibrium.make_acyclic", "fairchores.equilibrium:make_acyclic"),
    Point("equilibrium.verify_fisher_equilibrium",
          "fairchores.equilibrium:verify_fisher_equilibrium"),
    Point("equilibrium.price_rounds", "fairchores.equilibrium:_route_within_bounds", False),
    Point("equilibrium.blocked_rounds", "fairchores.equilibrium:_route_plain", False),
    Point("flow.max_flow", "fairchores._flow:FlowNetwork.max_flow"),
    Point("flow.augmentations", "fairchores._flow:FlowNetwork._augment", False),
    Point("flow.reachable", "fairchores._flow:FlowNetwork.reachable"),
    Point("core.payment_graph", "fairchores.core:payment_graph"),
    Point("core.to_networkx", "fairchores.core:PaymentGraph.to_networkx"),
    Point("verifiers.check_fpo", "fairchores.verifiers:check_fpo"),
    Point("simplex.solve_lp", "fairchores.simplex:solve_lp", note=_lp_variables),
    Point("verifiers.check_ef1", "fairchores.verifiers:check_ef1"),
    Point("verifiers.check_pef1", "fairchores.verifiers:check_pef1"),
    Point("verifiers.check_fisher_integral", "fairchores.verifiers:check_fisher_integral"),
    Point("verifiers.check_tefx", "fairchores.verifiers:check_tefx"),
    Point("verifiers.check_proportional", "fairchores.verifiers:check_proportional"),
    Point("rounding.from_outcome", "fairchores.rounding:RoundingState.from_outcome"),
    Point("rounding.phase1", "fairchores.rounding:phase1"),
    Point("rounding.phase2", "fairchores.rounding:phase2"),
    Point("rounding.checkpoints", "fairchores.rounding:RoundingState.checkpoint", False),
    Point("three_agent.perturb_nondegenerate", "fairchores.three_agent:perturb_nondegenerate"),
    Point("three_agent.terminal_assignment", "fairchores.three_agent:terminal_assignment"),
    Point("serialize.instance_from_dict", "fairchores.serialize:instance_from_dict"),
)

# Metrics computed from spans and results rather than read off one point.
DERIVED = {
    "equilibrium.route_success_ratio": "ratio",
    "simplex.lp_vars_max": "count",
    "verifiers.fpo_via_lp": "count",
    "verifiers.fpo_via_equilibrium": "count",
    "rounding.copies": "count",
    "copies_per_instance": "count",
    "three_agent.iterations": "count",
    "three_agent.proportional_exits": "count",
    "trace_overhead_ratio": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for point in POINTS:
        if point.timed:
            units[point.name + ".s"] = "s"
            units[point.name + ".self_s"] = "s"
            units[point.name + ".calls"] = "count"
        else:
            units[point.name] = "count"
    units.update(DERIVED)
    return units


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.instance: Optional[int] = None  # id stamped on every new span
        self.absent: dict[str, str] = {}  # point name -> missing attribute
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            extra = note(args, kwargs) if note else None
            spans.append(None)  # keeps the index while children append
            stack.append(index)
            outcome = "ok"
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if result is None:
                    outcome = "none"
                return result
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                # A tuple of plain values, which the collector stops tracking.
                spans[index] = (name, start, end, parent, self.instance, outcome, extra)

        return traced

    def install(self, points=POINTS) -> None:
        """Wrap every point; a point whose attribute is gone goes to ``absent``."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "fairchores" or key.startswith("fairchores.")]
        for point in points:
            module_name, _, path = point.target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *classes, attr = path.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent[point.name] = point.target
                continue
            if classes:
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(point.name, raw.__func__, point.note))
                else:
                    wrapped = self.wrap(point.name, raw, point.note)
                self._set(owner, attr, wrapped)
            else:
                # Rebind every module-level reference, including the names
                # other modules took with ``from ... import``.
                wrapped = self.wrap(point.name, raw, point.note)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._set(mod, key, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def busy_and_self(spans) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Busy time, self time and call count per span name.

    Self time is a span's duration minus the time its direct children cover;
    spans nest strictly because the benchmark runs one call at a time.
    """
    children = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent] += end - start
    busy, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for index, (name, start, end, *_) in enumerate(spans):
        busy[name] += end - start
        own[name] += end - start - children[index]
        calls[name] += 1
    return dict(busy), dict(own), dict(calls)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-point metrics plus the span-derived ratios and route counts."""
    spans = tracer.spans
    busy, own, calls = busy_and_self(spans)
    values: dict[str, float] = {}
    for point in POINTS:
        if point.timed:
            values[point.name + ".s"] = busy.get(point.name, 0.0)
            values[point.name + ".self_s"] = own.get(point.name, 0.0)
            values[point.name + ".calls"] = calls.get(point.name, 0)
        else:
            values[point.name] = calls.get(point.name, 0)

    rounds = [s for s in spans if s[0] == "equilibrium.price_rounds"]
    accepted = sum(1 for s in rounds if s[5] == "ok")
    values["equilibrium.route_success_ratio"] = accepted / len(rounds) if rounds else 0.0
    values["simplex.lp_vars_max"] = max(
        (s[6] for s in spans if s[0] == "simplex.solve_lp"), default=0)
    lp_parents = set()
    for span in spans:
        if span[0] == "simplex.solve_lp":
            parent = span[3]
            while parent >= 0 and spans[parent][0] != "verifiers.check_fpo":
                parent = spans[parent][3]
            lp_parents.add(parent)
    lp_parents.discard(-1)
    values["verifiers.fpo_via_lp"] = len(lp_parents)
    values["verifiers.fpo_via_equilibrium"] = sum(
        1 for s in spans
        if s[0] == "verifiers.check_fpo" and s[5] == "InstanceTooLargeError")
    return values
