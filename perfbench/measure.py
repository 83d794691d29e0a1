"""Closed-loop timing of one public entry point over an instance set.

The machine the baseline was measured on is shared, and its speed drifts by
20-30% over minutes, so raw times do not repeat from run to run. A fixed
reference kernel is timed throughout every run, outside the timed calls, and
every time is scaled by ``REFERENCE_S / mean(kernel time)``. A scaled time
reads as it would on a machine where the kernel takes exactly
``REFERENCE_S``. The mean, not the median, is used because a solver call
also averages over every slow spell it lives through.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

REFERENCE_S = 0.002  # nominal reference-kernel time; fixed for good
PROBE_EVERY_S = 0.25  # at most one probe of PROBE_RUNS kernel runs this often
PROBE_RUNS = 5


def reference_kernel() -> Fraction:
    """Fixed exact-rational work in the style of the solvers' inner loops.

    Never change it: every scaled time is relative to it.
    """
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 1)
    return total


class Speed:
    """Reference-kernel timings, taken between calls."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        for _ in range(PROBE_RUNS):
            start = time.perf_counter()
            reference_kernel()
            self.samples.append(time.perf_counter() - start)
        self._last = time.perf_counter()

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def scale(self) -> float:
        """Factor that turns a raw time into a reference-machine time."""
        return REFERENCE_S / statistics.fmean(self.samples)


def tail(times) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile): the value at rank k-10 of k sorted samples
    and the share of samples at or below it, in percent. None below 11
    samples, where no such percentile exists.
    """
    ordered = sorted(times)
    if len(ordered) < 11:
        return None
    index = len(ordered) - 11
    return ordered[index], 100 * (index + 1) / len(ordered)


@dataclass
class Tally:
    times: list[float] = field(default_factory=list)  # seconds per call
    failures: list[str] = field(default_factory=list)
    copies: int = 0
    iterations: int = 0
    proportional_exits: int = 0

    @property
    def attempted(self) -> int:
        return len(self.times)

    def instances_per_s(self) -> float:
        ok = len(self.times) - len(self.failures)
        return ok / sum(self.times) if self.times else 0.0


def run_pass(tally: Tally, instances, rows, solve, recheck, speed: Speed,
             tracer=None) -> None:
    """Solve every instance once, one at a time; re-check each output and
    probe the machine's speed outside the timed call."""
    clock = time.perf_counter
    for index, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = index
        start = clock()
        try:
            result = solve(inst)
        except Exception as exc:  # a raising call is a failed call, not a crash
            tally.times.append(clock() - start)
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            tally.times.append(clock() - start)
            try:
                problems = recheck(tally, rows[index], result)
            except (AttributeError, TypeError, ValueError) as exc:
                problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
        if problems:
            tally.failures.append(f"instance {index}: {problems[0]}")
        speed.maybe_probe()
