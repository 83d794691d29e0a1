"""The four pinned instance sets, generated from a workload seed.

Each set is a stratified sample: the shapes (n, m) are fixed by the workload
and repeat in a fixed order, and only the disutility values come from the
seed. Fixing the shapes keeps the run-to-run spread of the throughput small
enough to gate on, because solve time depends far more on the shape than on
the values. See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "surplus", "exact" or "three": which public call solves it
    shapes: tuple[tuple[int, int], ...]  # (n, m) of every instance, in order
    low: int  # disutilities are integers in [low, high] ...
    high: int
    taste: int | None = None  # ... or a shared chore size in [low, high] plus [0, taste]


WORKLOADS = {
    w.name: w for w in (
        # Two criterion-1 shapes of similar cost. The whole criterion-1 range
        # spans 10 ms to 1.3 s, so its median moved 4% per rank and read
        # 91-125 ms across ten seeds.
        Workload("surplus-small", "surplus", ((4, 7), (3, 10)) * 35, 1, 20),
        # n*m just above the 600 LP-variable cap, so fPO is certified through
        # the equilibrium and the time goes to the price-adjustment loop.
        Workload("surplus-large", "surplus", ((21, 30), (25, 25)) * 10, 1, 20),
        # Agents that broadly agree on chore sizes have a connected
        # equilibrium, the case where support enumeration runs longest.
        # Independent values make solve time bimodal, and m = 7 makes it
        # bimodal between 0.1 s and 3 s; neither gives a steady 20 s run.
        Workload("exact-small", "exact", ((3, 6),) * 48, 1, 20, taste=6),
        Workload("three-agent", "three",
                 tuple((3, m) for m in range(10, 151)) * 4, 0, 20),
    )
}


def generate(workload: Workload, seed: int) -> list[dict]:
    """Instance dicts in the library's instance-file format, from the seed alone."""
    rng = random.Random(f"{workload.name}:{seed}")
    instances = []
    for n, m in workload.shapes:
        if workload.taste is None:
            rows = [[rng.randint(workload.low, workload.high) for _ in range(m)]
                    for _ in range(n)]
        else:
            size = [rng.randint(workload.low, workload.high) for _ in range(m)]
            rows = [[s + rng.randint(0, workload.taste) for s in size] for _ in range(n)]
        instances.append({"agents": n, "chores": m, "disutility": rows})
    return instances


def encode(instances: list[dict]) -> bytes:
    """Canonical bytes of an instance set: one JSON list, one instance per line."""
    lines = [json.dumps(inst, sort_keys=True, separators=(",", ":")) for inst in instances]
    return ("[\n" + ",\n".join(lines) + "\n]\n").encode()
