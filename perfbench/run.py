"""The fairchores benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload surplus-small --seed 1 --seconds 20 --trace 0

The run generates the workload's instance set from the seed, writes it as
instance JSON under perfbench/_work/ and loads it through
``fairchores.serialize``. One process acts as a single closed-loop client:
it solves one instance at a time through the public entry point and
re-checks every output with the benchmark's own arithmetic.

--trace 0 measures the end-to-end metrics: whole passes over the set for
about --seconds, plus set-up time measured in fresh processes.
--trace 1 makes one untraced pass and one traced pass over the set and
reports the per-layer metrics; spans go to perfbench/_work/spans-*.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every output re-checked, 1 when some did not, and 2 when the run could
not start (for example, without the library's sources beside it).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

from measure import Speed, Tally, run_pass, tail
from recheck import check_surplus, check_three
from spans import Tracer, layer_metrics, metric_units
from workloads import WORKLOADS, encode, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 5
END_TO_END = {"instances_per_s": "1/s", "solve_p50_ms": "ms", "solve_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mib": "MiB"}


class StartError(Exception):
    """The run cannot start; reported on stderr with exit code 2."""


def _bundles(result) -> list[list[tuple[int, int]]]:
    return [[(unit.chore, unit.copy) for unit in bundle] for bundle in result.alloc.bundles]


def _recheck_surplus(exact: bool):
    def recheck(tally: Tally, rows, result) -> list[str]:
        bundles = _bundles(result)
        tally.copies += sum(1 for bundle in bundles for _, k in bundle if k > 0)
        return check_surplus(rows, bundles, list(result.prices), result.epsilon, exact)
    return recheck


def _recheck_three(tally: Tally, rows, result) -> list[str]:
    tally.iterations += result.iterations
    tally.proportional_exits += result.kind == "Proportional"
    return check_three(rows, _bundles(result), result.kind)


def _entry(fairchores, kind: str):
    """The public call for a workload, looked up at call time so that a
    traced run goes through the installed wrappers."""
    if kind == "surplus":
        return lambda inst: fairchores.fair_and_efficient(inst), _recheck_surplus(False)
    if kind == "exact":
        options = fairchores.SolveOptions(exact=True)
        return lambda inst: fairchores.fair_and_efficient(inst, options), _recheck_surplus(True)
    return lambda inst: fairchores.solve_three(inst), _recheck_three


def _import_library():
    if not (SRC / "fairchores" / "__init__.py").is_file():
        raise StartError(f"no library sources at {SRC}/fairchores")
    sys.path.insert(0, str(SRC))
    import fairchores

    if Path(fairchores.__file__).resolve().parent != (SRC / "fairchores").resolve():
        raise StartError(f"imported fairchores from {fairchores.__file__}, not {SRC}")
    return fairchores


def _freeze_heap() -> None:
    """Keep the benchmark's own objects (the whole instance set) out of the
    collector's full passes, which would otherwise charge their traversal to
    whichever call happens to trigger one."""
    gc.collect()
    gc.freeze()


def setup_seconds(set_path: Path, speed: Speed) -> float:
    """Median raw time over fresh processes of import plus loading the set;
    the first process only warms the bytecode and file caches."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        speed.probe()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(set_path)],
            capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise StartError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples[1:])


def info_lines() -> list[str]:
    """Source size and runtime dependencies: reported, never gated."""
    lines = sum(len(path.read_text().splitlines())
                for path in sorted((SRC / "fairchores").glob("*.py")))
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"].get(
        "dependencies", [])
    return [f"info source_lines {lines}",
            f"info runtime_dependencies {len(deps)} {' '.join(deps)}".rstrip()]


def end_to_end(fairchores, workload, rows, set_path: Path, seconds: float):
    setup_speed = Speed()
    setup = setup_seconds(set_path, setup_speed)
    from fairchores import serialize

    instances = [serialize.instance_from_dict(data) for data in serialize.load_json(set_path)]
    _freeze_heap()
    solve, recheck = _entry(fairchores, workload.entry)
    tally, speed = Tally(), Speed()
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        run_pass(tally, instances, rows, solve, recheck, speed)
        passes += 1
        now = time.perf_counter()
        # Only whole passes count, so every instance weighs the same.
        if now - start + (now - pass_start) > seconds:
            break
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Latency is per instance: the median of its calls over the passes, which
    # drops one-off slow calls on a shared machine when there are three or more.
    per_instance = [statistics.median(tally.times[i::len(instances)])
                    for i in range(len(instances))]
    tail_value, tail_pct = tail(per_instance) or (max(per_instance), 100.0)
    raw = {
        "instances_per_s": tally.instances_per_s(),
        "solve_p50_ms": statistics.median(per_instance) * 1000,
        "solve_tail_ms": tail_value * 1000,
        "setup_s": setup,
    }
    scale = speed.scale()
    values = {
        "instances_per_s": raw["instances_per_s"] / scale,
        "solve_p50_ms": raw["solve_p50_ms"] * scale,
        "solve_tail_ms": raw["solve_tail_ms"] * scale,
        "setup_s": setup * setup_speed.scale(),
        "peak_rss_mib": peak_mib,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    notes = [f"raw {name} {value}" for name, value in raw.items()] + [
        f"speed_scale loop {scale} setup {setup_speed.scale()}",
        f"calls {tally.attempted} over {passes} pass(es) of {len(instances)} instances",
        f"solve_tail_ms is p{tail_pct:.1f} of {len(instances)} instances",
        f"failure_rate {len(tally.failures) / tally.attempted}",
        f"copies_per_instance {tally.copies / tally.attempted}",
    ]
    return tally, metrics, notes


def traced(fairchores, workload, rows, set_path: Path, seed: int):
    from fairchores import serialize

    instances = [serialize.instance_from_dict(data) for data in serialize.load_json(set_path)]
    _freeze_heap()
    solve, recheck = _entry(fairchores, workload.entry)
    plain, plain_speed = Tally(), Speed()
    run_pass(plain, instances, rows, solve, recheck, plain_speed)

    tracer = Tracer()
    tracer.install()
    try:
        loaded = []
        for index, data in enumerate(serialize.load_json(set_path)):
            tracer.instance = index
            loaded.append(serialize.instance_from_dict(data))
        _freeze_heap()
        tally, speed = Tally(), Speed()
        run_pass(tally, loaded, rows, solve, recheck, speed, tracer)
    finally:
        tracer.uninstall()

    values = layer_metrics(tracer)
    values["rounding.copies"] = tally.copies
    values["copies_per_instance"] = tally.copies / tally.attempted
    values["three_agent.iterations"] = tally.iterations
    values["three_agent.proportional_exits"] = tally.proportional_exits
    scale = speed.scale()
    values["trace_overhead_ratio"] = ((tally.instances_per_s() / scale)
                                      / (plain.instances_per_s() / plain_speed.scale()))
    for name, target in tracer.absent.items():
        for metric in values:
            if metric == name or metric.startswith(name + "."):
                values[metric] = 0
    metrics = {name: (values[name] * scale if unit == "s" else values[name], unit)
               for name, unit in metric_units().items()}

    spans_path = WORK / f"spans-{workload.name}-{seed}.json"
    spans_path.write_text(json.dumps({"absent": tracer.absent, "spans": tracer.spans}))
    notes = [f"absent {name}: {target} no longer exists, reported as 0"
             for name, target in tracer.absent.items()]
    roots = sum(values[p + ".s"] for p in ("rounding.fair_and_efficient",
                                           "three_agent.solve_three"))
    for name, unit in metric_units().items():
        if unit == "s" and name.endswith(".s") and roots:
            notes.append(f"share {name[:-2]} {values[name] / roots:.3f}")
    notes.append(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    merged = Tally(plain.times + tally.times, plain.failures + tally.failures)
    return merged, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        fairchores = _import_library()
        instances = generate(workload, args.seed)
        rows = [data["disutility"] for data in instances]
        WORK.mkdir(exist_ok=True)
        set_path = WORK / f"{workload.name}-{args.seed}.json"
        set_path.write_bytes(encode(instances))
        if args.trace:
            tally, metrics, notes = traced(fairchores, workload, rows, set_path, args.seed)
        else:
            tally, metrics, notes = end_to_end(fairchores, workload, rows, set_path,
                                               args.seconds)
    except StartError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for line in notes + info_lines() + tally.failures[:20]:
        print(line)
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not tally.failures else 1


if __name__ == "__main__":
    sys.exit(main())
