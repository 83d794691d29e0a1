"""Tests of the benchmark's own logic: the tail rule, self time, the
independent re-check, determinism, and the wrappers' install and removal."""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import fairchores  # noqa: E402
from measure import tail  # noqa: E402
from recheck import check_surplus, check_three  # noqa: E402
from run import END_TO_END  # noqa: E402
from spans import Point, Tracer, busy_and_self, layer_metrics, metric_units  # noqa: E402
from workloads import WORKLOADS, encode, generate  # noqa: E402


def test_tail_rule_on_known_lists():
    values = list(range(1, 61))
    random.Random(3).shuffle(values)
    assert tail(values) == (50, 100 * 50 / 60)
    assert tail(range(100)) == (89, 90.0)
    assert tail(range(11)) == (0, 100 / 11)
    assert tail(range(10)) is None


def test_self_time_on_nested_spans():
    spans = [
        ["a", 0.0, 10.0, -1, 0, "ok", None],
        ["b", 1.0, 4.0, 0, 0, "ok", None],
        ["c", 2.0, 3.0, 1, 0, "ok", None],
        ["b", 5.0, 9.0, 0, 0, "ok", None],
        ["a", 20.0, 21.0, -1, 1, "ok", None],
    ]
    busy, own, calls = busy_and_self(spans)
    assert busy == {"a": 11.0, "b": 7.0, "c": 1.0}
    assert own == {"a": 4.0, "b": 6.0, "c": 1.0}
    assert calls == {"a": 2, "b": 2, "c": 1}


def _solve_small():
    rows = [[7, 3, 12, 5, 9], [4, 8, 6, 11, 2], [10, 1, 5, 3, 8]]
    result = fairchores.fair_and_efficient(fairchores.Instance.from_rows(rows))
    bundles = [sorted((u.chore, u.copy) for u in b) for b in result.alloc.bundles]
    return rows, bundles, list(result.prices), result.epsilon


def test_recheck_accepts_solver_output():
    rows, bundles, prices, eps = _solve_small()
    assert check_surplus(rows, bundles, prices, eps, exact=False) == []


def test_recheck_rejects_dropped_chore():
    rows, bundles, prices, eps = _solve_small()
    holder = next(i for i, b in enumerate(bundles) if any(k == 0 for _, k in b))
    dropped = next(u for u in bundles[holder] if u[1] == 0)
    bundles[holder].remove(dropped)
    problems = check_surplus(rows, bundles, prices, eps, exact=False)
    assert any("never allocated" in p for p in problems)


def test_recheck_rejects_extra_copy():
    rows, bundles, prices, eps = _solve_small()
    for i in range(len(bundles)):
        bundles[i].append((0, 100 + i))
    problems = check_surplus(rows, bundles, prices, eps, exact=False)
    assert any("exceed n-1" in p for p in problems)


def test_recheck_rejects_non_mpb_unit():
    rows, bundles, prices, eps = _solve_small()
    ratios = [[rows[i][c] / prices[c] for c in range(len(prices))] for i in range(len(rows))]
    holder, unit, taker = next(
        (i, u, j) for i, b in enumerate(bundles) for u in b for j in range(len(rows))
        if j != i and ratios[j][u[0]] != min(ratios[j]))
    bundles[holder].remove(unit)
    bundles[taker].append(unit)
    problems = check_surplus(rows, bundles, prices, eps, exact=False)
    assert any("min-pain-per-buck" in p for p in problems)


def test_recheck_rejects_nonzero_epsilon_on_exact_route():
    rows, bundles, prices, eps = _solve_small()
    assert eps > 0
    assert any("exact route" in p for p in check_surplus(rows, bundles, prices, eps, exact=True))


def test_recheck_three_agent_claims():
    rows = [[1, 2, 3, 4], [4, 3, 2, 1], [2, 2, 2, 2]]
    everything = [[(c, 0) for c in range(4)], [], []]
    assert check_three(rows, everything, "tEFX")
    assert check_three(rows, everything, "Proportional")
    result = fairchores.solve_three(fairchores.Instance.from_rows(rows))
    bundles = [[(u.chore, u.copy) for u in b] for b in result.alloc.bundles]
    assert check_three(rows, bundles, result.kind) == []


def test_same_seed_gives_identical_bytes():
    for workload in WORKLOADS.values():
        first = encode(generate(workload, 7))
        assert first == encode(generate(workload, 7))
        assert first != encode(generate(workload, 8))


def _traced_counts(instances):
    tracer = Tracer()
    tracer.install()
    try:
        for index, inst in enumerate(instances):
            tracer.instance = index
            fairchores.fair_and_efficient(inst)
    finally:
        tracer.uninstall()
    return layer_metrics(tracer), tracer


def test_traced_counts_repeat_and_wrappers_come_off():
    original = fairchores.fair_and_efficient
    instances = [fairchores.Instance.from_rows(rows)
                 for rows in ([[3, 1, 2], [1, 3, 2]], [[5, 2, 7, 1], [2, 6, 3, 4], [4, 4, 1, 9]])]
    first, tracer = _traced_counts(instances)
    second, _ = _traced_counts(instances)

    def counts(values):
        return {k: v for k, v in values.items() if not k.endswith((".s", ".self_s"))}

    assert counts(first) == counts(second)
    assert first["rounding.fair_and_efficient.calls"] == 2
    assert first["verifiers.fpo_via_lp"] == 2
    assert first["flow.augmentations"] > 0
    assert not tracer.absent
    assert fairchores.fair_and_efficient is original
    assert not hasattr(fairchores.rounding.approx_ceei, "__wrapped__")
    assert not hasattr(fairchores._flow.FlowNetwork._augment, "__wrapped__")


def test_missing_attribute_is_reported_absent():
    tracer = Tracer()
    tracer.install((Point("equilibrium.gone", "fairchores.equilibrium:_no_such_step"),
                    Point("flow.gone", "fairchores._flow:FlowNetwork._no_such_method")))
    tracer.uninstall()
    assert tracer.absent == {
        "equilibrium.gone": "fairchores.equilibrium:_no_such_step",
        "flow.gone": "fairchores._flow:FlowNetwork._no_such_method",
    }


def test_benchmark_json_names_every_metric_and_workload():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metric_units()
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
