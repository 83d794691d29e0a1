import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from fairchores import cli, equilibrium, errors, rounding
from fairchores.cli import main
from fairchores.core import FractionalAllocation, MarketOutcome, PaymentGraph, PriceVector
from fairchores.errors import InputError
from fairchores.serialize import instance_from_dict, load_json
from test_flow import UNDERPAID_ROWS


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    assert run("gen", "--agents", 3, "--chores", 5, "--maxd", 20,
               "--seed", 7, "-o", path) == 0
    return path


class TestGen:
    def test_byte_identical_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("gen", "--agents", 3, "--chores", 5, "--maxd", 20, "--seed", 42, "-o", a)
        run("gen", "--agents", 3, "--chores", 5, "--maxd", 20, "--seed", 42, "-o", b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("gen", "--agents", 3, "--chores", 5, "--seed", 1, "-o", a)
        run("gen", "--agents", 3, "--chores", 5, "--seed", 2, "-o", b)
        assert a.read_bytes() != b.read_bytes()

    def test_empty_chores(self, tmp_path):
        path = tmp_path / "empty.json"
        assert run("gen", "--agents", 1, "--chores", 0, "-o", path) == 0
        inst = instance_from_dict(load_json(path))
        assert (inst.n, inst.m) == (1, 0)

    def test_round_trip_parses(self, tmp_path):
        path = tmp_path / "i.json"
        run("gen", "--agents", 4, "--chores", 8, "--maxd", 20, "--seed", 7, "-o", path)
        inst = instance_from_dict(load_json(path))
        assert (inst.n, inst.m) == (4, 8)
        assert all(1 <= v <= 20 for row in inst.disutility for v in row)

    def test_bad_params(self, tmp_path):
        assert run("gen", "--agents", 0, "--chores", 2,
                   "-o", tmp_path / "x.json") == 2

    def test_unwritable_output_is_input_error(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "x.json"
        assert run("gen", "--agents", 2, "--chores", 2, "-o", target) == 2
        assert "cannot write" in capsys.readouterr().err


class TestSolveSurplus:
    def test_solve_then_verify_each_property(self, instance_file, tmp_path):
        out = tmp_path / "out.json"
        trace = tmp_path / "trace.json"
        assert run("solve-surplus", "-i", instance_file, "-o", out,
                   "--trace", trace) == 0
        payload = load_json(out)
        assert payload["surplus"] <= 3 - 1
        assert all(c["holds"] for c in payload["certificates"])
        for prop in ("ef1", "pef1", "fpo", "po"):
            assert run("verify", "-i", instance_file, "--alloc", out,
                       "--property", prop) == 0
        events = load_json(trace)["events"]
        assert all(e["event"] in {"assign", "delete-edge", "redistribute", "add-copy"}
                   for e in events)

    def test_exact_flag(self, tmp_path):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[1, 2], [2, 1]]}))
        out = tmp_path / "o.json"
        assert run("solve-surplus", "-i", inst, "-o", out, "--exact") == 0
        payload = load_json(out)
        assert payload["epsilon"] == 0 and payload["surplus"] == 0

    def test_exact_flag_takes_no_epsilon(self, tmp_path, capsys):
        # The exact route has no income slack, so any --epsilon is bad input.
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[1, 3, 2], [2, 1, 3]]}))
        out = tmp_path / "o.json"
        assert run("solve-surplus", "--exact", "--epsilon", "1/100",
                   "-i", inst, "-o", out) == 2
        assert "takes no epsilon" in capsys.readouterr().err
        assert not out.exists()

    def test_exact_route_on_a_wide_spread_instance(self, tmp_path):
        # Entries 1..9 times 1 or 10^6. Rounding the approximate equilibrium
        # missed here at epsilon 1/75, /10 and /100 and the route exited 2;
        # the price loop at epsilon 0 reaches an exact equilibrium.
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [
            [5, 3000000, 7000000, 7, 5000000], [5, 1000000, 7000000, 1000000, 4],
            [1, 1000000, 1, 6000000, 9000000]]}))
        out = tmp_path / "o.json"
        assert run("solve-surplus", "--exact", "-i", inst, "-o", out) == 0
        payload = load_json(out)
        assert payload["epsilon"] == 0
        assert all(c["holds"] for c in payload["certificates"])
        for prop in ("ef1", "pef1", "fpo"):
            assert run("verify", "-i", inst, "--alloc", out, "--property", prop) == 0

    def test_default_route_underpaid_cycle_finishes(self, tmp_path):
        # The 7 x 15 instance whose underpaid round cycled for all 100,000
        # rounds; the floor network's minimum cut solves it at once. A child
        # process under a timeout turns a cycle into a failure.
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": UNDERPAID_ROWS}))
        out = tmp_path / "o.json"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        commands = [("solve-surplus", "-i", str(inst), "-o", str(out))]
        commands += [("verify", "-i", str(inst), "--alloc", str(out), "--property", prop)
                     for prop in ("ef1", "fpo")]
        for argv in commands:
            done = subprocess.run([sys.executable, "-m", "fairchores.cli", *argv],
                                  capture_output=True, text=True, timeout=60, env=env)
            assert done.returncode == 0, done.stderr
        assert load_json(out)["epsilon"] == "1/525"

    def test_epsilon_override(self, tmp_path):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[1, 2], [2, 1]]}))
        out = tmp_path / "o.json"
        assert run("solve-surplus", "-i", inst, "-o", out, "--epsilon", "1/40") == 0
        assert load_json(out)["epsilon"] == "1/40"

    @pytest.mark.parametrize("epsilon, code", [
        ("1/2", 2), ("9/10", 2), ("1/89", 2), ("0", 2), ("1/90", 0)])
    def test_epsilon_limited_to_proved_range(self, tmp_path, capsys, epsilon, code):
        # 1/2 used to reach rounding and exit 3 on this instance; the proved
        # range for 3 agents and 6 chores is (0, 1/90].
        inst = tmp_path / "i.json"
        assert run("gen", "--agents", 3, "--chores", 6, "--seed", 3, "-o", inst) == 0
        assert run("solve-surplus", "-i", inst, "-o", tmp_path / "o.json",
                   "--epsilon", epsilon) == code
        if code == 2:
            assert "epsilon must lie in (0, 1/90]" in capsys.readouterr().err

    def test_malformed_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("solve-surplus", "-i", bad, "-o", tmp_path / "o.json") == 2
        ragged = tmp_path / "ragged.json"
        ragged.write_text(json.dumps({"disutility": [[1, 2], [3]]}))
        assert run("solve-surplus", "-i", ragged, "-o", tmp_path / "o.json") == 2
        missing = tmp_path / "missing.json"
        assert run("solve-surplus", "-i", missing, "-o", tmp_path / "o.json") == 2
        assert run("solve-surplus", "-i", tmp_path, "-o", tmp_path / "o.json") == 2
        # The counts are checked as integers: true and 1.0 used to pass as 1.
        for agents in (True, 1.0):
            miscounted = tmp_path / "miscounted.json"
            miscounted.write_text(json.dumps({"agents": agents, "disutility": [[1, 2]]}))
            assert run("solve-surplus", "-i", miscounted, "-o", tmp_path / "o.json") == 2

    @pytest.mark.parametrize("argv", [
        ("solve-surplus",), ("oracle", "--which", "ceei-exact"),
        ("oracle", "--which", "ceei-approx")])
    def test_zero_disutility_is_input_error(self, tmp_path, capsys, argv):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[0, 1], [1, 1]]}))
        assert run(*argv, "-i", inst, "-o", tmp_path / "o.json") == 2
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_numbers_exit_two(self, tmp_path, capsys, entry):
        # json reads these literals as floats; they used to end in a
        # ValueError traceback with exit 1.
        inst = tmp_path / "i.json"
        inst.write_text('{"disutility": [[%s, 1], [1, 1]]}' % entry)
        assert run("solve-surplus", "-i", inst, "-o", tmp_path / "o.json") == 2
        assert "input error" in capsys.readouterr().err

    def test_unwritable_output_is_input_error(self, tmp_path):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[1, 2], [2, 1]]}))
        target = tmp_path / "no-such-dir" / "o.json"
        assert run("solve-surplus", "-i", inst, "-o", target) == 2

    @pytest.mark.parametrize("entry", ['"1e99999999"', '"1e-99999999"', '"0.' + '0' * 2000 + '1"',
                                       "1" * 5000])
    def test_huge_numbers_exit_two_quickly(self, tmp_path, entry):
        # The exponents used to hang building a giant integer and the long
        # integer literal ended in a traceback. A child process under a
        # timeout turns a hang into a failure.
        inst = tmp_path / "i.json"
        inst.write_text('{"disutility": [[%s, 1], [1, 1]]}' % entry)
        done = subprocess.run(
            [sys.executable, "-m", "fairchores.cli", "solve-surplus", "-i", str(inst),
             "-o", str(tmp_path / "o.json")],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 2, done.stderr
        assert "input error" in done.stderr

    def test_high_precision_input_finishes(self, tmp_path):
        # 3 x 6 entries over random 200-digit denominators. With one scale
        # for the whole matrix the fPO program's integers grew with every
        # row's denominators (over a minute per solve); each row now takes
        # its own lcm. A child process under a timeout turns a slow solve
        # into a failure.
        rng = random.Random(5)
        rows = [[f"{rng.randint(100, 999)}/{rng.randint(10**199, 10**200 - 1)}"
                 for _ in range(6)] for _ in range(3)]
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": rows}))
        out = tmp_path / "surplus.json"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        commands = [("solve-surplus", "-i", str(inst), "-o", str(out))]
        commands += [("verify", "-i", str(inst), "--alloc", str(out), "--property", prop)
                     for prop in ("ef1", "fpo")]
        for argv in commands:
            done = subprocess.run([sys.executable, "-m", "fairchores.cli", *argv],
                                  capture_output=True, text=True, timeout=60, env=env)
            assert done.returncode == 0, done.stderr

    def test_redistributed_share_past_the_digit_limit(self, tmp_path):
        # Each entry is v + 1/q over a random 495-digit q. Phase 1 splits an
        # earning whose text runs past the interpreter's 4300-digit int-to-str
        # limit; the trace event used to end the run in a ValueError traceback.
        # The share has about 8,900 digits.
        rng = random.Random(600)
        base = [[19, 16, 6, 16, 10, 12, 12, 9], [2, 4, 10, 6, 19, 18, 7, 20]]
        rows = [[f"{v * q + 1}/{q}" for v in row
                 for q in [rng.randint(10**494, 10**495 - 1)]] for row in base]
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": rows}))
        out, trace = tmp_path / "surplus.json", tmp_path / "trace.json"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        commands = [("solve-surplus", "-i", str(inst), "-o", str(out), "--trace", str(trace)),
                    ("verify", "-i", str(inst), "--alloc", str(out), "--property", "ef1")]
        for argv in commands:
            done = subprocess.run([sys.executable, "-m", "fairchores.cli", *argv],
                                  capture_output=True, text=True, timeout=60, env=env)
            assert done.returncode == 0, done.stderr
        shares = [event["share"] for event in load_json(trace)["events"]
                  if event["event"] == "redistribute"]
        assert any(len(share) > 4300 for share in shares)


class TestSolveThree:
    def test_solve_and_verify(self, instance_file, tmp_path):
        out = tmp_path / "three.json"
        trace = tmp_path / "trace.json"
        assert run("solve-three", "-i", instance_file, "-o", out,
                   "--trace", trace) == 0
        payload = load_json(out)
        assert payload["kind"] in {"tEFX", "Proportional"}
        prop = "tefx" if payload["kind"] == "tEFX" else "prop"
        assert run("verify", "-i", instance_file, "--alloc", out,
                   "--property", prop) == 0
        assert load_json(trace)["iterations"]

    def test_wrong_agent_count(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[1], [1]]}))
        assert run("solve-three", "-i", inst, "-o", tmp_path / "o.json") == 2
        assert capsys.readouterr().err.startswith("input error: expected 3 agents")

    def test_high_precision_input_finishes(self, tmp_path):
        # Distinct denominators of about 990 digits, just under MAX_TEXT_DIGITS,
        # used to make every comparison a sum over their common multiple
        # (minutes per solve). A child process under a timeout turns a slow
        # solve into a failure.
        rng = random.Random(3)
        rows = [[f"{rng.randint(0, 20)}/{10 ** 989 + 60 * i + j}" for j in range(60)]
                for i in range(3)]
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": rows}))
        out = tmp_path / "three.json"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        solve = subprocess.run(
            [sys.executable, "-m", "fairchores.cli", "solve-three", "-i", str(inst),
             "-o", str(out)],
            capture_output=True, text=True, timeout=60, env=env)
        assert solve.returncode == 0, solve.stderr
        prop = "tefx" if load_json(out)["kind"] == "tEFX" else "prop"
        verify = subprocess.run(
            [sys.executable, "-m", "fairchores.cli", "verify", "-i", str(inst),
             "--alloc", str(out), "--property", prop],
            capture_output=True, text=True, timeout=60, env=env)
        assert verify.returncode == 0, verify.stderr


class TestVerify:
    def test_violated_property_exits_one(self, tmp_path):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[1, 1, 1], [1, 1, 1]]}))
        alloc = tmp_path / "a.json"
        alloc.write_text(json.dumps({
            "chores": 3,
            "bundles": [[{"chore": 0, "copy": 0}, {"chore": 1, "copy": 0},
                         {"chore": 2, "copy": 0}], []],
        }))
        assert run("verify", "-i", inst, "--alloc", alloc, "--property", "ef1") == 1

    @pytest.mark.parametrize("prop, code", [("fpo", 0), ("ef1", 1)])
    def test_closed_stdout_keeps_the_verdict(self, tmp_path, prop, code):
        # A reader that leaves early (``verify ... | head -c 1``) used to end
        # the run in a BrokenPipeError traceback and exit code 1, even when
        # the property held. The child writes to a pipe whose read end is
        # already closed.
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[1, 1, 1], [1, 1, 1]]}))
        alloc = tmp_path / "a.json"
        alloc.write_text(json.dumps({
            "chores": 3,
            "bundles": [[{"chore": 0, "copy": 0}, {"chore": 1, "copy": 0},
                         {"chore": 2, "copy": 0}], []],
        }))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "fairchores.cli", "verify", "-i", str(inst),
                 "--alloc", str(alloc), "--property", prop],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        finally:
            os.close(write_end)
        assert done.returncode == code
        assert done.stderr == ""

    @pytest.mark.parametrize("deep", ["-i", "--alloc", "--prices"])
    def test_deeply_nested_json_exits_two(self, tmp_path, deep):
        # Nesting past the interpreter's recursion limit ended the JSON
        # decoder in a RecursionError traceback and exit 1.
        files = {"-i": tmp_path / "i.json", "--alloc": tmp_path / "a.json",
                 "--prices": tmp_path / "p.json"}
        files["-i"].write_text(json.dumps({"disutility": [[1, 2], [2, 1]]}))
        files["--alloc"].write_text(json.dumps({
            "chores": 2, "bundles": [[{"chore": 0}], [{"chore": 1}]]}))
        files["--prices"].write_text(json.dumps({"prices": [1, 1]}))
        files[deep].write_text("[" * 200_000 + "]" * 200_000)
        if deep == "-i":
            argv = ["verify", "-i", str(files["-i"]), "--property", "nondeg"]
        else:
            argv = ["verify", "--property", "pef1"]
            argv += [str(part) for flag, path in files.items() for part in (flag, path)]
        done = subprocess.run([sys.executable, "-m", "fairchores.cli", *argv],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("input error:")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("bundles, chores", [
        ([[0], [1], []], 2),   # more bundles than agents
        ([[0, 1]], 2),         # fewer bundles than agents
        ([[0], [1, 2]], 3),    # more chores than the instance has
    ])
    def test_allocation_shape_mismatch_exits_two(self, tmp_path, bundles, chores):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[1, 2], [2, 1]]}))
        alloc = tmp_path / "a.json"
        alloc.write_text(json.dumps({
            "chores": chores,
            "bundles": [[{"chore": c, "copy": 0} for c in b] for b in bundles],
        }))
        for prop in ("ef1", "prop", "po", "fpo"):
            assert run("verify", "-i", inst, "--alloc", alloc, "--property", prop) == 2
        assert run("verify", "-i", inst, "--alloc", alloc, "--property", "po",
                   "-o", tmp_path / "cert.json") == 2

    def test_negative_copy_index_exits_two(self, tmp_path):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[1, 2], [2, 1]]}))
        alloc = tmp_path / "a.json"
        alloc.write_text(json.dumps({
            "chores": 2,
            "bundles": [[{"chore": 0, "copy": 0}],
                        [{"chore": 1, "copy": 0}, {"chore": 1, "copy": -1}]],
        }))
        assert run("verify", "-i", inst, "--alloc", alloc, "--property", "ef1") == 2

    @pytest.mark.parametrize("prop, data", [
        ("ef1", {"bundles": 5, "chores": 2}),
        ("ef1", {"bundles": [5, []], "chores": 2}),
        ("ef1", {"bundles": [[{"chore": 0}], [{"chore": 1}]], "chores": "abc"}),
        ("ef1", {"bundles": [[{"chore": 0}], [{"chore": 1}]], "chores": [2]}),
        ("ef1", {"bundles": [[{"chore": 0}], [{"chore": 1.5}]], "chores": 2}),
        ("ef1", {"bundles": [[{"chore": 0}], [{"chore": 1}]], "chores": 10**12}),
        ("pef1", {"bundles": [[{"chore": 0}], [{"chore": 1}]], "chores": 2, "prices": None}),
        ("pef1", {"bundles": [[{"chore": 0}], [{"chore": 1}]], "chores": 2, "prices": "12"}),
        ("fisher", {"x": [[1, 0], [0, 1]], "prices": [1, 1], "budgets": 3}),
        ("fisher", {"x": [[1, 0], [0]], "prices": [1, 1]}),
        ("fisher", {"x": [[1, 0], [0, 1, 0]], "prices": [1, 1]}),
        ("fisher", {"x": ["10", "01"], "prices": [1, 1]}),
    ])
    def test_malformed_file_shapes_exit_two(self, tmp_path, capsys, prop, data):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[1, 2], [2, 1]]}))
        alloc = tmp_path / "a.json"
        alloc.write_text(json.dumps(data))
        assert run("verify", "-i", inst, "--alloc", alloc, "--property", prop) == 2
        assert capsys.readouterr().err.startswith("input error:")

    def test_nondeg_needs_no_alloc(self, tmp_path):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[1, 2, 4]]}))
        assert run("verify", "-i", inst, "--property", "nondeg") == 0
        tied = tmp_path / "tied.json"
        tied.write_text(json.dumps({"disutility": [[1, 1]]}))
        assert run("verify", "-i", tied, "--property", "nondeg") == 1

    def test_pef1_with_prices_file(self, tmp_path):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[1, 1], [1, 1]]}))
        alloc = tmp_path / "a.json"
        alloc.write_text(json.dumps({
            "chores": 2,
            "bundles": [[{"chore": 0, "copy": 0}], [{"chore": 1, "copy": 0}]],
        }))
        prices = tmp_path / "p.json"
        prices.write_text(json.dumps({"prices": [1, 1]}))
        assert run("verify", "-i", inst, "--alloc", alloc, "--property", "pef1",
                   "--prices", prices) == 0
        prices.write_text(json.dumps({"prices": [1]}))
        assert run("verify", "-i", inst, "--alloc", alloc, "--property", "pef1",
                   "--prices", prices) == 2

    def test_certificate_written_to_file(self, tmp_path):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[1, 2, 4]]}))
        out = tmp_path / "cert.json"
        run("verify", "-i", inst, "--property", "nondeg", "-o", out)
        assert load_json(out)["holds"] is True

    def test_po_violation_written_to_file(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[1, 2], [2, 1]]}))
        alloc = tmp_path / "a.json"
        alloc.write_text(json.dumps({
            "chores": 2,
            "bundles": [[{"chore": 1, "copy": 0}], [{"chore": 0, "copy": 0}]],
        }))
        cert = tmp_path / "cert.json"
        assert run("verify", "-i", inst, "--alloc", alloc, "--property", "po",
                   "-o", cert) == 1
        assert load_json(cert) == json.loads(capsys.readouterr().out) == {
            "property": "PO", "holds": False,
            "witness": {"dominating": [[{"chore": 0, "copy": 0}], [{"chore": 1, "copy": 0}]]}}

    def test_po_of_one_agent_holding_many_units(self, tmp_path, capsys):
        # The brute-force search recursed once per unit, so one agent with
        # 1,500 chores ended in a RecursionError traceback and exit 1.
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[1] * 1500]}))
        alloc = tmp_path / "a.json"
        alloc.write_text(json.dumps({"chores": 1500, "bundles": [
            [{"chore": c, "copy": 0} for c in range(1500)]]}))
        assert run("verify", "-i", inst, "--alloc", alloc, "--property", "po") == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("prices, witness", [
        ([1, 1], {"agent": 0, "chore": 0, "condition": "min-pain-per-buck"}),
        # Whole rationals are strings in a witness, as in every other one.
        ([2, 1], {"agent": 0, "condition": "incomes", "income": "2"}),
    ])
    def test_failing_fisher_witness(self, tmp_path, capsys, prices, witness):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[2, 1], [1, 2]]}))
        outcome = tmp_path / "o.json"
        outcome.write_text(json.dumps({"x": [[1, 0], [0, 1]], "prices": prices}))
        assert run("verify", "-i", inst, "--alloc", outcome, "--property", "fisher") == 1
        assert json.loads(capsys.readouterr().out) == {
            "property": "FisherEq", "holds": False, "witness": witness}

    @pytest.mark.parametrize("budgets, prices, code", [
        ([1, 1], [1, 1], 0),
        # Every agent earns 1: budgets [1, 2] used to let agent 1 earn 2.
        ([1, 2], [1, 2], 2),
    ])
    def test_fisher_budgets_must_be_ones(self, tmp_path, capsys, budgets, prices, code):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[1, 2], [2, 1]]}))
        outcome = tmp_path / "o.json"
        outcome.write_text(json.dumps(
            {"x": [[1, 0], [0, 1]], "prices": prices, "budgets": budgets}))
        assert run("verify", "-i", inst, "--alloc", outcome, "--property", "fisher") == code
        if code == 2:
            assert capsys.readouterr().err.startswith("input error: 'budgets'")


class TestOracle:
    def test_exact_equilibrium_file_verifies(self, tmp_path):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[1, 2], [2, 1]]}))
        eq = tmp_path / "eq.json"
        assert run("oracle", "-i", inst, "--which", "ceei-exact", "-o", eq) == 0
        assert run("verify", "-i", inst, "--alloc", eq, "--property", "fisher") == 0

    def test_exact_oracle_never_calls_approx_ceei(self, tmp_path):
        # The exact oracle must stay independent of the price-adjustment
        # solver it checks, so a child process replaces approx_ceei in every
        # module that holds it with a function that raises, then runs the
        # oracle and exact_ceei. The pipeline's exact route, which is
        # approx_ceei at epsilon 0, shows that the replacement is reached.
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8]]}))
        eq = tmp_path / "eq.json"
        script = textwrap.dedent("""
            import sys
            from fairchores import SolveOptions, cli, equilibrium, fair_and_efficient
            from fairchores.core import Instance

            def refuse(*args, **kwargs):
                raise RuntimeError("approx_ceei was called")

            real = equilibrium.approx_ceei
            for module in list(sys.modules.values()):
                if getattr(module, "approx_ceei", None) is real:
                    module.approx_ceei = refuse
            inst = Instance.from_rows([[1, 2, 3], [3, 1, 2], [2, 3, 1]])
            equilibrium.exact_ceei(inst)
            try:
                fair_and_efficient(inst, SolveOptions(exact=True))
            except RuntimeError as error:
                assert str(error) == "approx_ceei was called"
            else:
                sys.exit("the exact route did not reach approx_ceei")
            sys.exit(cli.main(sys.argv[1:]))
        """)
        done = subprocess.run(
            [sys.executable, "-c", script, "oracle", "-i", str(inst),
             "--which", "ceei-exact", "-o", str(eq)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 0, done.stderr
        assert run("verify", "-i", inst, "--alloc", eq, "--property", "fisher") == 0

    def test_approx_equilibrium_file_verifies(self, instance_file, tmp_path):
        eq = tmp_path / "eq.json"
        assert run("oracle", "-i", instance_file, "--which", "ceei-approx",
                   "-o", eq) == 0
        assert run("verify", "-i", instance_file, "--alloc", eq,
                   "--property", "fisher") == 0

    def test_approx_equilibrium_at_epsilon_zero_is_exact(self, instance_file, tmp_path):
        eq = tmp_path / "eq.json"
        assert run("oracle", "-i", instance_file, "--which", "ceei-approx",
                   "--epsilon", "0", "-o", eq) == 0
        assert load_json(eq)["epsilon"] == 0
        assert run("verify", "-i", instance_file, "--alloc", eq,
                   "--property", "fisher") == 0

    def test_prices_past_the_digit_limit_are_written_in_full(self, tmp_path, monkeypatch):
        # High-precision input gives prices with thousands of digits, past the
        # interpreter's 4300-digit limit on int-to-str conversion; writing
        # them used to end in a ValueError traceback and exit 1.
        prices = [Fraction(10**5000 + 1, 7**6000), Fraction(3**10000)]
        outcome = MarketOutcome(FractionalAllocation.from_rows([[1, 1]]),
                                PriceVector(tuple(prices)), Fraction(0))
        monkeypatch.setattr(cli, "approx_ceei", lambda inst, eps: outcome)
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[1, 2]]}))
        out = tmp_path / "o.json"
        limit = sys.get_int_max_str_digits()
        assert run("oracle", "-i", inst, "--which", "ceei-approx", "-o", out) == 0
        assert sys.get_int_max_str_digits() == limit
        # Input parsing keeps the limit: the whole price is a long literal.
        with pytest.raises(InputError):
            load_json(out)
        try:
            sys.set_int_max_str_digits(0)
            assert [Fraction(p) for p in json.loads(out.read_text())["prices"]] == prices
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("extra", [(), ("--epsilon", "1/10")])
    def test_approx_without_chores_exits_two(self, tmp_path, capsys, extra):
        # Without --epsilon the default 1/(5nm) used to divide by zero.
        inst = tmp_path / "i.json"
        assert run("gen", "--agents", 2, "--chores", 0, "-o", inst) == 0
        assert run("oracle", "-i", inst, "--which", "ceei-approx",
                   "-o", tmp_path / "o.json", *extra) == 2
        assert "no chores" in capsys.readouterr().err

    def test_oracle_too_large_is_internal_error(self, tmp_path):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[1] * 9] * 2}))
        assert run("oracle", "-i", inst, "--which", "ceei-exact",
                   "-o", tmp_path / "o.json") == 2


def _one_agent_takes_all(earnings):
    """Every chore's whole payment moved to agent 0: clears, but incomes fail."""
    merged = {}
    for (_, c), amount in earnings.items():
        merged[(0, c)] = merged.get((0, c), 0) + amount
    return merged


class TestInternalBugsExitThree:
    """A corrupted outcome is a bug: exit 3."""

    @pytest.fixture
    def small(self, tmp_path):
        # 2 x 3 is small enough for the exact oracle, ceei-exact, to run.
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"disutility": [[1, 2, 3], [3, 1, 2]]}))
        return inst

    @staticmethod
    def corrupt_outcomes(monkeypatch, only_exact=False):
        real = equilibrium._outcome_from_earnings

        def corrupted(inst, prices, earnings, epsilon, *rest):
            if only_exact and epsilon != 0:
                return real(inst, prices, earnings, epsilon, *rest)
            return real(inst, prices, _one_agent_takes_all(earnings), epsilon, *rest)

        monkeypatch.setattr(equilibrium, "_outcome_from_earnings", corrupted)

    @staticmethod
    def solve(inst, tmp_path, capsys):
        assert run("solve-surplus", "-i", inst, "-o", tmp_path / "o.json") == 3
        err = capsys.readouterr().err
        assert "internal failure" in err
        return err

    def test_routed_outcome_failing_verification(self, small, tmp_path, capsys, monkeypatch):
        self.corrupt_outcomes(monkeypatch)
        assert "routed outcome failed verification" in self.solve(small, tmp_path, capsys)

    def test_routing_disagreeing_with_itself(self, small, tmp_path, capsys, monkeypatch):
        # A cap-only flow that routes every chore with no agent underpaid is
        # itself a routing within the income bounds, so a bounded routing
        # that fails on the same round is a bug.
        monkeypatch.setattr(equilibrium, "_route_within_bounds", lambda *args: None)
        assert "routing disagreed with itself" in self.solve(small, tmp_path, capsys)

    def test_exact_route_accepting_a_rejected_outcome(self, small, tmp_path, capsys,
                                                       monkeypatch):
        # The exact route is approx_ceei at epsilon 0, and the oracle the
        # support solver; each rejects its own corrupted epsilon-0 outcome.
        self.corrupt_outcomes(monkeypatch, only_exact=True)
        out = tmp_path / "o.json"
        for argv, message in (
                (("solve-surplus", "--exact", "-i", small, "-o", out),
                 "approx_ceei: routed outcome failed verification"),
                (("oracle", "--which", "ceei-exact", "-i", small, "-o", out),
                 "support solver accepted an outcome the verifier rejects")):
            assert run(*argv) == 3
            err = capsys.readouterr().err
            assert "internal failure" in err
            assert message in err

    def test_cycle_cancellation_breaking_the_equilibrium(self, small, tmp_path,
                                                         capsys, monkeypatch):
        # The rounding cancels cycles on the earnings it reads off the
        # outcome; a corrupted hand-off fails the phase-1 income window.
        real = rounding.payment_graph

        def corrupted(x, prices):
            graph = real(x, prices)
            return PaymentGraph.from_edges(
                graph.n, graph.m, _one_agent_takes_all(graph.edge_dict()))

        monkeypatch.setattr(rounding, "payment_graph", corrupted)
        assert "agent 0 income 2 left" in self.solve(small, tmp_path, capsys)


ERROR_CLASSES = [value for value in vars(errors).values()
                 if isinstance(value, type) and value.__module__ == errors.__name__]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_class_has_its_exit_code(tmp_path, capsys, monkeypatch, cls):
    # A bug exits 3, bad input 2; any other library error is an input the
    # library cannot serve (a size cap or a round budget), also 2.
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "_cmd_gen", fail)
    code = run("gen", "--agents", 1, "--chores", 1, "-o", tmp_path / "i.json")
    err = capsys.readouterr().err
    if cls is errors.AlgorithmBugError:
        assert (code, err.startswith("internal failure")) == (3, True), err
    elif cls is errors.InputError:
        assert (code, err.startswith("input error:")) == (2, True), err
    else:
        assert (code, err.startswith("error:")) == (2, True), err
