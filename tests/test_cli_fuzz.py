"""Property-based checks of the CLI exit-code contract.

Malformed instance, allocation, market-outcome and prices files exit 2, and
valid instances never exit 3 (an internal failure). Either way ``main`` returns a code: an exception escaping
it would be a traceback. Examples are derandomized so the suite repeats.
"""

import copy
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairchores.cli import main

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

# Every command that reads an instance file before anything else.
COMMANDS = [
    ["solve-surplus"],
    ["solve-surplus", "--exact"],
    ["solve-three"],
    ["verify", "--property", "nondeg"],
    ["oracle", "--which", "ceei-exact"],
    ["oracle", "--which", "ceei-approx"],
]


def run_on(text: str, command: list[str]):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(text)
        argv = [command[0], "-i", str(path), *command[1:]]
        if command[0] != "verify":
            argv += ["-o", str(Path(tmp) / "out.json")]
        return main(argv)


good_entry = st.one_of(
    st.integers(1, 9),
    st.fractions(min_value=Fraction(1, 6), max_value=9, max_denominator=6).map(str),
)

# Entries with no non-negative rational value.
bad_entry = st.one_of(
    st.integers(max_value=-1),
    st.floats(max_value=0, exclude_max=True),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.none(),
    st.text(alphabet="abcdefxyz/.-+ _", max_size=6),  # no digit, so no number
    st.sampled_from(["1/0", "-1/2", "2/-3", "1e99999999", "0x10"]),
    st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=1),
)

shape = st.tuples(st.integers(1, 4), st.integers(1, 5))


def matrix(entries, dims):
    n, m = dims
    return st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n)


@st.composite
def malformed_instance(draw) -> str:
    kind = draw(st.sampled_from(
        ["bad-entry", "ragged", "no-agents", "not-a-matrix", "wrong-count", "not-json"]))
    if kind == "not-json":
        return "{" + draw(st.text(max_size=20))
    if kind == "no-agents":
        return json.dumps({"disutility": []})
    if kind == "not-a-matrix":
        rows = draw(st.one_of(st.integers(), st.text(max_size=5), st.none(),
                              st.lists(st.integers(0, 9), min_size=1, max_size=3)))
        return json.dumps({"disutility": rows})
    rows = draw(matrix(good_entry, draw(shape)))
    if kind == "bad-entry":
        i, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows[0]) - 1))
        rows[i][c] = draw(bad_entry)
        return json.dumps({"disutility": rows})
    if kind == "ragged":
        rows.append(rows[0] + [0])
        return json.dumps({"disutility": rows})
    return json.dumps({"disutility": rows, "agents": len(rows) + draw(st.integers(1, 3))})


@FUZZ
@given(malformed_instance(), st.sampled_from(COMMANDS))
def test_malformed_instances_exit_two(text, command):
    assert run_on(text, command) == 2


@st.composite
def valid_instance(draw) -> list:
    rows = draw(matrix(good_entry, (draw(st.integers(1, 4)), draw(st.integers(0, 5)))))
    if rows[0] and draw(st.booleans()):
        # Zero disutilities are valid input that the market solvers decline.
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, len(rows[0]) - 1))] = 0
    return rows


@FUZZ
@given(valid_instance())
def test_valid_instances_never_exit_three(rows):
    text = json.dumps({"disutility": rows})
    for command in COMMANDS:
        assert run_on(text, command) in (0, 1, 2), command


# A valid instance with a valid allocation (prices embedded) and outcome for
# it; the fuzzed files below break one part of these.
INSTANCE = {"disutility": [[1, 2], [2, 1]]}
ALLOCATION = {"bundles": [[{"chore": 0}], [{"chore": 1, "copy": 0}]], "chores": 2,
              "prices": [1, 1]}
OUTCOME = {"x": [[1, 0], [0, 1]], "prices": [1, 1], "budgets": [1, 1], "epsilon": 0}

not_a_list = st.one_of(
    st.integers(), st.floats(), st.text(max_size=5), st.none(), st.booleans(),
    st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=1),
)
not_a_count = st.one_of(
    st.integers(max_value=-1), st.floats(), st.text(max_size=4), st.none(), st.booleans(),
    st.lists(st.integers(0, 3), max_size=2),
)
not_a_rational = st.one_of(
    st.none(), st.booleans(), st.text(alphabet="abcxyz/", max_size=4),
    st.lists(st.integers(0, 9), max_size=2), st.sampled_from([math.nan, math.inf]),
)
bad_price = st.one_of(bad_entry, st.just(0))
wrong_length = st.lists(st.integers(1, 9), max_size=4).filter(lambda v: len(v) != 2)

# What each file must hold, and where one bad value can go.
FILES = {
    "allocation": (ALLOCATION, ["bundles", "chores"], {
        ("bundles",): not_a_list,
        ("bundles", 1): not_a_list,
        ("bundles", 1, 0): st.one_of(
            st.integers(), st.text(max_size=3), st.none(), st.lists(st.integers(0, 3)),
            st.dictionaries(st.sampled_from(["copy", "chores"]), st.integers(0, 3))),
        ("bundles", 1, 0, "chore"): st.one_of(not_a_count, st.integers(2, 10**30)),
        ("bundles", 1, 0, "copy"): not_a_count,
        ("chores",): st.one_of(not_a_count, st.integers(0, 10**30).filter(lambda v: v != 2)),
    }),
    "prices": (ALLOCATION, ["prices"], {
        ("prices",): st.one_of(not_a_list, wrong_length),
        ("prices", 1): bad_price,
    }),
    "outcome": (OUTCOME, ["x", "prices"], {
        ("x",): st.one_of(not_a_list, st.lists(st.integers(0, 1), min_size=1, max_size=2)),
        ("x", 1): st.one_of(not_a_list, st.lists(st.integers(0, 1), max_size=3).filter(
            lambda row: row != [0, 1])),
        ("x", 1, 1): bad_entry,
        ("prices",): st.one_of(not_a_list, wrong_length),
        ("prices", 0): bad_price,
        ("budgets",): st.one_of(not_a_list, wrong_length),
        ("budgets", 0): st.one_of(st.integers().filter(lambda v: v != 1), not_a_rational),
        ("epsilon",): st.one_of(st.integers(max_value=-1), st.integers(min_value=1),
                                not_a_rational),
    }),
}

# FILE is the fuzzed file; ALLOC a valid allocation beside it.
FILE_COMMANDS = {
    "allocation": [
        ["verify", "--property", "ef1", "--alloc", "FILE"],
        ["verify", "--property", "pef1", "--alloc", "FILE"],
        ["verify", "--property", "po", "--alloc", "FILE"],
    ],
    "prices": [
        ["verify", "--property", "pef1", "--alloc", "FILE"],
        ["verify", "--property", "pef1", "--alloc", "ALLOC", "--prices", "FILE"],
    ],
    "outcome": [["verify", "--property", "fisher", "--alloc", "FILE"]],
}


@st.composite
def malformed_file(draw) -> tuple[str, str]:
    """A file kind and a malformed file of that kind: not JSON, not an object,
    missing a required key, or the valid file with one value of the wrong shape."""
    kind = draw(st.sampled_from(sorted(FILES)))
    base, required, edits = FILES[kind]
    how = draw(st.sampled_from(["not-json", "not-an-object", "missing", "edit"]))
    if how == "not-json":
        return kind, "{" + draw(st.text(max_size=20))
    if how == "not-an-object":
        return kind, json.dumps(draw(st.one_of(
            st.lists(st.integers(0, 9), max_size=2), st.integers(), st.text(max_size=5),
            st.none())))
    data = copy.deepcopy(base)
    if how == "missing":
        del data[draw(st.sampled_from(required))]
        return kind, json.dumps(data)
    *path, last = draw(st.sampled_from(sorted(edits, key=str)))
    target = data
    for key in path:
        target = target[key]
    target[last] = draw(edits[(*path, last)])
    return kind, json.dumps(data)


def run_file_command(command: list[str], text: str):
    """One FILE_COMMANDS entry on INSTANCE, with ``text`` as the FILE."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {"FILE": tmp / "file.json", "ALLOC": tmp / "alloc.json"}
        files["FILE"].write_text(text)
        files["ALLOC"].write_text(json.dumps(ALLOCATION))
        (tmp / "inst.json").write_text(json.dumps(INSTANCE))
        argv = [command[0], "-i", str(tmp / "inst.json"),
                *(str(files.get(arg, arg)) for arg in command[1:])]
        return main(argv)


@FUZZ
@given(malformed_file())
def test_malformed_allocation_outcome_and_prices_files_exit_two(case):
    kind, text = case
    for command in FILE_COMMANDS[kind]:
        assert run_file_command(command, text) == 2, (command, text)


@pytest.mark.parametrize("change", [
    {"epsilon": 5},
    {"budgets": [-1, 1]},
    # Every agent earns 1, so budgets other than ones would be ignored
    # rather than checked.
    {"epsilon": "1/2", "budgets": [7, 9]},
])
def test_impossible_slack_or_budgets_exit_two(change, capsys):
    text = json.dumps({**OUTCOME, **change})
    assert run_file_command(FILE_COMMANDS["outcome"][0], text) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_unbroken_files_pass():
    for kind, commands in FILE_COMMANDS.items():
        text = json.dumps(OUTCOME if kind == "outcome" else ALLOCATION)
        for command in commands:
            assert run_file_command(command, text) == 0, command
