"""Property-based checks of the CLI exit-code contract.

Malformed instance files exit 2, and valid instances never exit 3 (an
internal failure). Either way ``main`` returns a code: an exception escaping
it would be a traceback. Examples are derandomized so the suite repeats.
"""

import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

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
