"""The exit-code contract under fuzzing: mutated argv for every subcommand,
and mutated fields of the bundled scenarios.

Whatever the input, ``main`` returns or exits with 0, 1 or 2, raises no
other exception, prints no traceback or warning, and writes ``error:`` to
stderr whenever the code is 2.  The mutants hold no valid input that is
expensive to run: no huge count, and no detector dimension from 9 to 2**62.
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzduality.cli import main

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SATURATING = SCENARIO_DIR / "saturating_pure_detector.json"
QUARTER_TURN = SCENARIO_DIR / "quarter_turn_detector.json"

# one cheap valid call of each subcommand
VALID_ARGV = {
    "report": ["report", "--scenario", str(SATURATING)],
    "check-jm": ["check-jm", "--m0", "0.3", "--m", "0.1", "--n", "0.2", "--oracle", "reduced",
                 "--resolution", "0.05"],
    "sweep": ["sweep", "--count", "2", "--seed", "3", "--dim", "2"],
    "sample": ["sample", "--scenario", str(SATURATING), "--shots", "100", "--seed", "1"],
    "gamma-slope": ["gamma-slope", "--scenario", str(QUARTER_TURN), "--p-step", "0.0001"],
    "verify": ["verify", "--count", "1", "--seed", "2"],
}
# stand-ins for an option value, most of them for a number: non-finite,
# negative, huge, non-integral, empty and malformed
ARGV_MUTANTS = ("nan", "inf", "-inf", "-1", "-0", "-1e300", "1e300", str(2**64), "10" * 20,
                "0.5", "1e3", "", "0x10", "1,5", "--")

SCENARIOS = {path.name: json.loads(path.read_text()) for path in SCENARIO_DIR.glob("*.json")}
MISSING = object()  # the field is deleted
GOOD_BASIS = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
# stand-ins for a field: a missing key, wrong types, non-finite and out-of-range
# numbers, and matrices of the wrong shape or with garbage entries
FIELD_MUTANTS = (
    MISSING, None, True, "x", "0.5", [], {}, float("nan"), float("inf"), -float("inf"),
    -1, 0, 1, 2.5, 2**63, 1e300,
    [[1]], [[[1, 2, 3]]], [[["a", 0]]], [[[1, 0], [0, 0]], [[0, 0]]],
    [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]]],
    [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]],
    [[[0, 1e300], [0, 0]], [[0, 0], [1, 0]]],
    {"matrix": [[[1, 0]]]}, {"matrix": GOOD_BASIS}, {"bloch": [0, 0, 2]},
    {"bloch": [float("nan"), 0, 0]}, {"x-rotation": float("inf")},
    {"basis": GOOD_BASIS, "subset": [5]}, {"basis": [[[1, 0]]], "subset": [0]},
)
SCENARIO_COMMANDS = (["report"], ["sample"], ["check-jm"], ["gamma-slope"])


def run_main(argv):
    """(exit code, stdout, stderr) of one in-process call; an exception
    other than SystemExit propagates and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv):
    code, _, err = run_main(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert "Warning" not in err, (argv, err)
    if code == 2:
        assert "error:" in err, (argv, err)


@st.composite
def mutated_argv(draw):
    """A valid argv with the values of one or more of its options replaced."""
    argv = list(VALID_ARGV[draw(st.sampled_from(sorted(VALID_ARGV)))])
    values = [k for k in range(2, len(argv)) if argv[k - 1].startswith("--")]
    for k in draw(st.lists(st.sampled_from(values), min_size=1, unique=True)):
        argv[k] = draw(st.sampled_from(ARGV_MUTANTS))
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_argv())
def test_mutated_argv_keeps_the_exit_contract(argv):
    assert_contract(argv)


def field_paths(node, path=()):
    """The path of every field below a JSON node, leaves and list entries included."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


@st.composite
def scenario_mutations(draw):
    """(bundled file name, field path, stand-in value)."""
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    path = draw(st.sampled_from(list(field_paths(SCENARIOS[name]))))
    return name, path, draw(st.sampled_from(FIELD_MUTANTS))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scenario_mutations())
@example(("saturating_pure_detector.json", ("detector", "dim"), 0))
@example(("saturating_pure_detector.json", ("detector", "dim"), 1))
@example(("saturating_pure_detector.json", ("detector", "dim"), 2**63))
@example(("saturating_pure_detector.json", ("detector", "dim"), -1))
@example(("quarter_turn_detector.json", ("detector", "unitary", "x-rotation"), float("inf")))
def test_mutated_scenarios_keep_the_exit_contract(mutation):
    name, path, value = mutation
    data = copy.deepcopy(SCENARIOS[name])
    *parents, last = path
    node = data
    for key in parents:
        node = node[key]
    if value is MISSING:
        del node[last]
    else:
        node[last] = value
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / name
        scenario.write_text(json.dumps(data))
        for command in SCENARIO_COMMANDS:
            assert_contract([*command, "--scenario", str(scenario)])
