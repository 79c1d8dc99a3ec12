"""The contract table: every public entry point that takes numbers from its caller,
against every kind of bad input for the place it takes them.

Each call raises an ``MZDualityError`` subclass whose message names the bad value, or
the shape of a value of the wrong shape, with warnings raised as errors: never a bare
numpy or builtin exception, and never a warning.  The table is fixed, so every run
makes the same calls.  An entry of modulus 1e300 is bad only where a bound is
documented (states, unitaries, effects, pair and analysis parameters, grid steps);
``hermitian_eig`` or ``kron`` of it is a finite number's.  A seed is an integer of
the integer rule, not negative, or a Generator (``qubit.generator``).  The records a
computation builds (``StrategyStats``, ``DualityReport``, ``JointCandidate``) are not inputs.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from mzduality import (
    JMInstance,
    MZDualityError,
    MZISetup,
    QubitDetectorAnalysis,
    QubitState,
    Strategy,
    analysis_from_states,
    bloch_to_matrix,
    build_candidate,
    feasibility_oracle,
    gap_slope_empirical,
    gap_slope_prediction,
    hermitian_eig,
    kron,
    matrix_to_bloch,
    partial_trace_detector,
    random_detector_state,
    random_instance,
    random_pure_detector_state,
    random_qubit_state,
    random_unitary,
    sample_outcomes,
    trace_norm,
)
from mzduality.qubit import SIGMA_X
from mzduality.scenarios import matrix_to_json, scenario_from_dict

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SATURATING = json.loads((SCENARIO_DIR / "saturating_pure_detector.json").read_text())
GROUND = np.diag([1.0, 0.0])
PAIR = JMInstance(0.5, [0.1, 0.0, 0.0], [0.0, 0.0, 0.1])
NAN, INF = float("nan"), float("inf")


def in_vector(entry):
    return [0.1, entry, 0.0]


def in_matrix(entry):
    return [[1.0, 0.0], [0.0, entry]]


# Each kind of place a number goes, and its bad inputs: a label, the value, and what
# the message must hold to name it (one of a tuple).  A vector or matrix holds the bad
# entry among good ones.
SCALAR_BAD = [
    ("bool", True, "True"),
    ("numpy bool", np.True_, "True"),
    ("numeric string", "0.5", "'0.5'"),
    ("complex", 0.5j, "0.5j"),
    ("nan", NAN, "nan"),
    ("inf", INF, "inf"),
    ("wrong shape", [0.002, 0.003], ("(2,)", "[0.002, 0.003]")),
]
VECTOR_BAD = [
    ("bool", in_vector(True), "True"),
    ("numpy bool", in_vector(np.True_), "True"),
    ("numeric string", in_vector("0.5"), "'0.5'"),
    ("complex", in_vector(0.5j), "0.5j"),
    ("nan", in_vector(NAN), "nan"),
    ("inf", in_vector(INF), "inf"),
    ("wrong shape", [0.1, 0.0], "(2,)"),
    ("0-d", np.float64(0.1), "()"),
]
WIDE = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
MATRIX_BAD = [
    ("bool", in_matrix(True), "True"),
    ("numpy bool", in_matrix(np.True_), "True"),
    ("numeric string", in_matrix("0.5"), "'0.5'"),
    ("nan", in_matrix(NAN), "nan"),
    ("inf", in_matrix(INF), "inf"),
    # a scenario file's pairs add an axis of two
    ("wrong shape", WIDE, ("(2, 3)", "(2, 3, 2)", str(WIDE))),
    ("0-d", np.float64(1.0), ("()", "1.0")),
]
HUGE = "1e+300"
BAD = {
    "integer": [
        ("bool", True, "True"),
        ("numpy bool", np.True_, "True"),
        ("non-integral float", 2.5, "2.5"),
        ("numeric string", "2", "'2'"),
        ("complex", 2j, "2j"),
        ("nan", NAN, "nan"),
        ("inf", INF, "inf"),
        ("wrong shape", [2], "[2]"),
        ("modulus 1e300", 1e300, HUGE),
    ],
    "real": SCALAR_BAD,
    "bounded real": SCALAR_BAD + [("modulus 1e300", 1e300, HUGE)],
    "vector": VECTOR_BAD,
    "bounded vector": VECTOR_BAD + [("modulus 1e300", in_vector(1e300), HUGE)],
    "matrix": MATRIX_BAD,
    "bounded matrix": MATRIX_BAD + [("modulus 1e300", in_matrix(1e300), HUGE)],
    "real matrix": MATRIX_BAD + [("complex", in_matrix(0.5j), "0.5j")],
    "mask": [
        ("number", [0.5, False], "0.5"),
        ("integer", [1, False], "1"),
        ("numeric string", ["1", False], "'1'"),
        ("nan", [NAN, False], "nan"),
        ("wrong shape", [True], "(1,)"),
        ("0-d", np.True_, "()"),
    ],
}
BAD["seed"] = BAD["integer"] + [("negative", -1, "-1")]


def with_detector(**fields):
    return {**SATURATING, "detector": {**SATURATING["detector"], **fields}}


def with_strategy(basis=None, subset=(0,)):
    basis = matrix_to_json(np.eye(2)) if basis is None else basis
    return {**SATURATING, "strategy": {"basis": basis, "subset": list(subset)}}


def as_pairs(matrix):
    """``matrix`` as a scenario file spells it, rows of [re, im] pairs; a 0-d value as is."""
    return matrix if np.ndim(matrix) == 0 else [[[x, 0.0] for x in row] for row in matrix]


EYE = in_matrix(1.0)
ZERO = np.zeros(3)
# name: (kind of place, the call that puts a value there, a good value for that place)
ENTRY_POINTS = {
    "hermitian_eig": ("matrix", hermitian_eig, EYE),
    "trace_norm": ("matrix", trace_norm, EYE),
    "kron": ("matrix", lambda v: kron(np.eye(2), v), EYE),
    "partial_trace_detector": ("matrix", partial_trace_detector, EYE),
    "matrix_to_bloch": ("matrix", matrix_to_bloch, EYE),
    "QubitState": ("bounded matrix", QubitState, GROUND),
    "QubitState.from_bloch": ("bounded vector", QubitState.from_bloch, ZERO),
    "bloch_to_matrix vector": ("bounded vector", lambda v: bloch_to_matrix(v, 0.5), ZERO),
    "bloch_to_matrix bias": ("bounded real", lambda v: bloch_to_matrix(ZERO, v), 0.5),
    "random_detector_state dim": ("integer", lambda v: random_detector_state(v, 0), 2),
    "random_pure_detector_state dim": ("integer", lambda v: random_pure_detector_state(v, 0), 2),
    "random_unitary dim": ("integer", lambda v: random_unitary(v, 0), 2),
    "MZISetup rho_d": ("bounded matrix", lambda v: MZISetup(QubitState(GROUND), v, EYE), GROUND),
    "MZISetup u": ("bounded matrix", lambda v: MZISetup(QubitState(GROUND), GROUND, v), EYE),
    "MZISetup phi": ("real", lambda v: MZISetup(QubitState(GROUND), GROUND, EYE, v), 0.0),
    "Strategy basis": ("bounded matrix", lambda v: Strategy(v, [True, False]), EYE),
    "Strategy mask": ("mask", lambda v: Strategy(EYE, v), [True, False]),
    "Strategy.from_subset": ("integer", lambda v: Strategy.from_subset(EYE, [v]), 0),
    "random_qubit_state seed": ("seed", random_qubit_state, 0),
    "random_detector_state seed": ("seed", lambda v: random_detector_state(2, v), 0),
    "random_pure_detector_state seed": ("seed", lambda v: random_pure_detector_state(2, v), 0),
    "random_unitary seed": ("seed", lambda v: random_unitary(2, v), 0),
    "random_instance seed": ("seed", random_instance, 0),
    "sample_outcomes seed": ("seed", lambda v: sample_outcomes(np.full((2, 2), 0.25), 10, v), 0),
    "sample_outcomes table": ("real matrix", lambda v: sample_outcomes(v, 10, 0),
                              np.full((2, 2), 0.25)),
    "sample_outcomes n_shots": ("integer", lambda v: sample_outcomes(np.full((2, 2), 0.25), v, 0),
                                10),
    "JMInstance m0": ("bounded real", lambda v: JMInstance(v, ZERO, [0.0, 0.0, 0.1]), 0.5),
    "JMInstance m_vec": ("bounded vector", lambda v: JMInstance(0.5, v, ZERO), ZERO),
    "JMInstance n_vec": ("bounded vector", lambda v: JMInstance(0.5, ZERO, v), ZERO),
    "build_candidate x": ("real", lambda v: build_candidate(PAIR, v, ZERO), 0.0),
    "build_candidate y_vec": ("vector", lambda v: build_candidate(PAIR, 0.0, v), ZERO),
    "feasibility_oracle resolution": ("bounded real", lambda v: feasibility_oracle(PAIR, v), 0.05),
    "QubitDetectorAnalysis alpha": ("bounded vector", lambda v: QubitDetectorAnalysis(v, ZERO, 0.0),
                                    ZERO),
    "QubitDetectorAnalysis beta": ("bounded vector", lambda v: QubitDetectorAnalysis(ZERO, v, 0.0),
                                   ZERO),
    "QubitDetectorAnalysis p": ("bounded real", lambda v: QubitDetectorAnalysis(ZERO, ZERO, v),
                                0.0),
    "analysis_from_states rho_d": ("bounded matrix", lambda v: analysis_from_states(v, EYE, 0.0),
                                   GROUND),
    "analysis_from_states p": ("bounded real", lambda v: analysis_from_states(GROUND, EYE, v), 0.0),
    "gap_slope_prediction u": ("bounded matrix", lambda v: gap_slope_prediction(GROUND, v), EYE),
    "gap_slope_empirical p_step": ("bounded real", lambda v: gap_slope_empirical(
        np.diag([0.75, 0.25]), SIGMA_X, v), 0.002),
    # a scenario, field by field
    "scenario phi": ("real", lambda v: scenario_from_dict({**SATURATING, "phi": v}), 0.0),
    "scenario quanton Bloch": ("bounded vector", lambda v: scenario_from_dict(
        {**SATURATING, "quanton": {"bloch": v}}), ZERO.tolist()),
    "scenario detector Bloch": ("bounded vector", lambda v: scenario_from_dict(
        with_detector(state={"bloch": v})), ZERO.tolist()),
    "scenario quanton matrix": ("bounded matrix", lambda v: scenario_from_dict(
        {**SATURATING, "quanton": {"matrix": as_pairs(v)}}), GROUND.tolist()),
    "scenario detector state": ("bounded matrix", lambda v: scenario_from_dict(
        with_detector(state={"matrix": as_pairs(v)})), GROUND.tolist()),
    "scenario detector unitary": ("bounded matrix", lambda v: scenario_from_dict(
        with_detector(unitary={"matrix": as_pairs(v)})), EYE),
    "scenario strategy basis": ("bounded matrix", lambda v: scenario_from_dict(
        with_strategy(as_pairs(v))), EYE),
    "scenario x-rotation": ("real", lambda v: scenario_from_dict(
        with_detector(unitary={"x-rotation": v})), 0.0),
    "scenario dim": ("integer", lambda v: scenario_from_dict(with_detector(dim=v)), 2),
    "scenario subset": ("integer", lambda v: scenario_from_dict(with_strategy(subset=[v])), 0),
    "scenario seed": ("integer", lambda v: scenario_from_dict({**SATURATING, "seed": v}), 0),
}
CASES = [(name, label) for name, (kind, *_) in ENTRY_POINTS.items() for label, *_ in BAD[kind]]


class TestContractTable:
    @pytest.mark.parametrize("name, label", CASES, ids=[" - ".join(case) for case in CASES])
    def test_a_bad_input_raises_a_package_error_that_names_it(self, name, label):
        kind, call, _ = ENTRY_POINTS[name]
        value, named = next((value, named) for bad, value, named in BAD[kind] if bad == label)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MZDualityError) as caught:
                call(value)
        named = (named,) if isinstance(named, str) else named
        assert any(token in str(caught.value) for token in named), str(caught.value)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_every_entry_point_takes_a_good_value_at_the_same_place(self, name):
        # so that each refusal above is the bad value's, not the rest of the call's
        _, call, good = ENTRY_POINTS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(good)
