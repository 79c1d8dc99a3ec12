import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzduality import acceptance, cli, mzi
from mzduality.cli import build_parser, main
from mzduality.jointmeas import JMInstance, instance_from_setup
from mzduality.qubit import SIGMA_X
from mzduality.qubit_detector import gap_slope_empirical
from mzduality.scenarios import (
    load_scenario,
    matrix_to_json,
    random_scenario,
    random_scenarios,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SATURATING = SCENARIO_DIR / "saturating_pure_detector.json"
QUARTER_TURN = SCENARIO_DIR / "quarter_turn_detector.json"
BIASED = SCENARIO_DIR / "biased_mixed_detector.json"


def altered(detector=(), **fields):
    """The saturating scenario's data with ``fields`` and the detector's ``detector`` replaced."""
    data = json.loads(SATURATING.read_text())
    data["detector"].update(detector)
    return {**data, **fields}


BASIS_2 = matrix_to_json(np.eye(2))
# each refusal of the loader: the scenario, and the whole line ``report`` prints to stderr
LOADER_REFUSALS = {
    "1x2 quanton matrix": (altered(quanton={"matrix": [[[1, 0], [0, 0]]]}),
                           "quanton matrix: expected 2x2 [re, im] pairs, got (1, 2, 2)"),
    "Bloch detector state at dim 3": (altered({"dim": 3, "state": {"bloch": [0, 0, 0.5]}}),
                                      "a Bloch detector state requires dim = 2"),
    "pauli-x at dim 3": (altered({"dim": 3, "unitary": "pauli-x"}),
                         "preset 'pauli-x' requires dim = 2"),
    "x-rotation at dim 3": (altered({"dim": 3, "unitary": {"x-rotation": 0.5}}),
                            "preset 'x-rotation' requires dim = 2"),
    "3x3 basis under dim 2": (
        altered(strategy={"basis": matrix_to_json(np.eye(3)), "subset": [0]}),
        "strategy basis: expected 2x2 [re, im] pairs, got (3, 3, 2)"),
    "3x3 matrices under dim 2": (
        altered({"state": {"matrix": matrix_to_json(np.eye(3) / 3)},
                 "unitary": {"matrix": matrix_to_json(np.eye(3))}}),
        "detector state: expected 2x2 [re, im] pairs, got (3, 3, 2)"),
    "true matrix entry": (altered({"unitary": {"matrix": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]}}),
                          "detector unitary must be real, got True"),
    "NaN matrix entry": (altered(strategy={"basis": [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]],
                                           "subset": [0]}),
                         "strategy basis must be finite, got nan"),
    "string phi": (altered(phi="0.3"), "invalid setup: phase phi must be real, got '0.3'"),
    "list phi": (altered(phi=[0.3]),
                 "invalid setup: quanton (2, 2), detector (2, 2) and phase (1,) do not stack alike"),
    "short Bloch vector": (altered(quanton={"bloch": [0.3, 0.4]}),
                           "invalid setup: Bloch vector must have shape (3,), got (2,)"),
    "stacked quanton Bloch vector": (altered(quanton={"bloch": [[0.3, 0.0, 0.4]]}),
                                     "quanton Bloch vector must have shape (3,), got (1, 3)"),
    "stacked detector Bloch vector": (altered({"state": {"bloch": [[0.0, 0.0, 0.5]]}}),
                                      "detector Bloch vector must have shape (3,), got (1, 3)"),
    "true Bloch component": (altered(quanton={"bloch": [0.3, True, 0.4]}),
                             "invalid setup: Bloch vector must be real, got True"),
    "string angle": (altered({"unitary": {"x-rotation": "1.0"}}),
                     "x-rotation angle must be real, got '1.0'"),
    "list angle": (altered({"unitary": {"x-rotation": [1.0]}}),
                   "x-rotation angle must be one number, got shape (1,)"),
    "integral float dim": (altered({"dim": 2.0}),
                           "invalid setup: detector dimension must be an integer, got 2.0"),
    "float subset index": (altered(strategy={"basis": BASIS_2, "subset": [1.5]}),
                           "invalid strategy: outcome index must be an integer, got 1.5"),
    "float seed": (altered(seed=1.5), "seed must be an integer, got 1.5"),
}


class TestScenarioFiles:
    def test_bundled_scenarios_load(self):
        for path in SCENARIO_DIR.glob("*.json"):
            scenario = load_scenario(path)
            assert scenario.setup.detector_dim >= 2

    def test_round_trip_is_exact(self, tmp_path):
        scenario = random_scenario(4, 2, dim=3, optimal=False)
        save_scenario(scenario, tmp_path / "s.json")
        loaded = load_scenario(tmp_path / "s.json")
        again = scenario_from_dict(scenario_to_dict(loaded))
        np.testing.assert_array_equal(loaded.setup.rho.matrix, again.setup.rho.matrix)
        np.testing.assert_array_equal(loaded.setup.rho_d, again.setup.rho_d)
        np.testing.assert_array_equal(loaded.setup.u, again.setup.u)
        np.testing.assert_array_equal(loaded.strategy.basis, again.strategy.basis)
        assert loaded.strategy.subset == again.strategy.subset

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 8),
        base_seed=st.integers(0, 2**32 - 1),
        index=st.integers(0, 10**6),
        optimal=st.booleans(),
    )
    @example(dim=5, base_seed=2**64 + 3, index=7, optimal=False)
    @example(dim=8, base_seed=2**70, index=0, optimal=True)
    def test_json_round_trip_reproduces_random_scenarios(self, dim, base_seed, index, optimal):
        # bit for bit, through the JSON text a saved file holds
        scenario = random_scenario(base_seed, index, dim, optimal)
        again = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(scenario))))
        assert (again.name, again.seed) == (scenario.name, scenario.seed)

        def setup_bytes(s):
            fields = (s.setup.rho.matrix, s.setup.rho_d, s.setup.u, s.setup.phi)
            return [np.asarray(field).tobytes() for field in fields]

        assert setup_bytes(again) == setup_bytes(scenario)
        if optimal:
            assert again.strategy is scenario.strategy is None
        else:
            assert again.strategy.basis.tobytes() == scenario.strategy.basis.tobytes()
            assert again.strategy.subset == scenario.strategy.subset

    def test_preset_parsing(self):
        scenario = scenario_from_dict(
            {
                "name": "presets",
                "quanton": {"bloch": [0, 0, 0]},
                "detector": {"dim": 4, "state": "maximally-mixed", "unitary": "identity"},
                "phi": 0.0,
                "strategy": "optimal",
                "seed": 0,
            }
        )
        np.testing.assert_allclose(scenario.setup.rho_d, np.eye(4) / 4)

    @pytest.mark.parametrize("angle", ["Infinity", "-Infinity", "NaN"])
    def test_a_non_finite_rotation_angle_is_named(self, angle, tmp_path, capsys):
        # Python's json reads these words; numpy's cos and sin would warn on an infinity
        text = QUARTER_TURN.read_text().replace("1.5707963267948966", angle)
        (tmp_path / "angle.json").write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["report", "--scenario", str(tmp_path / "angle.json")]) == 2
        captured = capsys.readouterr()
        value = float(angle)
        assert captured.err == f"error: x-rotation angle must be finite, got {value}\n"
        assert captured.out == ""

    def test_the_pauli_x_preset_is_the_explicit_matrix(self, capsys, tmp_path):
        rows = []
        for unitary in ("pauli-x", {"matrix": matrix_to_json(SIGMA_X)}):
            (tmp_path / "s.json").write_text(json.dumps(altered({"unitary": unitary})))
            assert main(["report", "--scenario", str(tmp_path / "s.json")]) == 0
            rows.append(capsys.readouterr().out)
        assert rows[0] == rows[1]

    def test_signed_zeros_survive_a_round_trip_bit_for_bit(self, tmp_path):
        # -0.0 in real and imaginary parts; re + 1j * im would turn the real ones into +0.0
        half = [[[0.5, -0.0], [-0.0, -0.0]], [[-0.0, 0.0], [0.5, -0.0]]]
        flip = [[[-0.0, -0.0], [1.0, 0.0]], [[1.0, -0.0], [-0.0, 0.0]]]
        ground = [[[1.0, -0.0], [-0.0, 0.0]], [[0.0, -0.0], [-0.0, -0.0]]]
        data = altered({"state": {"matrix": ground}, "unitary": {"matrix": flip}},
                       quanton={"matrix": half}, strategy={"basis": flip, "subset": [1]})
        (tmp_path / "s.json").write_text(json.dumps(data))
        loaded = load_scenario(tmp_path / "s.json")
        save_scenario(loaded, tmp_path / "again.json")
        again = load_scenario(tmp_path / "again.json")
        for scenario in (loaded, again):
            matrices = (scenario.setup.rho.matrix, scenario.setup.rho_d, scenario.setup.u,
                        scenario.strategy.basis)
            for given, matrix in zip((half, ground, flip, flip), matrices):
                pairs = np.array(given)
                assert matrix.tobytes() == pairs.tobytes()  # re, im, re, im... in row order
                assert np.array_equal(np.signbit(matrix.real), np.signbit(pairs[..., 0]))

    def test_malformed_scenarios_rejected(self):
        from mzduality.errors import ScenarioError

        bad = {
            "name": "bad",
            "quanton": {"bloch": [0, 0, 0]},
            "detector": {"dim": 2, "state": {"matrix": [[[0.9, 0], [0, 0]], [[0, 0], [0.3, 0]]]}, "unitary": "identity"},
        }
        with pytest.raises(ScenarioError):
            scenario_from_dict(bad)
        with pytest.raises(ScenarioError):
            scenario_from_dict({"name": "empty"})
        # Bloch vectors outside the ball fail in the state and effect
        # constructors; the parser still reports them as scenario errors
        long_detector = {
            **bad,
            "detector": {"dim": 2, "state": {"bloch": [0, 0, 1.5]}, "unitary": "identity"},
        }
        with pytest.raises(ScenarioError):
            scenario_from_dict(long_detector)
        with pytest.raises(ScenarioError):
            scenario_from_dict({**long_detector, "quanton": {"bloch": [0, 0, 1.5]}})
        # every number must be a JSON number: a string or a boolean is not one,
        # nor an integer too large for a float
        base = json.loads(SATURATING.read_text())
        detector = base["detector"]
        strategy = {"basis": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "subset": [0]}
        wrong = [
            {**base, "phi": "0.3"},
            {**base, "phi": True},
            {**base, "phi": 10**400},
            {**base, "quanton": {"bloch": [0, 0, "0.4"]}},
            {**base, "quanton": {"matrix": [[[True, 0], [0, 0]], [[0, 0], [0, 0]]]}},
            {**base, "detector": {**detector, "state": {"bloch": ["0", "0", True]}}},
            {**base, "detector": {**detector, "unitary": {"x-rotation": "1.0"}}},
            {**base, "detector": {**detector, "unitary": {"x-rotation": False}}},
            {**base, "strategy": {**strategy, "basis": [[[1, 0], [0, 0]], [[0, 0], [True, 0]]]}},
            {**base, "strategy": {**strategy, "basis": [[{"re": 1}]]}},
            {**base, "strategy": {**strategy, "basis": [[[1, 0, "x"], [0, 0]], [[0, 0], [1, 0]]]}},
            {**base, "strategy": {**strategy, "basis": [[[1], [0, 0]], [[0, 0], [1, 0]]]}},
            {**base, "strategy": {**strategy, "subset": ["0"]}},
            {**base, "strategy": {**strategy, "subset": [True]}},
            {**base, "strategy": {**strategy, "subset": 0}},
        ]
        for data in wrong:
            with pytest.raises(ScenarioError):
                scenario_from_dict(data)
        # the same fields as JSON numbers load
        loaded = scenario_from_dict({**base, "phi": 0, "strategy": strategy})
        assert loaded.setup.phi == 0.0 and loaded.strategy.subset == {0}
        # the dimension is checked before any preset builds a dim x dim array
        for dim in (0, 1, 9):
            for state in ("maximally-mixed", "ground"):
                for unitary in ("identity", "pauli-x"):
                    data = {**base, "detector": {"dim": dim, "state": state, "unitary": unitary}}
                    with pytest.raises(ScenarioError, match="invalid setup: detector dimension"):
                        scenario_from_dict(data)


    def test_integer_fields_and_safe_names(self, tmp_path):
        from mzduality.errors import ScenarioError

        base = json.loads(SATURATING.read_text())
        bad = [
            {**base, "detector": {**base["detector"], "dim": 2.5}},
            {**base, "detector": {**base["detector"], "dim": 2.0}},
            {**base, "detector": {**base["detector"], "dim": True}},
            {**base, "seed": 1.5},
            {**base, "seed": "1"},
        ] + [{**base, "name": name} for name in ("a,b", "a\nb", "a b", 'a"b', "", 7)]
        for data in bad:
            with pytest.raises(ScenarioError):
                scenario_from_dict(data)
        # bundled names and the names the sweep generates still load
        assert scenario_from_dict({**base, "name": "biased-mixed-detector_v1.2"}).seed == 1
        generated = random_scenario(12, 34, dim=3, optimal=True)
        save_scenario(generated, tmp_path / "g.json")
        assert load_scenario(tmp_path / "g.json").name == "sweep-12-34"


class TestLoaderRefusals:
    @pytest.mark.parametrize("case", LOADER_REFUSALS)
    def test_report_exits_2_with_one_error_line(self, case, capsys, tmp_path):
        data, message = LOADER_REFUSALS[case]
        (tmp_path / "s.json").write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["report", "--scenario", str(tmp_path / "s.json")]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestCli:
    def test_check_jm_sharp_pair(self, capsys):
        assert main(["check-jm", "--m0", "0.5", "--m", "0.5", "--n", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["measurable"] is False
        assert payload["margin"] == pytest.approx(-1.0)

    def test_check_jm_with_oracle(self, capsys):
        assert main(
            ["check-jm", "--m0", "0.5", "--m", "0.3", "--n", "0.2", "--oracle", "reduced"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle"]["feasible"] is True
        assert payload["oracle"]["agrees"] is True

    def test_check_jm_invalid_input(self, capsys):
        assert main(["check-jm", "--m0", "1.5", "--m", "0.1", "--n", "0.1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_check_jm_without_a_scenario_needs_all_three_parameters(self, capsys):
        assert main(["check-jm", "--m0", "0.5"]) == 2
        assert capsys.readouterr() == (
            "", "error: either --scenario or all of --m0/--m/--n are required\n")

    def test_report_saturating_scenario(self, capsys):
        assert main(["report", "--scenario", str(SATURATING)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "# schema=1"
        header = lines[1].split(",")
        row = dict(zip(header, lines[2].split(",")))
        assert float(row["duality_lhs"]) == pytest.approx(1.0, abs=1e-12)
        assert float(row["duality_rhs"]) == pytest.approx(1.0, abs=1e-12)
        assert float(row["jm_margin"]) == pytest.approx(0.0, abs=1e-12)

    def test_report_missing_file(self, capsys):
        assert main(["report", "--scenario", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--scenario", str(SATURATING), "--shots", "0"],
            ["gamma-slope", "--scenario", str(QUARTER_TURN), "--p-step", "1"],
            ["check-jm", "--m0", "0.5", "--m", "0.3", "--n", "0.1", "--oracle", "full",
             "--resolution", "0.5"],
            ["check-jm", "--m0", "0.5", "--m", "0.45", "--n", "0.45", "--oracle", "full",
             "--resolution", "1e-5"],
            ["check-jm", "--m0", "0.5", "--m", "nan", "--n", "0.1"],
            ["check-jm", "--m0", "0.5", "--m", "0.1", "--n", "inf"],
            ["sweep", "--count", "-3"],
            ["verify", "--count", "-3"],
            ["verify", "--count", "0"],
            ["sweep", "--count", "1", "--seed", "-1"],
            ["verify", "--count", "1", "--seed", "-1"],
            ["sample", "--scenario", str(SATURATING), "--seed", "-1"],
            ["sample", "--scenario", str(SATURATING), "--shots", "10000000000000000000000"],
            ["report", "--scenario", "NAN_PHI"],
            ["report", "--scenario", "NAN_BASIS"],
            ["sample", "--scenario", "NAN_BASIS"],
            ["report", "--scenario", "FRACTIONAL_DIM"],
            ["report", "--scenario", "COMMA_NAME"],
            ["report", "--scenario", "NEWLINE_NAME"],
            ["report", "--scenario", str(SATURATING), "--out", "/nonexistent/dir/out.csv"],
            ["sweep", "--count", "1", "--out", "/nonexistent/dir/out.csv"],
            ["check-jm", "--m0", "0.5", "--m", "0.3", "--n", "0.1", "--out",
             "/nonexistent/dir/out.json"],
            ["sweep", "--count", "0", "--dim", "9"],
            ["check-jm", "--m0", "0.5", "--m", "0.3", "--n", "0.1", "--oracle", "off",
             "--resolution", "nan"],
            ["report", "--scenario", "STRING_PHI"],
            ["report", "--scenario", "BOOL_PHI"],
            ["sample", "--scenario", "STRING_ANGLE"],
            ["check-jm", "--scenario", "BOOL_BLOCH"],
            ["check-jm", "--scenario", str(BIASED), "--m0", "0.9", "--m", "0", "--n", "0"],
            ["check-jm", "--scenario", str(SATURATING), "--n", "0.1", "--oracle", "full"],
            ["check-jm", "--scenario", "", "--m0", "0.5", "--m", "0.1", "--n", "0.1"],
            ["report", "--scenario", "DIM_0"],
            ["sample", "--scenario", "DIM_0"],
            ["check-jm", "--scenario", "DIM_0"],
            ["gamma-slope", "--scenario", "DIM_0"],
            ["report", "--scenario", "DIM_1"],
            ["check-jm", "--scenario", "DIM_9"],
            ["report", "--scenario", "MATRICES_3X3"],
            ["check-jm", "--scenario", "MATRICES_3X3"],
            ["sample", "--scenario", "MATRICES_3X3"],
        ],
    )
    def test_bad_input_exits_2(self, argv, capsys, tmp_path):
        saturating = json.loads(SATURATING.read_text())
        detector = saturating["detector"]
        nan_basis_strategy = {"basis": [[[np.nan, 0], [0, 0]], [[0, 0], [1, 0]]], "subset": [0]}
        files = {
            "NAN_PHI": {**saturating, "phi": float("nan")},
            "NAN_BASIS": {**saturating, "strategy": nan_basis_strategy},
            "FRACTIONAL_DIM": {**saturating, "detector": {**saturating["detector"], "dim": 2.5}},
            "COMMA_NAME": {**saturating, "name": "split,row"},
            "NEWLINE_NAME": {**saturating, "name": "split\nrow"},
            "STRING_PHI": {**saturating, "phi": "0.3"},
            "BOOL_PHI": {**saturating, "phi": True},
            "STRING_ANGLE": {**saturating, "detector": {**detector, "unitary": {"x-rotation": "1"}}},
            "BOOL_BLOCH": {**saturating, "detector": {**detector, "state": {"bloch": [0, 0, True]}}},
            **{f"DIM_{dim}": {**saturating, "detector": {**detector, "dim": dim}} for dim in (0, 1, 9)},
            # explicit 3x3 matrices under "dim": 2
            "MATRICES_3X3": {**saturating, "detector": {
                "dim": 2, "state": {"matrix": matrix_to_json(np.eye(3) / 3)},
                "unitary": {"matrix": matrix_to_json(np.eye(3))}}},
        }
        for placeholder, data in files.items():
            (tmp_path / placeholder).write_text(json.dumps(data))
        assert main([str(tmp_path / arg) if arg in files else arg for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        if "NAN_BASIS" in argv:
            assert "strategy" in captured.err
        if argv[-1].startswith("DIM_"):
            assert captured.err.startswith("error: invalid setup: detector dimension")
        if "--scenario" in argv and "--n" in argv:
            assert captured.err == "error: give --scenario or --m0/--m/--n, not both\n"
        if "MATRICES_3X3" in argv:
            assert captured.err == (
                "error: detector state: expected 2x2 [re, im] pairs, got (3, 3, 2)\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--count", "4", "--dim", "3", "--seed", "5"],
            ["report", "--scenario", str(BIASED)],
            ["check-jm", "--scenario", str(BIASED), "--oracle", "full"],
        ],
        ids=["sweep", "report", "check-jm"],
    )
    def test_a_bad_realized_pair_exits_2(self, argv, capsys, monkeypatch):
        # the last realized pair of each stack pushed outside [0, 1]
        realized = mzi.Evaluation.pair.func

        def pushed(evaluation):
            pairs = realized(evaluation)
            m0 = pairs.m0.copy()
            m0[-1] = 1.5
            return JMInstance(m0, pairs.m_vec, pairs.n_vec)

        monkeypatch.setattr(mzi.Evaluation, "pair", property(pushed))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: m0 = 1.5 outside [0, 1]\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check-jm", "--m0", "0.5", "--m", "1e300", "--n", "0.1"],
             "m_vec component 1e+300 exceeds 1/2"),
            (["report", "--scenario", "QUANTON_BLOCH"],
             "invalid setup: Bloch component 1e+300 exceeds 1 in absolute value"),
            (["report", "--scenario", "DETECTOR_BLOCH"],
             "invalid setup: Bloch component 1e+300 exceeds 1 in absolute value"),
            (["report", "--scenario", "UNITARY_ENTRY"],
             "invalid setup: entry 1e+300+0j has modulus above 1"),
        ],
        ids=["check-jm-m", "quanton-bloch", "detector-bloch", "unitary-entry"],
    )
    def test_huge_magnitudes_are_named_before_any_arithmetic(self, argv, message, capsys,
                                                             tmp_path):
        # each overflowed in a product before, printing RuntimeWarning lines
        # ahead of an error that named inf instead of the value given
        biased = json.loads(BIASED.read_text())
        detector, huge = biased["detector"], {"bloch": [1e300, 0, 0]}
        unitary = {"matrix": [[[1e300, 0.0], [0.0, 0.8]], [[0.0, 0.8], [0.6, 0.0]]]}
        files = {
            "QUANTON_BLOCH": {**biased, "quanton": huge},
            "DETECTOR_BLOCH": {**biased, "detector": {**detector, "state": huge}},
            "UNITARY_ENTRY": {**biased, "detector": {**detector, "unitary": unitary}},
        }
        for placeholder, data in files.items():
            (tmp_path / placeholder).write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([str(tmp_path / arg) if arg in files else arg for arg in argv]) == 2
        # the whole message, which one guard words for each of the three callers
        assert capsys.readouterr() == ("", f"error: {message}\n")

    UNREADABLE = {"not-utf-8": b"\xff\xfe\x00bad", "too-deep": b"[" * 1000 + b"]" * 1000}

    @pytest.mark.parametrize("command", ["report", "sample", "check-jm", "gamma-slope"])
    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_a_file_that_is_not_utf_8_or_nests_too_deep_exits_2(
        self, kind, command, capsys, tmp_path
    ):
        path = tmp_path / f"{kind}.json"
        path.write_bytes(self.UNREADABLE[kind])
        assert main([command, "--scenario", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read scenario file {path}: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_the_entry_point_refuses_an_unreadable_file_without_a_traceback(self, kind, tmp_path):
        path = tmp_path / f"{kind}.json"
        path.write_bytes(self.UNREADABLE[kind])
        src = Path(cli.__file__).resolve().parents[1]
        path_var = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, "-m", "mzduality", "report", "--scenario", str(path)],
            env={**os.environ, "PYTHONPATH": path_var}, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: cannot read scenario file")
        assert "Traceback" not in done.stderr

    def test_sweep_deterministic_and_clean(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["sweep", "--count", "12", "--seed", "3", "--dim", "3", "--out", str(first)]) == 0
        assert main(["sweep", "--count", "12", "--seed", "3", "--dim", "3", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert len(lines) == 14

    @pytest.mark.parametrize("count", [1, 2])
    def test_short_sweeps(self, count, capsys):
        assert main(["sweep", "--count", str(count), "--seed", "9", "--dim", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines[2:]] == [f"sweep-9-{i}" for i in range(count)]

    @pytest.mark.parametrize("failing_gate", [False, True])
    def test_sweep_output_does_not_depend_on_the_chunk(self, failing_gate, capsys, monkeypatch):
        if failing_gate:
            # every row then fails the identity gate, as in
            # test_sweep_and_battery_share_the_identity_gate
            monkeypatch.setattr(acceptance, "IDENTITY_TOL", -1.0)
        runs = []
        for chunk in (cli.SWEEP_CHUNK, 1, 3):
            monkeypatch.setattr(cli, "SWEEP_CHUNK", chunk)
            code = main(["sweep", "--count", "11", "--seed", "6", "--dim", "3"])
            runs.append((code, *capsys.readouterr()))
        assert runs[1] == runs[0] and runs[2] == runs[0]
        code, out, err = runs[0]
        assert len(out.splitlines()) == 13
        assert code == int(failing_gate)
        named = [line.split(":")[0] for line in err.splitlines()]
        assert named == ([f"scenario sweep-6-{i}" for i in range(11)] if failing_gate else [])

    def test_failing_gates_are_named_in_row_then_gate_order(self, capsys, monkeypatch):
        # a negative bound tolerance fails four gates on every row, and the
        # classic bound on the optimal rows, the even ones; more rows than a chunk
        monkeypatch.setattr(acceptance, "BOUND_TOL", -1.0)
        assert main(["sweep", "--count", "2100", "--seed", "4", "--dim", "2"]) == 1
        named = []
        for line in capsys.readouterr().err.splitlines():
            scenario, problem = line.split(": ", 1)
            before, _, *after = problem.rsplit(" ", 3)  # drop the number
            named.append((scenario, " ".join([before, *after])))
        every_row = [
            "effect eigenvalue below tolerance",
            "POVM residual above tolerance",
            "derived instance infeasible: margin below tolerance",
            "duality violated: lhs - rhs above tolerance",
        ]
        classic = ["classic duality bound violated: lhs above 1"]
        assert named == [
            (f"scenario sweep-4-{row}", gate)
            for row in range(2100)
            for gate in every_row + (classic if row % 2 == 0 else [])
        ]
        assert len(named) == 9450

    def test_reused_parser_leaks_no_state(self, capsys, tmp_path):
        assert build_parser() is build_parser()
        # an --out of one call does not reach the next call's namespace
        sweep = ["sweep", "--count", "2", "--seed", "5", "--dim", "3"]
        out = tmp_path / "sweep.csv"
        assert main([*sweep, "--out", str(out)]) == 0
        written = out.read_bytes()
        out.unlink()
        assert main(sweep) == 0
        assert capsys.readouterr().out.encode() == written
        assert not out.exists()
        # nor does a call that argparse rejects
        report = ["report", "--scenario", str(SATURATING)]
        assert main(report) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--scenario", str(SATURATING), "--shots", "1e3"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        assert main(report) == 0
        assert capsys.readouterr().out == first

    def test_sample_counts(self, capsys):
        assert main(
            ["sample", "--scenario", str(SATURATING), "--shots", "1000", "--seed", "4"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sum(sum(row) for row in payload["counts"]) == 1000
        assert max(abs(z) for row in payload["z_scores"] for z in row) <= 5.0

    def test_gamma_slope_quarter_turn(self, capsys):
        assert main(["gamma-slope", "--scenario", str(QUARTER_TURN), "--p-step", "1e-4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["predicted"] == pytest.approx(0.75 / np.sqrt(0.875), abs=1e-12)
        assert payload["relative_error"] <= 1e-3

    def test_gamma_slope_step_default_is_the_function_default(self):
        args = build_parser().parse_args(["gamma-slope", "--scenario", str(QUARTER_TURN)])
        default = inspect.signature(gap_slope_empirical).parameters["p_step"].default
        assert args.p_step == default

    def test_gamma_slope_rejects_large_detector(self, capsys, tmp_path):
        scenario = random_scenario(1, 0, dim=3, optimal=True)
        save_scenario(scenario, tmp_path / "d3.json")
        assert main(["gamma-slope", "--scenario", str(tmp_path / "d3.json")]) == 2

    def test_verify_smoke(self, capsys):
        assert main(["verify", "--seed", "1", "--count", "60"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 9
        assert "9/9 criteria passed" in out

    def test_log_level_is_read_on_every_call(self, capsys, monkeypatch):
        monkeypatch.delenv("MZDUALITY_LOG", raising=False)
        assert main(["sweep", "--count", "20"]) == 0
        assert "sweep progress" not in capsys.readouterr().err
        monkeypatch.setenv("MZDUALITY_LOG", "INFO")
        assert main(["sweep", "--count", "20"]) == 0
        err = capsys.readouterr().err
        assert err.count("INFO mzduality: sweep progress: ") == 10
        monkeypatch.delenv("MZDUALITY_LOG")
        assert main(["sweep", "--count", "20"]) == 0
        assert "sweep progress" not in capsys.readouterr().err

    def test_bad_log_level_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("MZDUALITY_LOG", "bogus")
        assert main(["check-jm", "--m0", "0.5", "--m", "0.3", "--n", "0.2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: MZDUALITY_LOG")
        # the entry point maps it the same way, ahead of --version
        src = Path(cli.__file__).resolve().parents[1]
        path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-m", "mzduality", "--version"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error:") and "Traceback" not in done.stderr

    def test_verify_stdout_is_byte_identical(self, capsys, caplog, monkeypatch):
        # main sets the package logger's level from MZDUALITY_LOG on each call
        monkeypatch.setenv("MZDUALITY_LOG", "INFO")
        outputs = []
        for _ in range(2):
            assert main(["verify", "--count", "50"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        # the criterion 1-2 lines carry counts; their time goes to the log
        assert "skipped of" in outputs[0]
        assert any("criteria 1-2: 50 instances in" in r.getMessage() for r in caplog.records)


def joined_line(name, seed, numbers):
    """A CSV row as it was joined value by value before the one template."""
    return ",".join([name, str(seed), *(f"{float(v):.17g}" for v in numbers)])


class TestCsvTemplate:
    def test_a_sweep_chunk_prints_the_joined_lines(self):
        scenarios = random_scenarios(13, range(9), 3, [k % 2 == 0 for k in range(9)])
        for scenario in scenarios:
            report = mzi.duality_report(scenario.setup, scenario.strategy)
            margin = instance_from_setup(scenario.setup, scenario.strategy).margin
            numbers = [*vars(report).values(), margin]
            assert len(numbers) == len(cli.CSV_COLUMNS) - 2
            assert cli._result_row(scenario) == joined_line(scenario.name, scenario.seed, numbers)

    @pytest.mark.parametrize("value", [-0.0, 0.0, 5e-324, 1.0, -1e308, 1.7976931348623157e308,
                                       0.1, 1 / 3, 1e16, 123456789.0, np.float64(-2.5e-300),
                                       np.inf, np.nan])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 1])
    def test_the_template_formats_every_value_as_the_join(self, value, seed):
        numbers = [value] * (len(cli.CSV_COLUMNS) - 2)
        line = cli.CSV_ROW % ("sweep-1-0", seed, *numbers)
        assert line == joined_line("sweep-1-0", seed, numbers)
        assert cli.CSV_ROW.count(",") == len(cli.CSV_COLUMNS) - 1
