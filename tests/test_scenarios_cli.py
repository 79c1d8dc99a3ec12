import json
import logging
from pathlib import Path

import numpy as np
import pytest

from mzduality.cli import main
from mzduality.scenarios import (
    load_scenario,
    random_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SATURATING = SCENARIO_DIR / "saturating_pure_detector.json"
QUARTER_TURN = SCENARIO_DIR / "quarter_turn_detector.json"


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
        np.testing.assert_array_equal(
            loaded.strategy_spec.basis, again.strategy_spec.basis
        )
        assert loaded.strategy_spec.subset == again.strategy_spec.subset

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
        ],
    )
    def test_bad_input_exits_2(self, argv, capsys, tmp_path):
        saturating = json.loads(SATURATING.read_text())
        nan_basis_strategy = {"basis": [[[np.nan, 0], [0, 0]], [[0, 0], [1, 0]]], "subset": [0]}
        files = {
            "NAN_PHI": {**saturating, "phi": float("nan")},
            "NAN_BASIS": {**saturating, "strategy": nan_basis_strategy},
            "FRACTIONAL_DIM": {**saturating, "detector": {**saturating["detector"], "dim": 2.5}},
            "COMMA_NAME": {**saturating, "name": "split,row"},
            "NEWLINE_NAME": {**saturating, "name": "split\nrow"},
        }
        for placeholder, data in files.items():
            (tmp_path / placeholder).write_text(json.dumps(data))
        assert main([str(tmp_path / arg) if arg in files else arg for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        if "NAN_BASIS" in argv:
            assert "strategy" in captured.err

    def test_sweep_deterministic_and_clean(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["sweep", "--count", "12", "--seed", "3", "--dim", "3", "--out", str(first)]) == 0
        assert main(["sweep", "--count", "12", "--seed", "3", "--dim", "3", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert len(lines) == 14

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

    def test_gamma_slope_rejects_large_detector(self, capsys, tmp_path):
        scenario = random_scenario(1, 0, dim=3, optimal=True)
        save_scenario(scenario, tmp_path / "d3.json")
        assert main(["gamma-slope", "--scenario", str(tmp_path / "d3.json")]) == 2

    def test_verify_smoke(self, capsys):
        assert main(["verify", "--seed", "1", "--count", "60"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 9
        assert "9/9 criteria passed" in out

    def test_verify_stdout_is_byte_identical(self, capsys, caplog):
        caplog.set_level(logging.INFO, logger="mzduality")
        outputs = []
        for _ in range(2):
            assert main(["verify", "--count", "50"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        # the criterion 1-2 lines carry counts; their time goes to the log
        assert "skipped of" in outputs[0]
        assert any("criteria 1-2: 50 instances in" in r.getMessage() for r in caplog.records)
