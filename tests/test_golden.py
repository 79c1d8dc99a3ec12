"""Golden output: the ``report`` rows of the bundled scenarios, the rows of
``sweep --dim 8 --count 4 --seed 1``, and the stdout of
``verify --count 200 --seed 20260810``.

The rows were recorded with the earlier cyclic-Jacobi eigensolver.  Text
columns must match exactly; numeric columns may drift by at most
``DRIFT_BOUND`` absolute, the bound a change of eigensolver (or of LAPACK
build) is allowed to move any printed number.
"""

import re
from pathlib import Path

import pytest

from mzduality.cli import CSV_COLUMNS, CSV_SCHEMA_LINE, main

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
DRIFT_BOUND = 1e-12
TEXT_COLUMNS = ("scenario", "seed")

GOLDEN_REPORTS = {
    "biased_mixed_detector.json": "biased-mixed-detector,7,0.5099019513592784,0.19999999999999996,0.30864866758176679,-0.19739555984988078,-0.13255153229667405,0.60530983801686222,0.29235594743394544,0.29235594743394561,0.18001339031222835,0.43721599999999988,0.9675951793082973,0.43721599999999994,0.35327156790517855",
    "quarter_turn_detector.json": "quarter-turn-detector,3,2.2371143170757382e-17,0,1.5818787038937668e-17,0,0,0.70710678118654757,0.35355339059327329,0.35355339059327362,5.5511151231257827e-17,0.62499999999999978,1,0.625,0.22830756550693776",
    "saturating_pure_detector.json": "saturating-pure-detector,1,0.39999999999999986,0.30000000000000004,0.39999999999999986,0,0,1,0.29999999999999982,0.30000000000000004,0,0.99999999999999978,1,1,0",
}

GOLDEN_SWEEP_D8 = (
    "sweep-1-0,1,0.68253686438395511,0.41712680810677444,0.068608639453832013,-2.8932600698328255,-2.3207691430251209,0.10052004958846711,0.71624803497934519,0.71624803497934542,0.095265285367781394,0.52135743600133999,0.99092452540379516,0.52135743600134032,0.66012694000697358",
    "sweep-1-1,1,0.15451376176141227,0.67488490226323083,0.003636802693022878,-0.69383443474108675,-2.4291727126929166,0.023537079490942279,0.020500856064164186,0.74298460884759909,0.67744350887378135,0.00072195171686227438,0.54107029228477899,0.55232779560191847,0.97289351519359146",
    "sweep-1-2,1,0.48039737937115357,0.59587659359371392,0.10682201817970625,-1.8647961097612611,2.5493287332137342,0.22236178373732526,0.70483988653447449,0.70483988653447383,0.081659435288209431,0.5286877302234555,0.99333173662841079,0.52868773022345461,0.65507769802530436",
    "sweep-1-3,1,0.2395165751526287,0.030155823433615558,0.050805623737996596,1.9415312715407049,-1.681353594960175,0.21211736058609471,0.032599714823573267,0.53926221585570955,0.026359822414204759,0.046015599913835012,0.99930515976229162,0.33575659595686658,0.78745805928106183",
)


# recorded with the per-setup battery, before criteria 1-6 ran as array passes
GOLDEN_VERIFY = (
    "[PASS] criterion 1: criterion matches FULL grid oracle - 200 instances (49 infeasible), 25 in the boundary band skipped of 225 drawn, 0 disagreements",
    "[PASS] criterion 2: REDUCED slice matches FULL oracle - 200 instances (49 infeasible), 25 in the boundary band skipped of 225 drawn, 0 mode disagreements",
    "[PASS] criterion 3: realized joint observables are valid POVMs - 50 setups, min eig -2.11e-16, worst residual 1.11e-15, min margin 7.90e-02",
    "[PASS] criterion 4: duality inequality, identity, and strictness - 50 configurations, max lhs-rhs -8.82e-02, max identity residual 3.55e-15, max classic lhs 0.911799, strict case found: True",
    "[PASS] criterion 5: trace-norm optimum is the true maximum - 6 setups x 100 random strategies, exhaustive gap 1.33e-15, max random excess 8.88e-16",
    "[PASS] criterion 6: pure-detector gap vanishes; product identity holds - 50 pure states max gap 2.12e-15; 200 analyses max residual 6.94e-17",
    "[PASS] criterion 7: tightness-gap slope matches finite differences - 10 detectors, worst relative error 6.42e-08; reference case 0.801783725 vs 0.801783726",
    "[PASS] criterion 8: sampler matches exact probabilities - 3 scenarios x 1000000 shots, worst z-score 2.01",
    "[PASS] criterion 9: saturation and boundary zero modes - saturation gap 2.22e-16; 10 boundary witnesses, largest |min eig| 2.60e-17",
    "9/9 criteria passed",
)
# verify prints rounding-level residuals (~1e-16) that may move; larger numbers may not
VERIFY_ROUNDING_LEVEL = 1e-12
NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def csv_rows(argv, capsys) -> list[str]:
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [CSV_SCHEMA_LINE, ",".join(CSV_COLUMNS)]
    return lines[2:]


def assert_row_matches(got: str, want: str) -> None:
    got_fields, want_fields = got.split(","), want.split(",")
    assert len(got_fields) == len(want_fields) == len(CSV_COLUMNS)
    for column, g, w in zip(CSV_COLUMNS, got_fields, want_fields):
        if column in TEXT_COLUMNS:
            assert g == w, column
        else:
            assert abs(float(g) - float(w)) <= DRIFT_BOUND, (column, g, w)


@pytest.mark.parametrize("filename", sorted(GOLDEN_REPORTS))
def test_report_rows_match_golden(filename, capsys):
    (row,) = csv_rows(["report", "--scenario", str(SCENARIO_DIR / filename)], capsys)
    assert_row_matches(row, GOLDEN_REPORTS[filename])


def test_sweep_d8_rows_match_golden(capsys):
    rows = csv_rows(["sweep", "--dim", "8", "--count", "4", "--seed", "1"], capsys)
    assert len(rows) == len(GOLDEN_SWEEP_D8)
    for got, want in zip(rows, GOLDEN_SWEEP_D8):
        assert_row_matches(got, want)


def test_verify_stdout_matches_golden(capsys):
    assert main(["verify", "--count", "200", "--seed", "20260810"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(GOLDEN_VERIFY)
    for got, want in zip(lines, GOLDEN_VERIFY):
        # text, verdicts and counts exactly; numbers exactly unless both are rounding noise
        assert NUMBER.split(got) == NUMBER.split(want), (got, want)
        for g, w in zip(NUMBER.findall(got), NUMBER.findall(want)):
            noise = max(abs(float(g)), abs(float(w))) < VERIFY_ROUNDING_LEVEL
            assert g == w or noise, (got, want)
