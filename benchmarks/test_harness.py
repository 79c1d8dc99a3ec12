"""Self-test of the benchmark harness.

    python3 -m pytest benchmarks/test_harness.py

It sits outside the package's test paths, so the tier-1 suite does not run
it.  Each workload runs for about a second in both modes.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
from spans import Recorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_spec_names_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def test_workload_design_holds_in_the_trace():
    per_row = {}
    for workload in ("sweep-d2", "report"):
        metrics = json.loads(run_bench(workload, 1).stdout.splitlines()[-1])["metrics"]
        assert metrics["jointmeas.feasibility_oracle.calls"]["value"] == 0
        per_row[workload] = metrics["mzi.duality_report.per_row"]["value"]
    assert per_row == {"sweep-d2": 2.0, "report": 1.0}


def test_reference_perturbed_by_1e9_counts_as_failure():
    from mzduality import cli

    reference = json.loads(harness.REFERENCE_FILE.read_text())["sweep-d2"]
    call = harness.sweep_call("sweep-d2", harness.SWEEP_SEEDS[0])
    perturbed = copy.deepcopy(reference)
    fields = perturbed["rows"][call.rows[-1]].split(",")
    fields[-1] = repr(float(fields[-1]) + 1e-9)
    perturbed["rows"][call.rows[-1]] = ",".join(fields)

    exact, off = harness.Runner(cli, reference, [call]), harness.Runner(cli, perturbed, [call])
    exact.run_pass()
    off.run_pass()
    assert exact.attempted == off.attempted == 1
    assert not exact.problems and not exact.failed_calls
    assert off.failed_calls == {0}
    assert len(off.problems) == 1 and "jm_margin" in off.problems[0]


def test_recorder_restores_every_binding():
    from mzduality import linalg, mzi

    original_eig, original_init = linalg.hermitian_eig, mzi.MZISetup.__post_init__
    recorder = Recorder()
    harness.install_spans(recorder)
    try:
        assert mzi.hermitian_eig is linalg.hermitian_eig is not original_eig
        setup = mzi.MZISetup(
            rho=mzi.QubitState.from_bloch([0.1, 0.2, 0.3]), rho_d=[[1, 0], [0, 0]], u=[[0, 1], [1, 0]]
        )
        assert isinstance(setup, mzi.MZISetup)
    finally:
        recorder.restore()
    assert mzi.hermitian_eig is linalg.hermitian_eig is original_eig
    assert mzi.MZISetup.__post_init__ is original_init
    totals = recorder.drain()
    assert totals[(harness.VALIDATE, None)][0] == 1
    assert totals[(harness.EIG, 2)][0] >= 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("report", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
