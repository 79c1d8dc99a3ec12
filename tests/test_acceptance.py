"""Acceptance suite: every criterion at its stated count and tolerance.

Runs the full battery once (the oracle differential test dominates the
runtime) and prints one pass/fail line per criterion.
"""

import pytest

from mzduality import acceptance
from mzduality.acceptance import (
    criteria_oracle_agreement,
    criterion_duality_inequality,
    criterion_gap_slope,
    criterion_optimum_is_max,
    criterion_physical_realizability,
    criterion_pure_gap_and_identity,
    criterion_sampler,
    criterion_saturation,
)

SEED = 20260810


@pytest.fixture(scope="module")
def oracle_results():
    return criteria_oracle_agreement(SEED, count=10_000, resolution=0.01)


def _report(result):
    print(result.line())
    assert result.passed, result.detail


def test_criterion_1_oracle_agreement(oracle_results):
    _report(oracle_results[0])


def test_criterion_2_reduced_slice(oracle_results):
    _report(oracle_results[1])


def test_criterion_3_physical_realizability():
    _report(criterion_physical_realizability(SEED, count=1000))


def test_criterion_4_duality_inequality():
    _report(criterion_duality_inequality(SEED, count=1000))


def test_criterion_5_optimum_is_max():
    _report(criterion_optimum_is_max(SEED, n_setups=24, n_random=1000))


def test_criterion_6_pure_gap_and_identity():
    _report(criterion_pure_gap_and_identity(SEED, n_pure=1000, n_identity=10_000))


def test_criterion_7_gap_slope():
    _report(criterion_gap_slope(SEED, count=100, p_step=1e-4))


def test_criterion_8_sampler():
    _report(criterion_sampler(SEED, n_scenarios=10, shots=10**6))


def test_criterion_9_saturation():
    _report(criterion_saturation(SEED, n_boundary=100))


def test_sweep_and_battery_share_the_identity_gate(monkeypatch, capsys):
    # a negative gate fails every setup, on both paths that read it
    from mzduality.cli import main

    monkeypatch.setattr(acceptance, "IDENTITY_TOL", -1.0)
    assert main(["sweep", "--count", "2"]) == 1
    err = capsys.readouterr().err
    assert "scenario sweep-0-0: gap identity residual" in err
    assert "scenario sweep-0-1: gap identity residual" in err
    result = criterion_duality_inequality(SEED, count=50)
    assert not result.passed, result.detail
