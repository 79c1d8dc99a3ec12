"""Acceptance suite: every criterion at its stated count and tolerance.

Runs the full battery once (the oracle differential test dominates the
runtime) and prints one pass/fail line per criterion.  Criterion 3's stacked
full-interferometer reference is pinned to its per-setup form below.
"""

import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzduality import acceptance, mzi
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
    return criteria_oracle_agreement(SEED, count=10_000)


def _report(result):
    print(result.line())
    assert result.passed, result.detail


def test_criterion_1_oracle_agreement(oracle_results):
    _report(oracle_results[0])
    # the draws at this seed, pinned: a change to any instance stream shows here
    assert oracle_results[0].detail == (
        "10000 instances (2379 infeasible), 1069 in the boundary band skipped of 11069 drawn, "
        "0 disagreements"
    )


def test_criterion_2_reduced_slice(oracle_results):
    _report(oracle_results[1])


def test_criterion_3_physical_realizability():
    _report(criterion_physical_realizability(SEED, count=1000))


def test_criterion_4_duality_inequality():
    _report(criterion_duality_inequality(SEED, count=1000))


def test_criterion_5_optimum_is_max():
    _report(criterion_optimum_is_max(SEED, n_setups=24, n_random=1000))


@pytest.mark.parametrize("chunk", [1, 400, 10**9])
def test_criterion_5_chunks_do_not_change_the_result(chunk, monkeypatch):
    # one setup per stack, two per stack, and one stack per dimension;
    # at this seed and size the largest random excess is negative, so it prints its value
    monkeypatch.setattr(acceptance, "STRATEGY_CHUNK", chunk)
    drawn, draw = [], mzi.random_strategies

    def counted(dim, rngs):
        drawn.append(len(rngs))
        return draw(dim, rngs)

    monkeypatch.setattr(mzi, "random_strategies", counted)
    result = criterion_optimum_is_max(1, n_setups=7, n_random=150)
    assert result.detail == (
        "7 setups x 150 random strategies, exhaustive gap 7.77e-16, max random excess -2.78e-03"
    )
    # every setup's strategies are scored, in stacks no larger than the chunk allows
    assert sum(drawn) == 7 * 150
    assert max(drawn) == min(max(chunk // 150, 1), 4) * 150


def test_criterion_6_pure_gap_and_identity():
    _report(criterion_pure_gap_and_identity(SEED, n_pure=1000, n_identity=10_000))


# A child's ru_maxrss starts at the RSS its parent had when it forked, so the
# script reads the high-water mark of its own address space (Linux VmHWM, KiB).
MEMORY_SCRIPT = """
def high_water():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
from mzduality.acceptance import criterion_pure_gap_and_identity
before = high_water()
assert criterion_pure_gap_and_identity(20260810).passed
print(high_water() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
def test_criterion_6_memory_is_bounded():
    # Peak RSS growth over the import, in a fresh process, at default counts.
    # Drawing one identity stream at a time grows about 11 MB on Python 3.11;
    # holding all 10,000 streams and their draws at once grew 26.5 MB.  The
    # 18 MB bound leaves 7 MB for interpreter and numpy differences between
    # Python 3.10 and 3.11 and still fails the all-at-once draw by 8 MB.
    src = Path(acceptance.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", MEMORY_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= 18 * 1024


def test_criterion_7_gap_slope():
    _report(criterion_gap_slope(SEED, count=100))


def test_criterion_8_sampler():
    _report(criterion_sampler(SEED, n_scenarios=10))


def test_criterion_9_saturation():
    _report(criterion_saturation(SEED, n_boundary=100))


# every criterion that checks a bound or an identity, by number, at a small count
SMALL_BATTERY = {
    3: partial(criterion_physical_realizability, SEED, count=50),
    4: partial(criterion_duality_inequality, SEED, count=50),
    5: partial(criterion_optimum_is_max, SEED, n_setups=6, n_random=20),
    6: partial(criterion_pure_gap_and_identity, SEED, n_pure=50, n_identity=200),
    7: partial(criterion_gap_slope, SEED, count=10),
    9: partial(criterion_saturation, SEED, n_boundary=10),
}


@pytest.mark.parametrize(
    "tolerance, message, failing",
    [
        ("IDENTITY_TOL", "gap identity residual", {4, 6, 7, 9}),
        ("BOUND_TOL", "effect eigenvalue", {3, 4, 5, 6, 9}),
    ],
    ids=["IDENTITY_TOL", "BOUND_TOL"],
)
def test_sweep_and_battery_share_the_identity_gate(
    tolerance, message, failing, monkeypatch, capsys
):
    # a negative tolerance fails every setup on every path that reads it, and
    # only those: criterion 3 does not gate the identity, nor 7 a bound
    from mzduality.cli import main

    monkeypatch.setattr(acceptance, tolerance, -1.0)
    assert main(["sweep", "--count", "2"]) == 1
    err = capsys.readouterr().err
    assert f"scenario sweep-0-0: {message}" in err
    assert f"scenario sweep-0-1: {message}" in err
    for number, criterion in SMALL_BATTERY.items():
        result = criterion()
        assert result.passed == (number not in failing), result.line()


# The full-interferometer reference as it ran setup by setup, copied from
# before it took stacks, as the reference the stacked route is pinned to.
def per_setup_reference(rho_d, u, phi, basis, in_s):
    eye_d = np.eye(len(u), dtype=complex)
    coupling = np.kron(np.diag([1.0, 0.0]), eye_d) + np.kron(np.diag([0.0, 1.0]), u)
    entry = mzi.phase_shifter(phi) @ mzi.HADAMARD
    total = np.kron(mzi.HADAMARD, eye_d) @ coupling @ np.kron(entry, eye_d)
    weighted = np.kron(np.eye(2), rho_d) @ total.conj().T
    effects = np.zeros((2, 2, 2, 2), dtype=complex)
    for j, guess_set in enumerate((in_s, ~in_s)):
        columns = basis[:, guess_set]
        for i in range(2):
            port = np.zeros((2, 2))
            port[i, i] = 1.0
            full = weighted @ np.kron(port, columns @ columns.conj().T) @ total
            d = len(u)
            effect = np.einsum("ijkj->ik", full.reshape(2, d, 2, d))
            effects[i, j] = (effect + effect.conj().T) / 2.0
    return effects


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    dim=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 12),
    kind=st.sampled_from(["random", "empty", "full"]),
    pure=st.booleans(),
)
def test_stacked_reference_matches_per_setup_reference(dim, seed, size, kind, pure):
    rngs = [np.random.default_rng([seed, k]) for k in range(size)]
    setups = mzi.random_setups(dim, rngs, pure=pure)
    strategies = mzi.random_strategies(dim, rngs)
    basis, in_s = strategies.basis, strategies.in_s
    if kind != "random":
        in_s = np.full_like(in_s, kind == "full")
    stacked = acceptance.reference_joint_observable(setups, mzi.Strategy(basis, in_s))
    for k in range(size):
        row = setups[k]
        want = per_setup_reference(row.rho_d, row.u, row.phi, basis[k], in_s[k])
        assert np.max(np.abs(stacked[k] - want)) <= 1e-12
