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

from mzduality import acceptance, mzi, qubit
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


def per_residue_duality_inequality(seed, count):
    """Criterion 4 as it stood with one stack per index residue mod 6: the
    reference its one stack per dimension must print alike."""
    gaps, identities, classics = gates = [], [], []
    strict_found = False
    for residue in range(min(count, 6)):
        dim, optimal = 2 + residue % 3, residue % 2 == 0
        rngs = [qubit.stream(seed, 4, index) for index in range(residue, count, 6)]
        setups = mzi.random_setups(dim, rngs)
        result = mzi.Evaluation(setups, None if optimal else mzi.random_strategies(dim, rngs))
        report = result.report
        gaps.append(acceptance.duality_gate(report))
        identities.append(acceptance.identity_gate(result.stats, report))
        classics.append(acceptance.classic_gate(report, optimal))
        strict_found = strict_found or bool(np.any(report.duality_rhs < 1.0 - 1e-4))
    (gap, gap_ok), (identity, identity_ok), (classic, classic_ok) = map(acceptance._pooled, gates)
    return acceptance.CriterionResult(
        4,
        "duality inequality, identity, and strictness",
        gap_ok and identity_ok and classic_ok and strict_found,
        f"{count} configurations, max lhs-rhs {np.max(gap, initial=-np.inf):.2e}, max identity "
        f"residual {np.max(np.abs(identity), initial=0.0):.2e}, max classic lhs "
        f"{np.max(classic, initial=-np.inf):.6f}, strict case found: {strict_found}",
    )


@pytest.mark.parametrize("count", [0, 1, 2, 5, 6, 7, 50])
def test_criterion_4_prints_what_its_per_residue_stacks_printed(count):
    # counts below 6 leave residues without an index
    got = criterion_duality_inequality(SEED, count=count)
    assert got.line() == per_residue_duality_inequality(SEED, count).line()


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
    result = criterion_sampler(SEED, n_scenarios=10)
    _report(result)
    # the draws at this seed, pinned: stacks of three and four rows per dimension
    assert result.detail == "10 scenarios x 1000000 shots, worst z-score 2.07"


@pytest.mark.parametrize("seed", [SEED, 7, 11])
def test_criterion_8_reads_each_row_as_its_batch_of_one(seed, monkeypatch):
    # each stacked row's table, bit for bit, is the table of its stream's
    # setup and strategy drawn as a batch of one, sampled with the shot
    # stream of its own index; the rows come one dimension's stack at a time
    tables, samples = [], []
    probabilities, sample = mzi.outcome_probabilities, mzi.sample_outcomes

    def spy_probabilities(setup, strategy):
        tables.append(probabilities(setup, strategy))
        return tables[-1]

    def spy_sample(probs, n_shots, rng):
        samples.append(sample(probs, n_shots, rng))
        return samples[-1]

    monkeypatch.setattr(mzi, "outcome_probabilities", spy_probabilities)
    monkeypatch.setattr(mzi, "sample_outcomes", spy_sample)
    criterion_sampler(seed, n_scenarios=10)
    indices = [index for residue in range(3) for index in range(residue, 10, 3)]
    assert len(tables) == len(samples) == len(indices)
    tags = acceptance.STREAM_TAGS
    for index, table, counts in zip(indices, tables, samples):
        dim, rng = 2 + index % 3, qubit.stream(seed, tags["sampler"], index)
        setups, strategies = mzi.random_setups(dim, [rng]), mzi.random_strategies(dim, [rng])
        assert table.tobytes() == probabilities(setups[0], strategies[0]).tobytes(), index
        shots = qubit.stream(seed, tags["shots"], index)
        assert np.array_equal(counts, sample(table, 10**6, shots)), index


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
    # the classic bound is gated on the optimal rows, whose strategy is None, alone
    classic = [line.split(":")[0] for line in err.splitlines() if "classic duality" in line]
    assert classic == (["scenario sweep-0-0"] if tolerance == "BOUND_TOL" else [])
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
