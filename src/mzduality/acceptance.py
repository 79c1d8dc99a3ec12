"""Acceptance suite: every release-gating property check in one place.

Each criterion function returns a CriterionResult; ``run_all`` executes the
whole battery.  All randomness is derived from an explicit base seed as the
stream ``qubit.stream(seed, tag, index)``, its tag read from ``STREAM_TAGS``,
so a failure report pinpoints the offending instance.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import jointmeas, mzi, qubit_detector
from .linalg import dagger, kron, partial_trace_detector
from .qubit import (
    IDENTITY_2,
    QubitState,
    effect_min_eigenvalue,
    haar_unitary,
    hilbert_schmidt_states,
    random_pure_detector_state,
    streams,
)

log = logging.getLogger(__name__)

# the stream tag of each kind of draw below; criterion 2 reads criterion 1's instances
STREAM_TAGS = dict(oracle=1, realizability=3, duality=4, optimum=5, pure=6, identity=60,
                   slope=7, sampler=8, shots=80, saturation=9, boundary=90)
# tolerances of every bound and identity checked below, read at call time so patches reach them
BOUND_TOL = 1e-10
IDENTITY_TOL = 1e-12
SLOPE_REL_TOL = 1e-3  # relative error of a finite-difference gap slope
ZERO_MODE_TOL = 1e-8  # how far a boundary witness's smallest eigenvalue may lie from 0
# most random strategies criterion 5 scores in one stack (at least one setup's);
# this bounds its temporaries, about 5 MB at default counts against 23 MB unchunked
STRATEGY_CHUNK = 2000


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name} - {self.detail}"


def _streams(seed: int, draw: str, indices):
    """The streams of one kind of draw at the given indices, made in one batch."""
    return streams((seed, STREAM_TAGS[draw], index) for index in indices)


def criteria_oracle_agreement(
    seed: int, count: int = 10_000
) -> tuple[CriterionResult, CriterionResult]:
    """Criteria 1 and 2: the closed-form criterion versus the FULL grid oracle,
    and the REDUCED slice versus FULL, on instances clear of the boundary band.

    Instances are drawn in rounds of as many as are still missing, each from
    its own stream, so the last one drawn is the last one kept; their margins
    and both oracles then run as array passes."""
    start = time.perf_counter()
    kept = [np.zeros((4, 0))]  # rows m0, m, n, margin
    drawn = checked = 0
    while checked < count:
        rngs = list(_streams(seed, "oracle", range(drawn, drawn + count - checked)))
        drawn += len(rngs)
        inst = jointmeas.JMInstance(*jointmeas.draw_instances(rngs))
        margin = inst.margin
        clear = ~jointmeas.in_boundary_band(margin, jointmeas.ORACLE_RESOLUTION)
        kept.append(np.array([inst.m0, inst.m, inst.n, margin])[:, clear])
        checked += int(np.count_nonzero(clear))
    *lengths, margin = np.concatenate(kept, axis=1)
    full, reduced = jointmeas.feasibility_batch(lengths, jointmeas.ORACLE_RESOLUTION)
    full_bad = int(np.count_nonzero(full != (margin >= 0.0)))
    reduced_bad = int(np.count_nonzero(reduced != full))
    infeasible = int(np.count_nonzero(margin < 0.0))
    log.info("criteria 1-2: %d instances in %.1fs", count, time.perf_counter() - start)
    shared = (
        f"{count} instances ({infeasible} infeasible), "
        f"{drawn - count} in the boundary band skipped of {drawn} drawn"
    )
    return (
        CriterionResult(
            1,
            "criterion matches FULL grid oracle",
            full_bad == 0,
            f"{shared}, {full_bad} disagreements",
        ),
        CriterionResult(
            2,
            "REDUCED slice matches FULL oracle",
            reduced_bad == 0,
            f"{shared}, {reduced_bad} mode disagreements",
        ),
    )


def reference_joint_observable(setups: mzi.MZISetup, strategies: mzi.Strategy) -> np.ndarray:
    """The realized joint observables (N, 2, 2, 2, 2) the long way, as the
    independent check of ``mzi.Evaluation.effects``: for each output port i
    and guess set j, ``E_ij = tr_D[(I x rho_D) T^dag (|i><i| x P_j) T]``
    with P_j the detector projector onto the set and T the full
    interferometer unitary ``(H x I)(|0><0| x I + |1><1| x U)(A x I)``,
    ``A = phase_shifter(phi) @ H``."""
    eye_d = np.eye(setups.u.shape[-1], dtype=complex)
    coupling = kron(np.diag([1.0, 0.0]), eye_d) + kron(np.diag([0.0, 1.0]), setups.u)
    entry = mzi.phase_shifter(setups.phi) @ mzi.HADAMARD
    total = kron(mzi.HADAMARD, eye_d) @ coupling @ kron(entry, eye_d)
    weighted = kron(IDENTITY_2, setups.rho_d) @ dagger(total)
    effects = np.zeros((len(total), 2, 2, 2, 2), dtype=complex)
    for j, guess_set in enumerate((strategies.in_s, ~strategies.in_s)):
        columns = strategies.basis * guess_set[:, None, :]
        for i in range(2):
            port = np.zeros((2, 2))
            port[i, i] = 1.0
            projector = kron(port, columns @ dagger(columns))
            effect = partial_trace_detector(weighted @ projector @ total)
            effects[:, i, j] = (effect + dagger(effect)) / 2.0
    return effects


def joint_observable_residuals(
    setup: mzi.MZISetup, strategy: mzi.Strategy | None
) -> tuple[float, float, float]:
    """(most negative effect eigenvalue, completeness residual, marginal residual)."""
    evaluation, k = mzi.evaluate_setup(setup, strategy)
    return tuple(float(residual[k]) for residual in evaluation.residuals)


# The six per-setup gates, elementwise over one setup's records or a stack's:
# each returns the value it bounds and a pass mask.  Criterion 3 owns the first
# three, criterion 4 the last three, and sweep runs all six on each row.
def eigenvalue_gate(min_eig):
    return min_eig, min_eig >= -BOUND_TOL


def povm_gate(*residuals):
    value = np.maximum.reduce(residuals)
    return value, value <= BOUND_TOL


def margin_gate(margin):
    return margin, margin >= -BOUND_TOL


def duality_gate(report: mzi.DualityReport):
    value = report.duality_lhs - report.duality_rhs
    return value, value <= BOUND_TOL


def identity_gate(stats: mzi.StrategyStats, report: mzi.DualityReport):
    """The signed residual of ``D_S^2 + cross^2 (1 - P^2) = 1 - gamma_S^2``,
    with ``cross = sqrt(eta_S eta_S^U) + sqrt(eta_Sbar eta_Sbar^U)``: the
    identity behind the strategy-resolved duality bound."""
    cross = np.sqrt(stats.eta_s * stats.eta_s_u) + np.sqrt(stats.eta_sbar * stats.eta_sbar_u)
    lhs = report.distinguishability**2 + cross**2 * (1.0 - report.predictability**2)
    value = lhs - (1.0 - report.tightness_gap**2)
    return value, np.abs(value) <= IDENTITY_TOL


def classic_gate(report: mzi.DualityReport, optimal):
    """The classic bound ``D^2 + (1 - P^2) C^2 <= 1``; -inf where ``optimal`` is false."""
    value = np.where(optimal, report.jsve_lhs, -np.inf)[()]
    return value, value <= 1.0 + BOUND_TOL


def _pooled(results) -> tuple[np.ndarray, bool]:
    """One gate's values over a criterion's stacks, flat, and whether all passed."""
    values = np.concatenate([np.zeros(0), *(np.ravel(value) for value, _ in results)])
    return values, all(bool(np.all(ok)) for _, ok in results)


def setup_violations(setup: mzi.MZISetup, strategy: mzi.Strategy | None) -> list[str]:
    """The six gates on one setup, one message per failed gate; the classic
    bound is gated only under the optimal strategy, None."""
    report = mzi.duality_report(setup, strategy)
    min_eig, completeness, marginal = joint_observable_residuals(setup, strategy)
    stats = mzi.strategy_stats(setup, strategy)
    margin = jointmeas.instance_from_setup(setup, strategy).margin
    checks = {
        "effect eigenvalue {:.3e} below tolerance": eigenvalue_gate(min_eig),
        "POVM residual {:.3e} above tolerance": povm_gate(completeness, marginal),
        "derived instance infeasible: margin {:.3e} below tolerance": margin_gate(margin),
        "duality violated: lhs - rhs {:.17g} above tolerance": duality_gate(report),
        "gap identity residual {:.3e} outside tolerance": identity_gate(stats, report),
        "classic duality bound violated: lhs {:.17g} above 1":
            classic_gate(report, strategy is None),
    }
    return [message.format(value) for message, (value, ok) in checks.items() if not ok]


def criterion_physical_realizability(seed: int, count: int = 1000) -> CriterionResult:
    """Criterion 3: realized joint observables are POVMs with the right
    marginals and agree with the full-interferometer reference, and the
    derived instance is never infeasible."""
    eigs, residuals, margins = gates = [], [], []
    for dim in (2, 3, 4)[:count]:
        rngs = list(_streams(seed, "realizability", range(dim - 2, count, 3)))
        setups = mzi.random_setups(dim, rngs)
        strategies = mzi.random_strategies(dim, rngs)
        result = mzi.Evaluation(setups, strategies)
        reference = reference_joint_observable(setups, strategies)
        min_eig, completeness, marginal = result.residuals
        deviation = np.abs(result.effects - reference).max(axis=(1, 2, 3, 4))
        eigs.append(eigenvalue_gate(min_eig))
        residuals.append(povm_gate(completeness, marginal, deviation))
        margins.append(margin_gate(result.pair.margin))
    (eig, eig_ok), (residual, residual_ok), (margin, margin_ok) = map(_pooled, gates)
    return CriterionResult(
        3,
        "realized joint observables are valid POVMs",
        eig_ok and residual_ok and margin_ok,
        f"{count} setups, min eig {np.min(eig, initial=0.0):.2e}, worst residual "
        f"{np.max(residual, initial=0.0):.2e}, min margin {np.min(margin, initial=np.inf):.2e}",
    )


def criterion_duality_inequality(seed: int, count: int = 1000) -> CriterionResult:
    """Criterion 4: the strategy-resolved duality bound, its underlying
    identity, the classic bound under the optimal strategy (even indices),
    and strictness, on one stack per dimension."""
    gaps, identities, classics = gates = [], [], []
    strict_found = False
    # index % 3 fixes the dimension, 2 + index % 3; an even index takes the optimal strategy
    for residue in range(min(count, 3)):
        dim, indices = 2 + residue, range(residue, count, 3)
        optimal = [index % 2 == 0 for index in indices]
        rngs = list(_streams(seed, "duality", indices))
        setups = mzi.random_setups(dim, rngs)
        drawn = mzi.random_strategies(dim, [rng for rng, flag in zip(rngs, optimal) if not flag])
        result = mzi.Evaluation(setups, drawn, optimal)
        report = result.report
        gaps.append(duality_gate(report))
        identities.append(identity_gate(result.stats, report))
        classics.append(classic_gate(report, optimal))
        strict_found = strict_found or bool(np.any(report.duality_rhs < 1.0 - 1e-4))
    (gap, gap_ok), (identity, identity_ok), (classic, classic_ok) = map(_pooled, gates)
    return CriterionResult(
        4,
        "duality inequality, identity, and strictness",
        gap_ok and identity_ok and classic_ok and strict_found,
        f"{count} configurations, max lhs-rhs {np.max(gap, initial=-np.inf):.2e}, max identity "
        f"residual {np.max(np.abs(identity), initial=0.0):.2e}, max classic lhs "
        f"{np.max(classic, initial=-np.inf):.6f}, strict case found: {strict_found}",
    )


def criterion_optimum_is_max(
    seed: int, n_setups: int = 24, n_random: int = 1000
) -> CriterionResult:
    """Criterion 5: the trace-norm optimum equals the exhaustive eigenbasis
    maximum and dominates random strategies (detector dimensions 2 and 3).
    Each setup's stream draws the setup, then its random strategies in turn;
    each dimension's setups and eigenbasis subsets are scored as one stack
    each, its random strategies in stacks of whole setups (STRATEGY_CHUNK)."""
    worst_exhaustive = 0.0
    worst_random = -np.inf
    # index % 2 fixes the dimension, 2 + index % 2
    for dim in (2, 3)[:n_setups]:
        rngs = list(_streams(seed, "optimum", range(dim - 2, n_setups, 2)))
        setups = mzi.random_setups(dim, rngs)
        optimum = mzi.Evaluation(setups)
        d_max = optimum.report.max_distinguishability
        # every subset of each guess operator's eigenbasis
        subsets = np.array(list(product((False, True), repeat=dim)))
        each, owners = np.arange(len(rngs)), np.repeat(np.arange(len(rngs)), len(subsets))
        exhaustive = optimum.with_strategies(owners, mzi.Strategy(
            optimum.strategies.basis[owners], np.tile(subsets, (len(rngs), 1))))
        best = exhaustive.distinguishability.reshape(len(rngs), -1).max(axis=1)
        worst_exhaustive = max(worst_exhaustive, float(np.max(np.abs(best - d_max))))
        per_chunk = max(1, STRATEGY_CHUNK // n_random)
        for first in range(0, len(rngs), per_chunk):
            chunk = each[first : first + per_chunk]
            randoms = mzi.random_strategies(dim, [rngs[i] for i in chunk for _ in range(n_random)])
            scored = optimum.with_strategies(np.repeat(chunk, n_random), randoms)
            best = scored.distinguishability.reshape(len(chunk), -1).max(axis=1)
            worst_random = max(worst_random, float(np.max(best - d_max[chunk])))
    passed = worst_exhaustive <= BOUND_TOL and worst_random <= BOUND_TOL
    return CriterionResult(
        5,
        "trace-norm optimum is the true maximum",
        passed,
        f"{n_setups} setups x {n_random} random strategies, exhaustive gap "
        f"{worst_exhaustive:.2e}, max random excess {worst_random:.2e}",
    )


def criterion_pure_gap_and_identity(
    seed: int, n_pure: int = 1000, n_identity: int = 10_000
) -> CriterionResult:
    """Criterion 6: the tightness gap vanishes for pure detectors, and the
    closed-form product identity holds for mixed qubit analyses."""
    worst_gap = 0.0
    if n_pure:
        rngs = list(_streams(seed, "pure", range(n_pure)))
        setups = mzi.random_setups(2, rngs, pure=True)
        worst_gap = float(np.max(mzi.Evaluation(setups).report.tightness_gap))
    worst_residual = 0.0
    if n_identity:
        radius, p = np.empty(n_identity), np.empty(n_identity)
        directions = np.empty((n_identity, 2, 3))
        # per stream: a radius, two directions, a bias; one stream alive at a time
        for index, rng in enumerate(_streams(seed, "identity", range(n_identity))):
            radius[index] = rng.random()
            rng.standard_normal(out=directions[index])
            p[index] = rng.uniform(-0.99, 0.99)
        a_dir, b_dir = directions[:, 0], directions[:, 1]
        a_dir /= np.linalg.norm(a_dir, axis=1, keepdims=True)
        b_dir /= np.linalg.norm(b_dir, axis=1, keepdims=True)
        analysis = qubit_detector.QubitDetectorAnalysis(
            alpha=radius[:, None] * a_dir, beta=radius[:, None] * b_dir, p=p
        )
        worst_residual = float(np.max(qubit_detector.purity_identity_residual(analysis)))
    passed = worst_gap <= BOUND_TOL and worst_residual <= IDENTITY_TOL
    return CriterionResult(
        6,
        "pure-detector gap vanishes; product identity holds",
        passed,
        f"{n_pure} pure states max gap {worst_gap:.2e}; {n_identity} analyses max residual "
        f"{worst_residual:.2e}",
    )


def criterion_gap_slope(seed: int, count: int = 100) -> CriterionResult:
    """Criterion 7: the predicted small-bias slope of the tightness gap matches
    finite differences, including the closed-form reference case."""
    # per stream the Gaussians of a Hilbert-Schmidt detector state, then of a coupling
    normals = np.array([rng.standard_normal(16) for rng in _streams(seed, "slope", range(count))])
    parts = normals.reshape(-1, 2, 2, 2, 2)
    gaussians = parts[:, :, 0] + 1j * parts[:, :, 1]
    # Bloch radius 1/2 along z, quarter-turn about x: slope = 0.75 / sqrt(0.875)
    rho_ref = np.diag([0.75, 0.25]).astype(complex)
    u_ref = np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * np.array([[0, 1], [1, 0]])
    expected = 0.75 / np.sqrt(0.875)
    # the reference case rides along as the last detector of the stack
    rho_d = np.concatenate([hilbert_schmidt_states(gaussians[:, 0]), [rho_ref]])
    u = np.concatenate([haar_unitary(gaussians[:, 1]), [u_ref]])
    predicted = qubit_detector.gap_slope_prediction(rho_d, u)
    empirical = qubit_detector.gap_slope_empirical(rho_d, u)
    relative = (np.abs(empirical - predicted) / np.abs(predicted))[:-1]
    worst_rel = float(np.max(relative, initial=0.0))
    pred_ref, emp_ref = predicted[-1], empirical[-1]
    ref_ok = (abs(pred_ref - expected) <= IDENTITY_TOL
              and abs(emp_ref - expected) / expected <= SLOPE_REL_TOL)
    passed = worst_rel <= SLOPE_REL_TOL and ref_ok
    return CriterionResult(
        7,
        "tightness-gap slope matches finite differences",
        passed,
        f"{count} detectors, worst relative error {worst_rel:.2e}; reference case "
        f"{emp_ref:.9f} vs {expected:.9f}",
    )


def criterion_sampler(seed: int, n_scenarios: int = 10) -> CriterionResult:
    """Criterion 8: empirical outcome frequencies stay within five binomial
    standard deviations of the exact probabilities."""
    worst_z, shots = 0.0, 10**6
    # index % 3 fixes the dimension, 2 + index % 3; each stream draws its setup, then its strategy
    for residue in range(min(n_scenarios, 3)):
        dim, indices = 2 + residue, range(residue, n_scenarios, 3)
        rngs = list(_streams(seed, "sampler", indices))
        rows = mzi.evaluated_rows(mzi.random_setups(dim, rngs), mzi.random_strategies(dim, rngs))
        for (setup, strategy), rng in zip(rows, _streams(seed, "shots", indices)):
            probs = mzi.outcome_probabilities(setup, strategy)
            counts = mzi.sample_outcomes(probs, shots, rng)
            worst_z = max(worst_z, float(np.max(np.abs(mzi.z_scores(probs, counts)))))
    return CriterionResult(
        8,
        "sampler matches exact probabilities",
        worst_z <= 5.0,
        f"{n_scenarios} scenarios x {shots} shots, worst z-score {worst_z:.2f}",
    )


def criterion_saturation(seed: int, n_boundary: int = 100) -> CriterionResult:
    """Criterion 9: a pure detector with identity coupling saturates the
    duality bound, and boundary instances yield witnesses with a zero mode."""
    rng = next(_streams(seed, "saturation", [0]))
    setup = mzi.MZISetup(
        rho=QubitState.from_bloch([0.3, 0.0, 0.4]),
        rho_d=random_pure_detector_state(3, rng),
        u=np.eye(3, dtype=complex),
        phi=0.0,
    )
    report = mzi.duality_report(setup, None)
    saturation_gap = abs(report.duality_lhs - report.duality_rhs)

    # per stream a bias, then the share of its cap that the length of m takes
    rngs = _streams(seed, "boundary", range(n_boundary))
    m0, share = np.array([(rng.uniform(0.1, 0.9), rng.random()) for rng in rngs]).reshape(-1, 2).T
    m_len = share * 0.95 * np.minimum(m0, 1.0 - m0)
    s, t = jointmeas.criterion_roots(m0, m_len)
    zeros = np.zeros(n_boundary)
    inst = jointmeas.JMInstance(
        m0=m0,
        m_vec=np.stack([m_len, zeros, zeros], axis=-1),
        n_vec=np.stack([zeros, zeros, 0.5 * (s + t)], axis=-1),
    )
    low = effect_min_eigenvalue(jointmeas.construct_joint(inst).effects).min(axis=(1, 2))
    worst_zero = float(np.max(np.abs(low), initial=0.0))
    worst_neg = float(np.min(low, initial=0.0))
    passed = (saturation_gap <= IDENTITY_TOL and worst_zero <= ZERO_MODE_TOL
              and worst_neg >= -BOUND_TOL)
    return CriterionResult(
        9,
        "saturation and boundary zero modes",
        passed,
        f"saturation gap {saturation_gap:.2e}; {n_boundary} boundary witnesses, "
        f"largest |min eig| {worst_zero:.2e}",
    )


def run_all(seed: int = 20260810, oracle_count: int = 10_000) -> list[CriterionResult]:
    """Run every acceptance criterion; counts other than the oracle's scale
    proportionally, with floors so that quick runs still exercise everything."""
    factor = oracle_count / 10_000

    def scaled(default: int, floor: int) -> int:
        return max(floor, int(round(default * factor)))

    one, two = criteria_oracle_agreement(seed, count=oracle_count)
    return [
        one,
        two,
        criterion_physical_realizability(seed, count=scaled(1000, 50)),
        criterion_duality_inequality(seed, count=scaled(1000, 50)),
        criterion_optimum_is_max(seed, n_setups=scaled(24, 6), n_random=scaled(1000, 100)),
        criterion_pure_gap_and_identity(
            seed, n_pure=scaled(1000, 50), n_identity=scaled(10_000, 200)
        ),
        criterion_gap_slope(seed, count=scaled(100, 10)),
        criterion_sampler(seed, n_scenarios=scaled(10, 3)),
        criterion_saturation(seed, n_boundary=scaled(100, 10)),
    ]
