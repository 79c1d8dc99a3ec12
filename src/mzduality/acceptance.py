"""Acceptance suite: every release-gating property check in one place.

Each criterion function returns a CriterionResult; ``run_all`` executes the
whole battery.  All randomness is derived from an explicit base seed as
``default_rng([seed, criterion_tag, index])``, so a failure report pinpoints
the offending instance.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import jointmeas, mzi, qubit_detector
from .linalg import kron, partial_trace_detector
from .qubit import (
    IDENTITY_2,
    QubitState,
    random_detector_state,
    random_pure_detector_state,
    random_unitary,
)

log = logging.getLogger(__name__)

ORACLE_RESOLUTION = 0.01
# per-setup gates of criteria 3-4, shared with the sweep's check
BOUND_TOL = 1e-10
IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name} - {self.detail}"


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, index])


def criteria_oracle_agreement(
    seed: int, count: int = 10_000, resolution: float = ORACLE_RESOLUTION
) -> tuple[CriterionResult, CriterionResult]:
    """Criteria 1 and 2: the closed-form criterion versus the FULL grid oracle,
    and the REDUCED slice versus FULL, on instances clear of the boundary band.

    Instances are drawn one by one, in rounds of as many as are still
    missing, so the last one drawn is the last one kept; their margins and
    both oracles then run as array passes."""
    start = time.perf_counter()
    band = 3.0 * resolution
    kept = [np.zeros((4, 0))]  # rows m0, m, n, margin
    drawn = checked = 0
    while checked < count:
        draws = [jointmeas.draw_instance(_rng(seed, 1, drawn + k)) for k in range(count - checked)]
        drawn += len(draws)
        m0, m_vec, n_vec = map(np.array, zip(*draws))
        m, n = jointmeas.check_pairs(m0, m_vec, n_vec)
        margin = jointmeas.margins(m0, m, n)
        clear = np.abs(margin) >= band
        kept.append(np.array([m0, m, n, margin])[:, clear])
        checked += int(np.count_nonzero(clear))
    m0, m, n, margin = np.concatenate(kept, axis=1)
    lengths = jointmeas.Lengths(m0, m, n)
    full = jointmeas.feasibility_batch(lengths, resolution, mode="full")
    reduced = jointmeas.feasibility_batch(lengths, resolution, mode="reduced")
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


def reference_joint_observable(setup, strategy) -> np.ndarray:
    """The realized joint observable the long way, as the independent check
    of ``mzi.joint_observable``: for each output port i and guess set j,
    ``E_ij = tr_D[(I x rho_D) T^dag (|i><i| x P_j) T]`` with T the full
    interferometer unitary and P_j the detector projector onto the set.
    ``setup`` and ``strategy`` may also be one row of ``mzi.Setups`` and
    ``mzi.Strategies`` stacks."""
    total = mzi.interferometer_unitary(setup)
    weighted = kron(IDENTITY_2, setup.rho_d) @ total.conj().T
    effects = np.zeros((2, 2, 2, 2), dtype=complex)
    for j, guess_set in enumerate((strategy.in_s, ~strategy.in_s)):
        columns = strategy.basis[:, guess_set]
        for i in range(2):
            port = np.zeros((2, 2))
            port[i, i] = 1.0
            projector = kron(port, columns @ columns.conj().T)
            effect = partial_trace_detector(weighted @ projector @ total)
            effects[i, j] = (effect + effect.conj().T) / 2.0
    return effects


def joint_observable_residuals(
    setup: mzi.MZISetup, strategy: mzi.Strategy
) -> tuple[float, float, float]:
    """(most negative effect eigenvalue, completeness residual, marginal residual)."""
    return tuple(float(residual[0]) for residual in mzi.evaluate_setup(setup, strategy).residuals)


def identity_residual(stats: mzi.StrategyStats, report: mzi.DualityReport):
    """Signed residual of ``D_S^2 + cross^2 (1 - P^2) = 1 - gamma_S^2``, with
    ``cross = sqrt(eta_S eta_S^U) + sqrt(eta_Sbar eta_Sbar^U)``: the identity
    behind the strategy-resolved duality bound.  Elementwise over stacks."""
    cross = np.sqrt(stats.eta_s * stats.eta_s_u) + np.sqrt(stats.eta_sbar * stats.eta_sbar_u)
    return (
        report.distinguishability**2
        + cross**2 * (1.0 - report.predictability**2)
        - (1.0 - report.tightness_gap**2)
    )


def setup_violations(setup: mzi.MZISetup, strategy: mzi.Strategy, optimal: bool) -> list[str]:
    """The per-setup checks of criteria 3 and 4, one message per failed gate.
    The classic bound is checked only when ``optimal`` says the strategy is
    the optimal one."""
    problems = []
    report = mzi.duality_report(setup, strategy)
    min_eig, completeness, marginal = joint_observable_residuals(setup, strategy)
    if min_eig < -BOUND_TOL:
        problems.append(f"effect eigenvalue {min_eig:.3e} below -{BOUND_TOL:g}")
    if completeness > BOUND_TOL or marginal > BOUND_TOL:
        problems.append(f"POVM residual {max(completeness, marginal):.3e} above {BOUND_TOL:g}")
    if report.duality_lhs > report.duality_rhs + BOUND_TOL:
        problems.append(
            f"duality violated: lhs {report.duality_lhs!r} > rhs {report.duality_rhs!r}"
        )
    identity = identity_residual(mzi.strategy_stats(setup, strategy), report)
    if abs(identity) > IDENTITY_TOL:
        problems.append(f"gap identity residual {identity:.3e} above {IDENTITY_TOL:g}")
    if optimal and report.jsve_lhs > 1.0 + BOUND_TOL:
        problems.append(f"classic duality bound violated: {report.jsve_lhs!r}")
    margin = jointmeas.jm_margin(jointmeas.instance_from_setup(setup, strategy))
    if margin < -BOUND_TOL:
        problems.append(f"derived instance infeasible: margin {margin:.3e}")
    return problems


def criterion_physical_realizability(seed: int, count: int = 1000) -> CriterionResult:
    """Criterion 3: realized joint observables are POVMs with the right
    marginals and agree with the full-interferometer reference, and the
    derived instance is never infeasible."""
    worst_eig = 0.0
    worst_residual = 0.0
    worst_margin = np.inf
    for dim in (2, 3, 4)[:count]:
        rngs = [_rng(seed, 3, index) for index in range(dim - 2, count, 3)]
        setups = mzi.random_setups(dim, rngs)
        strategies = mzi.random_strategies(dim, rngs)
        result = mzi.Evaluation(setups, strategies)
        for k, closed in enumerate(result.effects):
            row = mzi.Strategies(strategies.basis[k], strategies.in_s[k])
            reference = reference_joint_observable(setups.rows(k), row)
            worst_residual = max(worst_residual, float(np.max(np.abs(closed - reference))))
        min_eig, completeness, marginal = result.residuals
        worst_eig = min(worst_eig, float(np.min(min_eig)))
        worst_residual = max(worst_residual, float(np.max(completeness)), float(np.max(marginal)))
        m0, m_vec, n_vec = result.pair
        margin = jointmeas.margins(m0, *jointmeas.check_pairs(m0, m_vec, n_vec))
        worst_margin = min(worst_margin, float(np.min(margin)))
    passed = worst_eig >= -BOUND_TOL and worst_residual <= BOUND_TOL and worst_margin >= -BOUND_TOL
    return CriterionResult(
        3,
        "realized joint observables are valid POVMs",
        passed,
        f"{count} setups, min eig {worst_eig:.2e}, worst residual {worst_residual:.2e}, "
        f"min margin {worst_margin:.2e}",
    )


def criterion_duality_inequality(seed: int, count: int = 1000) -> CriterionResult:
    """Criterion 4: the strategy-resolved duality bound, its underlying
    identity, the classic bound under the optimal strategy (even indices),
    and strictness."""
    worst_gap = -np.inf
    worst_identity = 0.0
    worst_jsve = -np.inf
    strict_found = False
    # index % 6 fixes both the dimension, 2 + index % 3, and the parity
    for residue in range(min(count, 6)):
        dim = 2 + residue % 3
        rngs = [_rng(seed, 4, index) for index in range(residue, count, 6)]
        setups = mzi.random_setups(dim, rngs)
        if residue % 2 == 0:
            result = mzi.Evaluation(setups)
            worst_jsve = max(worst_jsve, float(np.max(result.report.jsve_lhs)))
        else:
            result = mzi.Evaluation(setups, mzi.random_strategies(dim, rngs))
        report = result.report
        worst_gap = max(worst_gap, float(np.max(report.duality_lhs - report.duality_rhs)))
        identity = identity_residual(result.stats, report)
        worst_identity = max(worst_identity, float(np.max(np.abs(identity))))
        strict_found = strict_found or bool(np.any(report.duality_rhs < 1.0 - 1e-4))
    passed = (
        worst_gap <= BOUND_TOL
        and worst_identity <= IDENTITY_TOL
        and worst_jsve <= 1.0 + BOUND_TOL
        and strict_found
    )
    return CriterionResult(
        4,
        "duality inequality, identity, and strictness",
        passed,
        f"{count} configurations, max lhs-rhs {worst_gap:.2e}, max identity residual "
        f"{worst_identity:.2e}, max classic lhs {worst_jsve:.6f}, strict case found: {strict_found}",
    )


def criterion_optimum_is_max(
    seed: int, n_setups: int = 24, n_random: int = 1000
) -> CriterionResult:
    """Criterion 5: the trace-norm optimum equals the exhaustive eigenbasis
    maximum and dominates random strategies (detector dimensions 2 and 3).
    Each setup's random strategies are drawn one by one and scored as one
    stack."""
    worst_exhaustive = 0.0
    worst_random = -np.inf
    for index in range(n_setups):
        rng = _rng(seed, 5, index)
        dim = 2 + index % 2
        setup = mzi.random_setups(dim, [rng])
        randoms = mzi.random_strategies(dim, [rng] * n_random)
        optimum = mzi.Evaluation(setup)
        d_max = float(optimum.report.max_distinguishability[0])
        # every subset of the guess operator's eigenbasis
        subsets = np.array(list(product((False, True), repeat=dim)))
        eigenbasis = np.repeat(optimum.strategies.basis, len(subsets), axis=0)
        exhaustive = mzi.Evaluation(
            setup.rows([0] * len(subsets)), mzi.Strategies(eigenbasis, subsets)
        )
        best = float(np.max(exhaustive.report.distinguishability))
        worst_exhaustive = max(worst_exhaustive, abs(best - d_max))
        scored = mzi.Evaluation(setup.rows([0] * n_random), randoms)
        worst_random = max(worst_random, float(np.max(scored.report.distinguishability)) - d_max)
    passed = worst_exhaustive <= 1e-10 and worst_random <= 1e-10
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
        rngs = [_rng(seed, 6, index) for index in range(n_pure)]
        setups = mzi.random_setups(2, rngs, detector_state=random_pure_detector_state)
        worst_gap = float(np.max(mzi.Evaluation(setups).report.tightness_gap))
    worst_residual = 0.0
    for index in range(n_identity):
        rng = _rng(seed, 60, index)
        radius = float(rng.random())
        a_dir = rng.standard_normal(3)
        a_dir /= np.linalg.norm(a_dir)
        b_dir = rng.standard_normal(3)
        b_dir /= np.linalg.norm(b_dir)
        analysis = qubit_detector.QubitDetectorAnalysis(
            alpha=radius * a_dir, beta=radius * b_dir, p=float(rng.uniform(-0.99, 0.99))
        )
        worst_residual = max(worst_residual, qubit_detector.purity_identity_residual(analysis))
    passed = worst_gap <= 1e-10 and worst_residual <= 1e-12
    return CriterionResult(
        6,
        "pure-detector gap vanishes; product identity holds",
        passed,
        f"{n_pure} pure states max gap {worst_gap:.2e}; {n_identity} analyses max residual "
        f"{worst_residual:.2e}",
    )


def criterion_gap_slope(seed: int, count: int = 100, p_step: float = 1e-4) -> CriterionResult:
    """Criterion 7: the predicted small-bias slope of the tightness gap matches
    finite differences, including the closed-form reference case."""
    worst_rel = 0.0
    for index in range(count):
        rng = _rng(seed, 7, index)
        rho_d = random_detector_state(2, rng)
        u = random_unitary(2, rng)
        predicted = qubit_detector.gap_slope_prediction(rho_d, u)
        empirical = qubit_detector.gap_slope_empirical(rho_d, u, p_step)
        worst_rel = max(worst_rel, abs(empirical - predicted) / abs(predicted))
    # Bloch radius 1/2 along z, quarter-turn about x: slope = 0.75 / sqrt(0.875)
    rho_ref = np.diag([0.75, 0.25]).astype(complex)
    u_ref = np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * np.array([[0, 1], [1, 0]])
    expected = 0.75 / np.sqrt(0.875)
    pred_ref = qubit_detector.gap_slope_prediction(rho_ref, u_ref)
    emp_ref = qubit_detector.gap_slope_empirical(rho_ref, u_ref, p_step)
    ref_ok = abs(pred_ref - expected) <= 1e-12 and abs(emp_ref - expected) / expected <= 1e-3
    passed = worst_rel <= 1e-3 and ref_ok
    return CriterionResult(
        7,
        "tightness-gap slope matches finite differences",
        passed,
        f"{count} detectors, worst relative error {worst_rel:.2e}; reference case "
        f"{emp_ref:.9f} vs {expected:.9f}",
    )


def criterion_sampler(seed: int, n_scenarios: int = 10, shots: int = 10**6) -> CriterionResult:
    """Criterion 8: empirical outcome frequencies stay within five binomial
    standard deviations of the exact probabilities."""
    worst_z = 0.0
    for index in range(n_scenarios):
        rng = _rng(seed, 8, index)
        setup = mzi.random_setup(2 + index % 3, rng)
        strategy = mzi.random_strategy(setup.detector_dim, rng)
        probs = mzi.outcome_probabilities(setup, strategy)
        counts = mzi.sample_outcomes(setup, strategy, shots, _rng(seed, 80, index))
        freqs = counts / shots
        for i in range(2):
            for j in range(2):
                p = probs[i, j]
                sigma = np.sqrt(max(p * (1.0 - p), 0.0) / shots)
                if sigma == 0.0:
                    if freqs[i, j] != p:
                        worst_z = np.inf
                    continue
                worst_z = max(worst_z, abs(freqs[i, j] - p) / sigma)
    return CriterionResult(
        8,
        "sampler matches exact probabilities",
        worst_z <= 5.0,
        f"{n_scenarios} scenarios x {shots} shots, worst z-score {worst_z:.2f}",
    )


def criterion_saturation(seed: int, n_boundary: int = 100) -> CriterionResult:
    """Criterion 9: a pure detector with identity coupling saturates the
    duality bound, and boundary instances yield witnesses with a zero mode."""
    rng = _rng(seed, 9, 0)
    setup = mzi.MZISetup(
        rho=QubitState.from_bloch([0.3, 0.0, 0.4]),
        rho_d=random_pure_detector_state(3, rng),
        u=np.eye(3, dtype=complex),
        phi=0.0,
    )
    report = mzi.duality_report(setup, mzi.optimal_strategy(setup))
    saturation_gap = abs(report.duality_lhs - report.duality_rhs)

    worst_zero = 0.0
    worst_neg = 0.0
    for index in range(n_boundary):
        rng = _rng(seed, 90, index)
        m0 = float(rng.uniform(0.1, 0.9))
        m_len = float(rng.random()) * 0.95 * min(m0, 1.0 - m0)
        s = np.sqrt(m0 * m0 - m_len * m_len)
        t = np.sqrt((1.0 - m0) ** 2 - m_len * m_len)
        inst = jointmeas.JMInstance(
            m0=m0,
            m_vec=np.array([m_len, 0.0, 0.0]),
            n_vec=np.array([0.0, 0.0, 0.5 * (s + t)]),
        )
        witness = jointmeas.construct_joint(inst)
        low = jointmeas.min_effect_eigenvalue(witness.effects)
        worst_zero = max(worst_zero, abs(low))
        worst_neg = min(worst_neg, low)
    passed = saturation_gap <= 1e-12 and worst_zero <= 1e-8 and worst_neg >= -1e-10
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
