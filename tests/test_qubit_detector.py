import numpy as np
import pytest

from mzduality.errors import DegenerateFidelity, InvalidInstance
from mzduality import mzi
from mzduality.qubit import (
    SIGMA_X,
    QubitState,
    random_detector_state,
    random_pure_detector_state,
    random_unitary,
)
from mzduality.qubit_detector import (
    QubitDetectorAnalysis,
    analysis_from_states,
    gap_slope_empirical,
    gap_slope_prediction,
    optimal_projective_qubit,
    purity_identity_residual,
)

QUARTER_TURN_X = np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * SIGMA_X
HALF_RADIUS_Z = np.diag([0.75, 0.25]).astype(complex)  # Bloch radius 1/2 along z
REFERENCE_SLOPE = 0.75 / np.sqrt(0.875)


def random_analysis(rng, max_radius=1.0):
    radius = float(rng.uniform(0.0, max_radius))
    a_dir = rng.standard_normal(3)
    a_dir /= np.linalg.norm(a_dir)
    b_dir = rng.standard_normal(3)
    b_dir /= np.linalg.norm(b_dir)
    return QubitDetectorAnalysis(
        alpha=radius * a_dir, beta=radius * b_dir, p=float(rng.uniform(-0.99, 0.99))
    )


class TestAnalysis:
    def test_rejects_non_finite_bloch_data(self):
        with pytest.raises(InvalidInstance):
            QubitDetectorAnalysis(alpha=[np.nan, 0.0, 0.0], beta=[0.0, 0.0, 0.0], p=0.1)

    def test_rejects_mismatched_radii(self):
        with pytest.raises(InvalidInstance):
            QubitDetectorAnalysis(alpha=np.array([0.5, 0, 0]), beta=np.array([0.4, 0, 0]), p=0.1)

    def test_derived_quantities(self):
        analysis = QubitDetectorAnalysis(
            alpha=np.array([0.0, 0.0, 0.5]), beta=np.array([0.0, 0.5, 0.0]), p=0.2
        )
        assert analysis.a == pytest.approx(0.25)
        assert analysis.b == pytest.approx(0.0)
        assert analysis.w_plus == pytest.approx(0.6)

    def test_extraction_from_matrices(self):
        analysis = analysis_from_states(HALF_RADIUS_Z, QUARTER_TURN_X, p=0.0)
        np.testing.assert_allclose(analysis.alpha, [0.0, 0.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(analysis.beta, [0.0, -0.5, 0.0], atol=1e-12)


class TestOptimalDirection:
    def test_commuting_coupling_aligns_with_state(self):
        analysis = QubitDetectorAnalysis(
            alpha=np.array([0.0, 0.0, 0.6]), beta=np.array([0.0, 0.0, 0.6]), p=0.4
        )
        s, eta_s, _ = optimal_projective_qubit(analysis)
        np.testing.assert_allclose(s, [0.0, 0.0, 1.0], atol=1e-12)
        assert eta_s == pytest.approx(0.8)

    def test_degenerate_direction_convention(self):
        analysis = QubitDetectorAnalysis(alpha=np.zeros(3), beta=np.zeros(3), p=0.0)
        s, eta_s, eta_s_u = optimal_projective_qubit(analysis)
        np.testing.assert_allclose(s, [0.0, 0.0, 1.0])
        assert eta_s == eta_s_u == pytest.approx(0.5)

    def test_matches_matrix_pipeline(self):
        # generic regime: the guess operator has exactly one positive eigenvalue
        rng = np.random.default_rng(81)
        checked = 0
        while checked < 200:
            rho_d = random_detector_state(2, rng)
            u = random_unitary(2, rng)
            p = float(rng.uniform(-0.2, 0.2))
            analysis = analysis_from_states(rho_d, u, p)
            raw = analysis.w_plus * analysis.alpha - analysis.w_minus * analysis.beta
            if np.linalg.norm(raw) <= abs(p):
                continue
            _, eta_s, eta_s_u = optimal_projective_qubit(analysis)
            setup = mzi.MZISetup(
                rho=QubitState.from_bloch([p, 0.0, 0.0]), rho_d=rho_d, u=u, phi=0.0
            )
            stats = mzi.strategy_stats(setup, mzi.optimal_strategy(setup))
            assert stats.eta_s == pytest.approx(eta_s, abs=1e-10)
            assert stats.eta_s_u == pytest.approx(eta_s_u, abs=1e-10)
            checked += 1


class TestProductIdentity:
    def test_pure_state_zeroes_both_sides(self):
        rng = np.random.default_rng(82)
        for _ in range(100):
            analysis = random_analysis(rng)
            pure = QubitDetectorAnalysis(
                alpha=analysis.alpha / max(np.linalg.norm(analysis.alpha), 1e-9),
                beta=analysis.beta / max(np.linalg.norm(analysis.beta), 1e-9),
                p=analysis.p,
            )
            assert purity_identity_residual(pure) <= 1e-12

    def test_zero_bias(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            analysis = random_analysis(rng)
            balanced = QubitDetectorAnalysis(alpha=analysis.alpha, beta=analysis.beta, p=0.0)
            assert purity_identity_residual(balanced) <= 1e-14

    def test_random_mixed_analyses(self):
        rng = np.random.default_rng(84)
        for _ in range(2000):
            assert purity_identity_residual(random_analysis(rng)) <= 1e-12


class TestGapSlope:
    def test_pure_detector_slope_vanishes(self):
        rng = np.random.default_rng(85)
        for _ in range(10):
            rho_d = random_pure_detector_state(2, rng)
            u = random_unitary(2, rng)
            assert gap_slope_prediction(rho_d, u) <= 1e-9
            assert abs(gap_slope_empirical(rho_d, u, 1e-4)) <= 1e-8

    def test_reference_case(self):
        assert gap_slope_prediction(HALF_RADIUS_Z, QUARTER_TURN_X) == pytest.approx(
            REFERENCE_SLOPE, abs=1e-12
        )
        empirical = gap_slope_empirical(HALF_RADIUS_Z, QUARTER_TURN_X, 1e-4)
        assert abs(empirical - REFERENCE_SLOPE) / REFERENCE_SLOPE <= 1e-3

    def test_random_mixed_detectors(self):
        rng = np.random.default_rng(86)
        for _ in range(25):
            rho_d = random_detector_state(2, rng)
            u = random_unitary(2, rng)
            predicted = gap_slope_prediction(rho_d, u)
            empirical = gap_slope_empirical(rho_d, u, 1e-4)
            assert abs(empirical - predicted) / predicted <= 1e-3

    def test_degenerate_fidelity_raises(self):
        # pure state flipped to its antipode: the fidelity ratio is undefined
        with pytest.raises(DegenerateFidelity):
            gap_slope_prediction(np.diag([1.0, 0.0]).astype(complex), SIGMA_X)

    def test_p_step_validation(self):
        with pytest.raises(ValueError):
            gap_slope_empirical(HALF_RADIUS_Z, QUARTER_TURN_X, 0.5)
