import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzduality.errors import (
    DegenerateFidelity,
    DimensionMismatch,
    InvalidInstance,
    InvalidState,
    NotUnitary,
)
from mzduality import mzi
from mzduality.linalg import INPUT_TOL
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
    gap_at_bias,
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

    @pytest.mark.parametrize("alpha, beta, named", [
        ([1e300, 0.0, 0.0], [1e300, 0.0, 0.0], "alpha component 1e+300 exceeds 1"),
        ([0.5, 0.0, 0.0], [0.0, -1e300, 0.0], "beta component -1e+300 exceeds 1"),
    ])
    def test_names_a_huge_component_before_the_norms_overflow(self, alpha, beta, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInstance, match=f"^{re.escape(named)}$"):
                QubitDetectorAnalysis(alpha=alpha, beta=beta, p=0.0)

    def test_the_component_guard_refuses_no_pair_the_norms_take(self):
        # |alpha| may pass 1 by INPUT_TOL, and |beta| pass |alpha| by as much again
        miss = 0.9 * INPUT_TOL
        beta = [1.0 + 2.0 * miss, 0.0, 0.0]
        QubitDetectorAnalysis(alpha=[1.0 + miss, 0.0, 0.0], beta=beta, p=0.0)

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

    def test_a_stack_is_its_rows_one_by_one(self):
        rng = np.random.default_rng(80)
        rho_d = np.stack([random_detector_state(2, rng) for _ in range(3)])
        u = np.stack([random_unitary(2, rng) for _ in range(3)])
        p = np.array([-0.3, 0.0, 0.8])
        stacked = analysis_from_states(rho_d, u, p)
        for k in range(3):
            alone = analysis_from_states(rho_d[k], u[k], p[k])
            assert alone.alpha.tobytes() == stacked.alpha[k].tobytes()
            assert alone.beta.tobytes() == stacked.beta[k].tobytes()
            assert alone.p == stacked.p[k]

    def test_unitary_must_match_the_state(self):
        with pytest.raises(DimensionMismatch, match=r"unitary is \(3, 3\) but state is \(2, 2\)"):
            analysis_from_states(HALF_RADIUS_Z, np.eye(3), 0.0)

    def test_input_validation(self):
        for extract in (lambda rho_d, u: analysis_from_states(rho_d, u, 0.0), gap_slope_prediction):
            with pytest.raises(InvalidState):
                extract(np.diag([0.9, 0.3]), np.eye(2))
            with pytest.raises(NotUnitary):
                extract(np.eye(2) / 2, np.diag([1.0, 2.0]))


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

    def test_uncoupled_detector(self):
        # U = I leaves the state unchanged, F = 1, so the slope is 2 (1 - tr rho_D^2)
        rng = np.random.default_rng(107)
        rho_d = np.stack([random_detector_state(2, rng) for _ in range(20)])
        purity = np.real(np.trace(rho_d @ rho_d, axis1=1, axis2=2))
        predicted = gap_slope_prediction(rho_d, np.stack([np.eye(2)] * 20))
        np.testing.assert_allclose(predicted, 2.0 * (1.0 - purity), rtol=0, atol=1e-12)

    def test_maximally_mixed_detector(self):
        # every U leaves I/2 unchanged, so F = 1 and 2 (1 - tr rho_D^2) = 1
        rng = np.random.default_rng(108)
        u = np.stack([random_unitary(2, rng) for _ in range(20)])
        predicted = gap_slope_prediction(np.stack([np.eye(2) / 2] * 20), u)
        np.testing.assert_allclose(predicted, 1.0, rtol=0, atol=1e-12)

    def test_random_mixed_detectors(self):
        rng = np.random.default_rng(86)
        for _ in range(25):
            rho_d = random_detector_state(2, rng)
            u = random_unitary(2, rng)
            predicted = gap_slope_prediction(rho_d, u)
            empirical = gap_slope_empirical(rho_d, u, 1e-4)
            assert abs(empirical - predicted) / predicted <= 1e-3

    def test_prediction_validates_each_detector_once(self, monkeypatch):
        # analysis_from_states's check is the only one, for one detector or a stack
        from mzduality import linalg, qubit_detector

        calls, check = [], linalg.require_density

        def spy(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(linalg, "require_density", spy)
        monkeypatch.setattr(qubit_detector, "require_density", spy)
        stack = np.stack([HALF_RADIUS_Z, random_detector_state(2, 87)])
        for rho_d, u in ((HALF_RADIUS_Z, QUARTER_TURN_X), (stack, np.stack([QUARTER_TURN_X] * 2))):
            calls.clear()
            gap_slope_prediction(rho_d, u)
            assert len(calls) == 1

    def test_degenerate_fidelity_raises(self):
        # pure state flipped to its antipode: the fidelity ratio is undefined
        with pytest.raises(DegenerateFidelity):
            gap_slope_prediction(np.diag([1.0, 0.0]).astype(complex), SIGMA_X)

    def test_p_step_validation(self):
        with pytest.raises(ValueError):
            gap_slope_empirical(HALF_RADIUS_Z, QUARTER_TURN_X, 0.5)


# The per-item functions the stacked ones replaced, copied from before they
# took stacks, as the reference the stacks are pinned to.
def reference_direction(alpha, beta, p):
    w_plus, w_minus = 0.5 * (1.0 + p), 0.5 * (1.0 - p)
    raw = w_plus * alpha - w_minus * beta
    norm = float(np.linalg.norm(raw))
    s = raw / norm if norm > 1e-12 else np.array([0.0, 0.0, 1.0])
    return s, 0.5 * (1.0 + float(alpha @ s)), 0.5 * (1.0 + float(beta @ s))


def reference_residual(alpha, beta, p):
    _, eta_s, eta_s_u = reference_direction(alpha, beta, p)
    w_plus, w_minus = 0.5 * (1.0 + p), 0.5 * (1.0 - p)
    lhs = w_plus**2 * eta_s * (1.0 - eta_s) - w_minus**2 * eta_s_u * (1.0 - eta_s_u)
    return abs(lhs - 0.25 * (1.0 - float(alpha @ alpha)) * p)


def reference_fidelity(rho, u):
    rotated = u @ rho @ u.conj().T
    overlap = float(np.real(np.trace(rho @ rotated)))
    det = float(np.real(np.linalg.det(rho)))
    return float(min(np.sqrt(max(overlap + 2.0 * det, 0.0)), 1.0))


def reference_prediction(rho, u):
    purity = float(np.real(np.trace(rho @ rho)))
    return 2.0 * max(1.0 - purity, 0.0) / reference_fidelity(rho, u)


def reference_gap(rho, u, p):
    setup = mzi.MZISetup(rho=QubitState.from_bloch([p, 0.0, 0.0]), rho_d=rho, u=u, phi=0.0)
    # the slope divides by p, so the path weights must be the kernel's to the last bit
    return mzi.duality_report(setup, mzi.optimal_strategy(setup)).tightness_gap


def reference_slope(rho, u, p_step):
    coarse = reference_gap(rho, u, p_step) / p_step
    fine = reference_gap(rho, u, 0.5 * p_step) / (0.5 * p_step)
    return 2.0 * fine - coarse


@st.composite
def analysis_stacks(draw):
    """(alpha, beta, p) stacks of up to 12 analyses: mixed or pure Bloch
    radii, biases inside (-1, 1) or at +-1, and degenerate directions where
    w+ alpha = w- beta (alpha = beta at p = 0, or alpha = beta = 0)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["mixed", "pure", "edge", "flat", "zero"]),
                              min_size=1, max_size=12)):
        radius = 1.0 if kind == "pure" else float(rng.random())
        a_dir, b_dir = rng.standard_normal((2, 3))
        alpha = radius * a_dir / np.linalg.norm(a_dir)
        beta = radius * b_dir / np.linalg.norm(b_dir)
        p = float(rng.uniform(-0.99, 0.99))
        if kind == "edge":
            p = float(rng.choice([-1.0, 1.0]))
        elif kind == "flat":
            beta, p = alpha, 0.0
        elif kind == "zero":
            alpha = beta = np.zeros(3)
        rows.append((alpha, beta, p))
    return tuple(map(np.array, zip(*rows)))


@st.composite
def detector_stacks(draw):
    """(rho_d, u, p): up to 12 mixed or pure qubit detectors with Haar
    couplings or none, and path biases in [-1, 1] with the endpoints."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["mixed", "pure", "uncoupled"]), min_size=1,
                          max_size=12))
    states = [random_pure_detector_state(2, rng) if kind == "pure" else
              random_detector_state(2, rng) for kind in kinds]
    unitaries = [np.eye(2, dtype=complex) if kind == "uncoupled" else random_unitary(2, rng)
                 for kind in kinds]
    p = np.array([draw(st.sampled_from([-1.0, 1.0, float(rng.uniform(-1.0, 1.0))]))
                  for _ in kinds])
    return np.array(states), np.array(unitaries), p


class TestStacks:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(analysis_stacks())
    def test_analysis_stack_matches_per_item_reference(self, case):
        alpha, beta, p = case
        stacked = QubitDetectorAnalysis(alpha=alpha, beta=beta, p=p)
        s, eta_s, eta_s_u = optimal_projective_qubit(stacked)
        residual = purity_identity_residual(stacked)
        for k in range(len(p)):
            want_s, want_eta, want_eta_u = reference_direction(alpha[k], beta[k], p[k])
            np.testing.assert_allclose(s[k], want_s, atol=1e-12)
            assert abs(eta_s[k] - want_eta) <= 1e-12
            assert abs(eta_s_u[k] - want_eta_u) <= 1e-12
            assert abs(residual[k] - reference_residual(alpha[k], beta[k], p[k])) <= 1e-12
            # one analysis is the stack of one
            single = QubitDetectorAnalysis(alpha=alpha[k], beta=beta[k], p=p[k])
            assert purity_identity_residual(single) == residual[k]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(detector_stacks())
    def test_detector_stack_matches_per_item_reference(self, case):
        rho_d, u, p = case
        fidelity = np.array([reference_fidelity(rho_d[k], u[k]) for k in range(len(p))])
        gaps = gap_at_bias(rho_d, u, p)
        slopes = gap_slope_empirical(rho_d, u, 1e-4)
        for k in range(len(p)):
            assert abs(gaps[k] - reference_gap(rho_d[k], u[k], p[k])) <= 1e-12
            assert abs(slopes[k] - reference_slope(rho_d[k], u[k], 1e-4)) <= 1e-12
        if np.all(fidelity > 1e-12):
            predicted = gap_slope_prediction(rho_d, u)
            for k in range(len(p)):
                assert abs(predicted[k] - reference_prediction(rho_d[k], u[k])) <= 1e-12
        else:
            with pytest.raises(DegenerateFidelity):
                gap_slope_prediction(rho_d, u)

    def test_rejects_bad_stacks(self):
        alpha = np.array([[0.0, 0.0, 0.5], [0.0, 0.5, 0.0]])
        for p in ([0.1, np.nan], [0.1, 1.5], [0.1]):
            with pytest.raises(InvalidInstance):
                QubitDetectorAnalysis(alpha=alpha, beta=alpha, p=np.array(p))
        with pytest.raises(InvalidInstance):
            QubitDetectorAnalysis(alpha=alpha, beta=alpha[::-1] * 0.9, p=np.zeros(2))
