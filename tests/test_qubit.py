import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mzduality.errors import BadDimension, InvalidEffect, InvalidState
from mzduality.linalg import hermitian_eig
from mzduality.qubit import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BinaryQubitObservable,
    QubitState,
    bloch_to_matrix,
    matrix_to_bloch,
    random_detector_state,
    random_pure_detector_state,
    random_qubit_state,
    random_unitary,
)


@st.composite
def valid_effects(draw):
    """(bias, v) with |v| <= min(bias, 1 - bias): bias in [0, 1], v a nonzero
    direction scaled to a fraction of its cap."""
    bias = draw(st.floats(0.0, 1.0))
    direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    assume(np.linalg.norm(direction) > 1e-3)
    fraction = draw(st.floats(0.0, 1.0))
    return bias, direction / np.linalg.norm(direction) * fraction * min(bias, 1.0 - bias)


class TestBlochConversions:
    def test_trivial_coin(self):
        np.testing.assert_allclose(bloch_to_matrix(np.zeros(3), 0.5), IDENTITY_2 / 2)

    def test_sharp_projector(self):
        np.testing.assert_allclose(
            bloch_to_matrix(np.array([0.0, 0.0, 0.5]), 0.5), np.diag([1.0, 0.0])
        )

    def test_round_trip_random(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            bias = float(rng.uniform(0.0, 1.0))
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            vector = direction * rng.uniform(0.0, min(bias, 1.0 - bias))
            back_bias, back_vector = matrix_to_bloch(bloch_to_matrix(vector, bias))
            assert back_bias == pytest.approx(bias, abs=1e-12)
            np.testing.assert_allclose(back_vector, vector, atol=1e-12)

    def test_invalid_effect_rejected(self):
        with pytest.raises(InvalidEffect):
            bloch_to_matrix(np.array([0.6, 0.0, 0.0]), 0.5)
        with pytest.raises(InvalidEffect):
            bloch_to_matrix([np.nan, 0.0, 0.0], 0.5)
        with pytest.raises(InvalidEffect):
            bloch_to_matrix(np.zeros(3), np.inf)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(valid_effects())
    def test_observable_uses_the_bloch_map(self, effect):
        bias, vector = effect
        obs = BinaryQubitObservable(bias=bias, vector=vector)
        np.testing.assert_array_equal(obs.effect(0), bloch_to_matrix(vector, bias))
        np.testing.assert_allclose(obs.effect(0) + obs.effect(1), IDENTITY_2, atol=1e-15)
        back_bias, back_vector = matrix_to_bloch(bloch_to_matrix(vector, bias))
        assert back_bias == pytest.approx(bias, abs=1e-15)
        np.testing.assert_allclose(back_vector, vector, atol=1e-15)

    def test_validity_matches_eigenvalue_bounds(self):
        # bloch_to_matrix accepts (bias, v) iff the matrix spectrum sits in [0, 1]
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 10_000:
            bias = float(rng.uniform(-0.2, 1.2))
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            vector = direction * rng.uniform(0.0, 0.8)
            slack = min(bias, 1.0 - bias) - np.linalg.norm(vector)
            if abs(slack) < 1e-9:
                continue
            matrix = bias * IDENTITY_2 + sum(v * s for v, s in zip(vector, (SIGMA_X, SIGMA_Y, SIGMA_Z)))
            vals = hermitian_eig(matrix).eigenvalues
            try:
                bloch_to_matrix(vector, bias)
                accepted = True
            except InvalidEffect:
                accepted = False
            assert accepted == (vals[0] >= 0.0 and vals[-1] <= 1.0)
            checked += 1


class TestPauliPhi:
    # the sharp interference observable at phase phi: cos(phi) sigma_z - sin(phi) sigma_y
    def test_zero_phase(self):
        np.testing.assert_allclose(np.cos(0.0) * SIGMA_Z - np.sin(0.0) * SIGMA_Y, SIGMA_Z)

    def test_quarter_phase(self):
        quarter = np.cos(np.pi / 2) * SIGMA_Z - np.sin(np.pi / 2) * SIGMA_Y
        np.testing.assert_allclose(quarter, -SIGMA_Y, atol=1e-15)

    def test_unit_spectrum_and_involution(self):
        for phi in np.linspace(-2 * np.pi, 2 * np.pi, 17):
            sharp = np.cos(phi) * SIGMA_Z - np.sin(phi) * SIGMA_Y
            np.testing.assert_allclose(hermitian_eig(sharp).eigenvalues, [-1.0, 1.0], atol=1e-12)
            np.testing.assert_allclose(sharp @ sharp, IDENTITY_2, atol=1e-15)


class TestQubitState:
    def test_from_bloch_and_back(self):
        state = QubitState.from_bloch([0.2, -0.3, 0.4])
        np.testing.assert_allclose(state.bloch(), [0.2, -0.3, 0.4], atol=1e-14)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidState):
            QubitState(np.diag([0.9, 0.3]))

    def test_rejects_long_bloch_vector(self):
        with pytest.raises(InvalidState):
            QubitState.from_bloch([1.0, 0.5, 0.0])

    @pytest.mark.parametrize("component", [1e300, -1e300, np.inf, 1.5])
    def test_rejects_a_large_component_as_given(self, component):
        with pytest.raises(InvalidState, match=re.escape(f"component {component:.6g} exceeds 1")):
            QubitState.from_bloch([0.0, component, 0.0])

    def test_rejects_non_finite_bloch_vector(self):
        with pytest.raises(InvalidState):
            QubitState.from_bloch([np.nan, 0.0, 0.0])


class TestBinaryQubitObservable:
    def test_effects_sum_to_identity(self):
        obs = BinaryQubitObservable(bias=0.6, vector=np.array([0.1, 0.2, 0.1]))
        np.testing.assert_allclose(obs.effect(0) + obs.effect(1), IDENTITY_2, atol=1e-15)

    def test_invalid_vector_rejected(self):
        with pytest.raises(InvalidEffect):
            BinaryQubitObservable(bias=0.9, vector=np.array([0.2, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidEffect):
            BinaryQubitObservable(bias=bad, vector=np.zeros(3))
        with pytest.raises(InvalidEffect):
            BinaryQubitObservable(bias=0.5, vector=np.array([0.0, bad, 0.0]))


class TestRandomGenerators:
    def test_states_pass_validators(self):
        # constructing a QubitState runs the full validity check
        for seed in range(10_000):
            random_qubit_state(seed)

    def test_unitaries_are_unitary(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            u = random_unitary(d, rng)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-10

    def test_detector_states_are_densities(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            rho = random_detector_state(d, rng)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho)[0] >= -1e-12

    def test_pure_states_have_unit_purity(self):
        rng = np.random.default_rng(25)
        for d in (2, 3, 8):
            rho = random_pure_detector_state(d, rng)
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_seed_determinism(self):
        assert np.array_equal(random_unitary(4, 9), random_unitary(4, 9))
        assert np.array_equal(
            random_qubit_state(7).matrix, random_qubit_state(7).matrix
        )

    @pytest.mark.parametrize("dim", [0, 1, 9, 12])
    def test_bad_dimension(self, dim):
        with pytest.raises(BadDimension):
            random_unitary(dim, 0)
        with pytest.raises(BadDimension):
            random_detector_state(dim, 0)
