import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mzduality import mzi
from mzduality.errors import DimensionMismatch, InvalidState, NotHermitian, NotUnitary
from mzduality.linalg import (
    EigDecomposition,
    fidelity_unitary_pair,
    hermitian_eig,
    kron,
    partial_trace_detector,
    require_density,
    require_hermitian,
    require_unitary,
    trace_norm,
)
from mzduality.qubit import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    random_detector_state,
    random_pure_detector_state,
    random_qubit_state,
    random_unitary,
)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


@st.composite
def hermitian_matrices(draw):
    """Hermitian d x d matrices, d in 2..8, with small-integer and general
    entries so that degenerate spectra and zero components turn up."""
    n = draw(st.integers(2, 8))
    entries = st.one_of(st.integers(-2, 2).map(float), st.floats(-10.0, 10.0))
    g = draw(arrays(float, (2, n, n), elements=entries))
    m = g[0] + 1j * g[1]
    return (m + m.conj().T) / 2


class TestHermitianEig:
    def test_diagonal_input(self):
        vals, vecs = hermitian_eig(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(vals, [-1.0, 1.0])
        np.testing.assert_allclose(np.abs(vecs), np.eye(2)[:, ::-1], atol=1e-15)

    def test_pauli_x_spectrum(self):
        vals, vecs = hermitian_eig(SIGMA_X)
        np.testing.assert_allclose(vals, [-1.0, 1.0])
        # sign convention: leading component real positive
        np.testing.assert_allclose(vecs[:, 0], [1, -1] / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(vecs[:, 1], [1, 1] / np.sqrt(2), atol=1e-12)

    def test_reconstruction_random_dims(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            a = random_hermitian(rng, n)
            vals, vecs = hermitian_eig(a)
            np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.conj().T, a, atol=1e-10)
            np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(n), atol=1e-10)
            assert np.all(np.diff(vals) >= 0)

    def test_matches_numpy_eigvalsh(self):
        rng = np.random.default_rng(102)
        for _ in range(40):
            a = random_hermitian(rng, int(rng.integers(2, 9)))
            np.testing.assert_allclose(
                hermitian_eig(a).eigenvalues, np.linalg.eigvalsh(a), atol=1e-11
            )

    def test_deterministic_bitwise(self):
        a = random_hermitian(np.random.default_rng(5), 6)
        first = hermitian_eig(a)
        second = hermitian_eig(a)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_returns_named_tuple(self):
        assert isinstance(hermitian_eig(np.eye(2)), EigDecomposition)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(hermitian_matrices())
    def test_contract_property(self, a):
        vals, vecs = hermitian_eig(a)
        n = a.shape[0]
        scale = max(1.0, float(np.abs(a).max()))
        np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.conj().T, a, atol=1e-12 * n * scale)
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(n), atol=1e-12 * n)
        assert np.all(np.diff(vals) >= 0)
        for k in range(n):
            lead = vecs[np.flatnonzero(np.abs(vecs[:, k]) > 1e-12)[0], k]
            assert lead.real > 0 and abs(lead.imag) <= 1e-15

    def test_degenerate_spectrum_strategy_is_basis_free(self):
        # a pure d = 8 detector state makes the guess operator rank 2: six
        # (numerically) zero eigenvalues whose basis eigh picks arbitrarily
        rng = np.random.default_rng(111)
        for _ in range(20):
            setup = mzi.MZISetup(
                rho=random_qubit_state(rng),
                rho_d=random_pure_detector_state(8, rng),
                u=random_unitary(8, rng),
            )
            guess = mzi.guess_operator(setup)
            vals, vecs = np.linalg.eigh(guess)
            positive = vecs[:, vals > 1e-12]
            projector = positive @ positive.conj().T
            rotated = setup.u @ setup.rho_d @ setup.u.conj().T
            optimal = mzi.optimal_strategy(setup)
            stats = mzi.strategy_stats(setup, optimal)
            assert stats.eta_s == pytest.approx(np.trace(projector @ setup.rho_d).real, abs=1e-12)
            assert stats.eta_s_u == pytest.approx(np.trace(projector @ rotated).real, abs=1e-12)
            # another orthonormal basis of the complement gives the same statistics
            rest = np.flatnonzero(~optimal.in_s)
            basis = optimal.basis.copy()
            basis[:, rest] = basis[:, rest] @ random_unitary(len(rest), rng)
            mixed = mzi.strategy_stats(setup, mzi.Strategy(basis, optimal.in_s))
            assert mixed.eta_s == pytest.approx(stats.eta_s, abs=1e-12)
            assert mixed.eta_s_u == pytest.approx(stats.eta_s_u, abs=1e-12)


class TestTraceNorm:
    def test_zero_matrix(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_projector_difference(self):
        assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-14)

    def test_equals_sum_abs_eigenvalues(self):
        rng = np.random.default_rng(103)
        for _ in range(40):
            a = random_hermitian(rng, int(rng.integers(2, 9)))
            assert trace_norm(a) == pytest.approx(np.abs(np.linalg.eigvalsh(a)).sum(), abs=1e-10)

    def test_bounds_and_unitary_invariance(self):
        rng = np.random.default_rng(104)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            a = random_hermitian(rng, n)
            assert trace_norm(a) >= abs(np.trace(a).real) - 1e-12
            u = random_unitary(n, rng)
            assert trace_norm(u @ a @ u.conj().T) == pytest.approx(trace_norm(a), abs=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            trace_norm(np.array([[0.0, 2.0], [0.0, 0.0]]))


class TestKronPartialTrace:
    def test_kron_identities(self):
        np.testing.assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_partial_trace_product_state(self):
        rng = np.random.default_rng(105)
        for d in (2, 3, 4):
            rho = random_detector_state(2, rng)
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            np.testing.assert_allclose(
                partial_trace_detector(kron(rho, x)), rho * np.trace(x), atol=1e-12
            )

    def test_trace_preservation(self):
        rng = np.random.default_rng(106)
        for d in (2, 3, 4):
            m = rng.standard_normal((2 * d, 2 * d)) + 1j * rng.standard_normal((2 * d, 2 * d))
            assert np.trace(partial_trace_detector(m)) == pytest.approx(np.trace(m), abs=1e-12)

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            partial_trace_detector(np.eye(5))


class TestFidelityUnitaryPair:
    def test_identity_unitary_gives_one(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            rho = random_detector_state(2, rng)
            assert fidelity_unitary_pair(rho, np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_half_radius_quarter_turn(self):
        # Bloch radius 1/2 (a = 0.25) rotated a quarter turn about x (b = 0)
        rho = (np.eye(2) + 0.5 * SIGMA_Z) / 2
        u = np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * SIGMA_X
        assert fidelity_unitary_pair(rho, u) == pytest.approx(np.sqrt(0.875), abs=1e-12)

    def test_maximally_mixed_invariant(self):
        rng = np.random.default_rng(108)
        for _ in range(20):
            u = random_unitary(2, rng)
            assert fidelity_unitary_pair(np.eye(2) / 2, u) == pytest.approx(1.0, abs=1e-12)

    def test_matches_bloch_closed_form(self):
        # F = sqrt(1 - (a - b)/2) in terms of the Bloch data
        rng = np.random.default_rng(109)
        for _ in range(200):
            rho = random_detector_state(2, rng)
            u = random_unitary(2, rng)
            alpha = np.array([np.trace(rho @ s).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])
            rotated = u @ rho @ u.conj().T
            beta = np.array([np.trace(rotated @ s).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])
            expected = np.sqrt(1.0 - (alpha @ alpha - alpha @ beta) / 2.0)
            assert fidelity_unitary_pair(rho, u) == pytest.approx(expected, abs=1e-12)

    def test_range_on_random_pairs(self):
        rng = np.random.default_rng(110)
        for _ in range(10_000):
            value = fidelity_unitary_pair(random_detector_state(2, rng), random_unitary(2, rng))
            assert 0.0 <= value <= 1.0

    def test_input_validation(self):
        with pytest.raises(InvalidState):
            fidelity_unitary_pair(np.diag([0.9, 0.3]), np.eye(2))
        with pytest.raises(NotUnitary):
            fidelity_unitary_pair(np.eye(2) / 2, np.diag([1.0, 2.0]))


def test_empty_stacks_validate_to_empty():
    for check in (require_hermitian, require_unitary, require_density):
        assert check(np.zeros((0, 3, 3))).shape == (0, 3, 3)
    for d in (2, 8):
        setups, strategies = mzi.random_setups(d, []), mzi.random_strategies(d, [])
        shapes = setups.rho.matrix.shape, setups.rho_d.shape, setups.u.shape, setups.phi.shape
        assert shapes == ((0, 2, 2), (0, d, d), (0, d, d), (0,))
        assert (strategies.basis.shape, strategies.in_s.shape) == ((0, d, d), (0, d))


def test_require_density_checks_hermiticity_once(monkeypatch):
    # the eigendecomposition's check is the only one, for one matrix or a stack
    from mzduality import linalg

    calls, check = [], linalg.require_hermitian
    monkeypatch.setattr(linalg, "require_hermitian", lambda a: calls.append(a) or check(a))
    states = np.stack([np.eye(3) / 3, np.diag([1.0, 0.0, 0.0])])
    for state in (states[0], states):
        calls.clear()
        np.testing.assert_array_equal(require_density(state), state)
        assert len(calls) == 1
    # a non-Hermitian matrix is still an invalid state, not a NotHermitian
    with pytest.raises(InvalidState, match="A - A"):
        require_density([[0.5, 0.1], [0.0, 0.5]])


@pytest.mark.parametrize("entry", [1e300, 1e300j, -2.0, 1.0 + 1e-9])
def test_entries_beyond_modulus_1_are_named_before_any_product(entry):
    # no entry of a density matrix or a unitary exceeds 1 in modulus
    huge = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
    huge[0, 0] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check, error in ((require_density, InvalidState), (require_unitary, NotUnitary)):
            with pytest.raises(error, match=re.escape(f"entry {complex(entry):.6g} has modulus")):
                check(np.array([np.eye(2) / 2, huge]))
    # at the tolerance, the other checks decide
    assert require_unitary(np.diag([1.0 + 1e-11, 1.0])).shape == (2, 2)
