import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mzduality import mzi
from mzduality.errors import (DimensionMismatch, InvalidArgument, InvalidEffect, InvalidInstance,
                              InvalidState, NotHermitian, NotUnitary)
from mzduality.jointmeas import JMInstance
from mzduality.linalg import (
    INPUT_TOL,
    PHASE_CUT,
    EigDecomposition,
    as_numbers,
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
    QubitState,
    bloch_to_matrix,
    random_detector_state,
    random_pure_detector_state,
    random_qubit_state,
    random_unitary,
)
from mzduality.qubit_detector import QubitDetectorAnalysis


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


class TestComplexRule:
    @pytest.mark.parametrize("call, matrix, named", [
        (require_unitary, [["1", "0"], ["0", "1"]], "'1'"),
        (hermitian_eig, [[True, False], [False, True]], "True"),
        (hermitian_eig, [[1.0, 0.0], [0.0, np.True_]], "True"),
        (trace_norm, [[1, 0], [0]], "[[1, 0], [0]]"),
        (trace_norm, "x", "'x'"),
        (require_density, [[None, 0], [0, 1]], "None"),
        (require_hermitian, np.array([[1.0, 0.0], [0.0, np.nan]]), "must be finite, got nan"),
        (partial_trace_detector, [[1j, 0], [0, -np.inf]], "must be finite, got (-inf+0j)"),
    ])
    def test_refuses_what_is_not_a_finite_number_and_names_it(self, call, matrix, named):
        with pytest.raises(DimensionMismatch, match=re.escape(named)):
            call(matrix)

    @pytest.mark.parametrize("a, b, named", [
        ([["1"]], [[True]], "'1'"),
        ([[1]], [[True]], "True"),
        ([[1, 0], [0]], [[1]], "[[1, 0], [0]]"),
        (np.eye(2), [[np.inf]], "must be finite, got inf"),
    ])
    def test_kron_takes_both_factors_by_the_rule(self, a, b, named):
        with pytest.raises(DimensionMismatch, match=re.escape(named)):
            kron(a, b)

    def test_takes_integers_floats_and_complex_numbers(self):
        for matrix in ([[1, 0], [0, 1]], np.eye(2, dtype=np.int8), np.eye(2, dtype=np.float32),
                       np.eye(2, dtype=np.complex64), [[1.0, 0j], [0, 1]]):
            assert require_unitary(matrix).dtype == np.complex128


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
            guess = mzi.Evaluation(setup).guess[0][0]
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


def searched_phases(a) -> tuple:
    """``hermitian_eig`` with each eigenvector's lead entry searched for down its column."""
    vals, vecs = np.linalg.eigh(require_hermitian(a))
    columns = vecs.reshape(-1, vecs.shape[-1], vecs.shape[-1])
    first = np.argmax(np.abs(columns) > PHASE_CUT, axis=1)
    lead = columns[np.arange(len(columns))[:, None], first, np.arange(vecs.shape[-1])]
    phases = (lead.conj() / np.abs(lead)).reshape(vals.shape)[..., None, :]
    return vals, vecs * phases


class TestRowZeroPhases:
    """``hermitian_eig`` reads each lead entry from row 0 when every column's row-0 entry
    is above ``PHASE_CUT`` and searches for it otherwise: the same entry, so the same bits,
    on stacks of either kind of column or both."""

    def stacks(self) -> dict:
        rng = np.random.default_rng(108)
        generic = np.array([random_hermitian(rng, 4) for _ in range(6)])
        diagonal = np.array([np.diag(rng.standard_normal(4)) for _ in range(3)])
        block = np.zeros((3, 4, 4), dtype=complex)  # eigenvectors of the lower block miss row 0
        block[:, :2, :2], block[:, 2:, 2:] = generic[:3, :2, :2], generic[3:, 2:, 2:]
        near_cut = np.array([np.diag([1.0, 2.0, 3.0, 4.0])] * 2, dtype=complex)
        near_cut[:, 0, 1:] = [[1e-13j], [5e-12j]]  # row-0 entries about the cut, complex ones
        near_cut[:, 1:, 0] = near_cut[:, 0, 1:].conj()
        mixed = np.concatenate([generic, diagonal, block])
        return {"generic": generic, "diagonal": diagonal, "block diagonal": block,
                "near the cut": near_cut, "mixed": mixed, "mixed, two stack axes":
                mixed.reshape(3, 4, 4, 4)}

    @pytest.mark.parametrize("name", ["generic", "diagonal", "block diagonal", "near the cut",
                                      "mixed", "mixed, two stack axes"])
    def test_the_same_bits_as_the_search_down_every_column(self, name):
        stack = self.stacks()[name]
        row_0 = np.abs(np.linalg.eigh(stack)[1][..., 0, :]) > PHASE_CUT
        assert row_0.all() == (name == "generic")
        for a in (stack, stack[0]):
            vals, vecs = hermitian_eig(a)
            want_vals, want_vecs = searched_phases(a)
            assert vals.tobytes() == want_vals.tobytes()
            assert vecs.shape == want_vecs.shape and vecs.tobytes() == want_vecs.tobytes()


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
            message = re.escape(f"entry {complex(entry):.6g} has modulus above 1")
            with pytest.raises(error, match=f"^{message}$"):
                check(np.array([np.eye(2) / 2, huge]))
    # at the tolerance, the other checks decide
    assert require_unitary(np.diag([1.0 + 1e-11, 1.0])).shape == (2, 2)


def diagonal_pair(x):
    return [1.0, 1.0, 0.0] / np.sqrt(2.0) * x


# one validated input per constraint, given a miss of it, with the error and wording of a refusal
SLACK_TABLE = {
    "hermiticity": (lambda miss: require_hermitian([[0.5, 0.3], [0.3 + miss, 0.5]]),
                    NotHermitian, "A - A^dag"),
    "unitarity": (lambda miss: require_unitary(np.diag([np.sqrt(1.0 + miss), 1.0])),
                  NotUnitary, "U^dag U - I"),
    "trace": (lambda miss: require_density(np.diag([0.5 + miss, 0.5])), InvalidState, "trace"),
    "positivity": (lambda miss: require_density(np.diag([0.5 + miss, 0.5, -miss])),
                   InvalidState, "smallest eigenvalue"),
    "quanton Bloch ball": (lambda miss: QubitState.from_bloch(diagonal_pair(1.0 + miss)),
                           InvalidState, "Bloch norm"),
    "effect Bloch ball": (lambda miss: bloch_to_matrix(diagonal_pair(0.5 + miss), 0.5),
                          InvalidEffect, "exceeds min"),
    "detector Bloch ball": (
        lambda miss: QubitDetectorAnalysis(diagonal_pair(1.0 + miss), diagonal_pair(1.0 + miss), 0.0),
        InvalidInstance, "|alpha| = "),
    "m.n = 0": (lambda miss: JMInstance(0.5, [0.1, 0.0, 0.0], [10.0 * miss, 0.0, 0.3]),
                InvalidInstance, "m.n = "),
    "|alpha| = |beta|": (
        lambda miss: QubitDetectorAnalysis([0.5, 0.0, 0.0], [0.5 + miss, 0.0, 0.0], 0.0),
        InvalidInstance, "differ by"),
}


class TestInputSlack:
    """Every validated input may miss its exact constraint by ``INPUT_TOL`` and no more."""

    @pytest.mark.parametrize("name", SLACK_TABLE)
    def test_a_miss_within_the_slack_is_taken_and_one_beyond_it_refused(self, name):
        build, error, wording = SLACK_TABLE[name]
        build(0.9 * INPUT_TOL)
        with pytest.raises(error, match=re.escape(wording)):
            build(1.1 * INPUT_TOL)

    @pytest.mark.parametrize("call, matrix, error, tail", [
        (require_hermitian, [[0.0, 1.0], [0.0, 0.0]], NotHermitian, "exceeds 1.0e-10"),
        (require_unitary, np.eye(2) * 0.5, NotUnitary, "exceeds 1.0e-10"),
        (require_density, np.eye(2), InvalidState, "beyond 1.0e-10"),
        (require_density, np.diag([0.6, 0.6, -0.2]), InvalidState, "below -1.0e-10"),
    ])
    def test_each_refusal_prints_the_slack(self, call, matrix, error, tail):
        with pytest.raises(error, match=f"{re.escape(tail)}$"):
            call(matrix)


class TestBooleanKind:
    """``as_numbers`` to bool: booleans, Python's or numpy's, and nothing else."""

    @pytest.mark.parametrize("mask", [
        [True, False], [np.True_, np.False_], [np.True_, False], np.array([False, True]),
        [np.array([True, False]), [np.False_, True]], np.ones((2, 3), dtype=bool), np.True_,
    ], ids=repr)
    def test_takes_python_and_numpy_bools(self, mask):
        taken = as_numbers(mask, "mask", bool, InvalidArgument)
        assert taken.dtype == bool
        np.testing.assert_array_equal(taken, np.asarray(mask))
