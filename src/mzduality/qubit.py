"""Bloch-vector algebra, qubit states, and binary unsharp observables.

Randomized generators use numpy's PCG64 via ``default_rng``; every generator
takes an explicit seed (or Generator), so parallel sweeps can derive
independent streams as ``default_rng([base_seed, index])``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, DimensionMismatch, InvalidEffect, InvalidState, NotHermitian
from .linalg import PSD_TOL, require_density, require_hermitian

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
PAULI_STACK = np.array(PAULI)

# eigenvectors of sigma_x: the two interferometer paths in the +/- basis
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)

MIN_DETECTOR_DIM = 2
MAX_DETECTOR_DIM = 8


def as_generator(seed) -> np.random.Generator:
    """Accept an int seed, a seed sequence, or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def pauli_phi(phi: float) -> np.ndarray:
    """The sharp interference observable at phase ``phi``: sigma_z cos(phi) - sigma_y sin(phi)."""
    return np.cos(phi) * SIGMA_Z - np.sin(phi) * SIGMA_Y


def require_effect(vector, bias) -> np.ndarray:
    """The Bloch vector of the effect ``bias * I + v . sigma`` as floats, one
    of shape (3,) or a stack (..., 3) with matching biases; raises
    InvalidEffect unless bias and v are finite and ``|v| <= min(bias, 1 - bias)``."""
    v = np.asarray(vector, dtype=float)
    if v.shape[-1:] != (3,):
        raise InvalidEffect(f"Bloch vector must have shape (3,), got {v.shape}")
    if not (np.isfinite(bias).all() and np.isfinite(v).all()):
        raise InvalidEffect("bias and vector must be finite")
    excess = np.sqrt((v * v).sum(axis=-1)) - np.minimum(bias, 1.0 - bias)
    if (excess > PSD_TOL).any():
        raise InvalidEffect(f"|vector| exceeds min(bias, 1-bias) by {excess.max():.6g}")
    return v


def bloch_to_matrix(vector, bias) -> np.ndarray:
    """Effect matrix ``bias * I + v . sigma``, stacked as (..., 2, 2) for
    stacked input; validated by ``require_effect``."""
    # each entry sums at most two nonzero terms, so any order gives the same bits
    vector_part = np.einsum("...k,kij->...ij", require_effect(vector, bias), PAULI_STACK)
    return np.asarray(bias, dtype=float)[..., None, None] * IDENTITY_2 + vector_part


def effect_min_eigenvalue(effects) -> np.ndarray:
    """Smallest eigenvalue of Hermitian 2x2 matrices stacked as (..., 2, 2):
    ``b - |v|`` for ``E = b I + v . sigma``."""
    e = np.asarray(effects)
    half_sum = 0.5 * np.real(e[..., 0, 0] + e[..., 1, 1])
    half_diff = 0.5 * np.real(e[..., 0, 0] - e[..., 1, 1])
    return half_sum - np.hypot(np.abs(e[..., 0, 1]), half_diff)


def matrix_to_bloch(effect) -> tuple[float, np.ndarray]:
    """Inverse of ``bloch_to_matrix``: returns (bias, vector)."""
    m = require_hermitian(effect)
    if m.shape[0] != 2:
        raise NotHermitian("expected a 2x2 matrix")
    bias = float(np.real(np.trace(m))) / 2.0
    vector = np.array([float(np.real(np.trace(m @ s))) / 2.0 for s in PAULI])
    return bias, vector


@dataclass(frozen=True)
class QubitState:
    """Validated 2x2 density matrix of the quanton."""

    matrix: np.ndarray

    def __post_init__(self):
        m = require_density(self.matrix, dim=2)
        if m.ndim != 2:
            raise DimensionMismatch(f"expected one density matrix, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_bloch(cls, vector) -> "QubitState":
        v = np.asarray(vector, dtype=float)
        if v.shape != (3,):
            raise InvalidState(f"Bloch vector must have shape (3,), got {v.shape}")
        norm = float(np.linalg.norm(v))
        if not norm <= 1.0 + PSD_TOL:
            raise InvalidState(f"Bloch norm {norm:.6g} must be finite and at most 1")
        return cls(bloch_to_matrix(v / 2.0, 0.5))

    def bloch(self) -> np.ndarray:
        _, v = matrix_to_bloch(self.matrix)
        return 2.0 * v


@dataclass(frozen=True)
class BinaryQubitObservable:
    """Two-outcome unsharp qubit observable ``{bias I + v.sigma, (1-bias) I - v.sigma}``.

    Validity requires ``|v| <= min(bias, 1-bias)`` so that both effects are
    positive semidefinite.
    """

    bias: float
    vector: np.ndarray

    def __post_init__(self):
        vector = require_effect(self.vector, self.bias)
        if vector.shape != (3,):
            raise InvalidEffect(f"expected one Bloch vector, got shape {vector.shape}")
        object.__setattr__(self, "vector", vector)

    def effect(self, outcome: int) -> np.ndarray:
        if outcome == 0:
            return bloch_to_matrix(self.vector, self.bias)
        if outcome == 1:
            return bloch_to_matrix(-self.vector, 1.0 - self.bias)
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")


def require_dim(d: int) -> int:
    """The detector dimension as an int; raises BadDimension outside the supported range."""
    if not (MIN_DETECTOR_DIM <= int(d) <= MAX_DETECTOR_DIM):
        raise BadDimension(
            f"detector dimension must lie in [{MIN_DETECTOR_DIM}, {MAX_DETECTOR_DIM}], got {d}"
        )
    return int(d)


def random_bloch(seed) -> np.ndarray:
    """Bloch vector drawn uniformly from the unit ball."""
    rng = as_generator(seed)
    radius = rng.random() ** (1.0 / 3.0)
    direction = rng.standard_normal(3)
    while np.linalg.norm(direction) < 1e-12:
        direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    return radius * direction


def random_qubit_state(seed) -> QubitState:
    """Qubit state drawn uniformly from the Bloch ball."""
    return QubitState.from_bloch(random_bloch(seed))


def complex_gaussian(d: int, seed) -> np.ndarray:
    """d x d matrix of independent standard complex Gaussians (real part drawn first)."""
    d = require_dim(d)
    rng = as_generator(seed)
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_detector_state(d: int, seed) -> np.ndarray:
    """Hilbert-Schmidt-random d x d density matrix (normalized Ginibre square)."""
    g = complex_gaussian(d, seed)
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    return (rho + rho.conj().T) / 2.0


def random_pure_detector_state(d: int, seed) -> np.ndarray:
    """Haar-random pure d x d detector state."""
    d = require_dim(d)
    rng = as_generator(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def haar_unitary(gaussian) -> np.ndarray:
    """Haar-random unitaries from complex Gaussian matrices, one (d, d) or
    stacked (..., d, d): QR with the R-diagonal phase fix."""
    q, r = np.linalg.qr(gaussian)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[np.abs(diag) < 1e-300] = 1.0
    return q * (diag / np.abs(diag))[..., None, :]


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-random d x d unitary."""
    return haar_unitary(complex_gaussian(d, seed))
