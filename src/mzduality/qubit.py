"""Bloch-vector algebra, qubit states, and binary unsharp observables.

Randomized generators use numpy's PCG64 via ``default_rng``; every generator
takes an explicit seed (or Generator), so parallel sweeps can derive
independent streams as ``default_rng([base_seed, index])``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, InvalidEffect, InvalidState, NotHermitian
from .linalg import PSD_TOL, require_density, require_hermitian

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

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


def bloch_to_matrix(vector, bias: float) -> np.ndarray:
    """Effect matrix ``bias * I + v . sigma``; raises InvalidEffect unless bias
    and v are finite and ``|v| <= min(bias, 1 - bias)``."""
    v = np.asarray(vector, dtype=float)
    if v.shape != (3,):
        raise InvalidEffect(f"Bloch vector must have shape (3,), got {v.shape}")
    if not (np.isfinite(bias) and np.isfinite(v).all()):
        raise InvalidEffect("bias and vector must be finite")
    norm = float(np.linalg.norm(v))
    if norm > min(bias, 1.0 - bias) + PSD_TOL:
        raise InvalidEffect(
            f"|vector| = {norm:.6g} exceeds min(bias, 1-bias) = {min(bias, 1.0 - bias):.6g}"
        )
    return bias * IDENTITY_2 + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


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
        object.__setattr__(self, "vector", np.asarray(self.vector, dtype=float))
        bloch_to_matrix(self.vector, self.bias)

    def effect(self, outcome: int) -> np.ndarray:
        if outcome == 0:
            return bloch_to_matrix(self.vector, self.bias)
        if outcome == 1:
            return bloch_to_matrix(-self.vector, 1.0 - self.bias)
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")

    @property
    def sharpness(self) -> float:
        return float(np.linalg.norm(self.vector))


def require_dim(d: int) -> int:
    """The detector dimension as an int; raises BadDimension outside the supported range."""
    if not (MIN_DETECTOR_DIM <= int(d) <= MAX_DETECTOR_DIM):
        raise BadDimension(
            f"detector dimension must lie in [{MIN_DETECTOR_DIM}, {MAX_DETECTOR_DIM}], got {d}"
        )
    return int(d)


def random_qubit_state(seed) -> QubitState:
    """Qubit state drawn uniformly from the Bloch ball."""
    rng = as_generator(seed)
    radius = rng.random() ** (1.0 / 3.0)
    direction = rng.standard_normal(3)
    while np.linalg.norm(direction) < 1e-12:
        direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    return QubitState.from_bloch(radius * direction)


def random_detector_state(d: int, seed) -> np.ndarray:
    """Hilbert-Schmidt-random d x d density matrix (normalized Ginibre square)."""
    d = require_dim(d)
    rng = as_generator(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
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


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-random d x d unitary: QR of a complex Gaussian with the R-diagonal phase fix."""
    d = require_dim(d)
    rng = as_generator(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    diag = np.diag(r).copy()
    diag[np.abs(diag) < 1e-300] = 1.0
    return q * (diag / np.abs(diag))
