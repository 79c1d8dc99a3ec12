"""Bloch-vector algebra, qubit states, and binary unsharp observables.

Randomized generators use numpy's PCG64 via ``default_rng``; every draw takes
an explicit seed (or Generator), and ``stream(seed, index, ...)`` derives the
independent stream ``default_rng([seed, index, ...])`` of one item.  The bulk
draws (``bloch_vectors`` here, ``mzi.random_setups``,
``mzi.random_strategies`` and ``jointmeas.draw_instances``) take one
generator per item, make the fewest generator calls that give each stream's
values, and shape the whole stack at once; a single draw is a batch of one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, InvalidEffect, InvalidState, NotHermitian
from .linalg import PSD_TOL, dagger, require_density, require_hermitian, row_dots, row_norms

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
PAULI_STACK = np.array(PAULI)

MIN_DETECTOR_DIM = 2
MAX_DETECTOR_DIM = 8


def as_generator(seed) -> np.random.Generator:
    """Accept an int seed, a seed sequence, or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def stream(*key: int) -> np.random.Generator:
    """The generator ``default_rng(list(key))`` of a key of non-negative
    integers.  A key whose parts all fit in uint32 goes in as one uint32
    array: the entropy numpy builds from the list, without its per-int
    conversion."""
    key = tuple(map(operator.index, key))
    try:
        return np.random.default_rng(np.array(key, dtype=np.uint32))
    except OverflowError:  # a part of 2**32 or more, or a negative one
        return np.random.default_rng(list(key))


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


def unchecked(cls, **fields):
    """``cls(**fields)`` without its checks, for rows of an object that passed them."""
    item = object.__new__(cls)
    item.__dict__.update(fields)
    return item


@dataclass(frozen=True)
class QubitState:
    """Validated density matrix of the quanton, (2, 2), or a stack (N, 2, 2)."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", require_density(self.matrix, dim=2))

    def __getitem__(self, rows) -> "QubitState":
        return unchecked(QubitState, matrix=self.matrix[rows])

    @classmethod
    def from_bloch(cls, vector) -> "QubitState":
        v = np.asarray(vector, dtype=float)
        if v.shape != (3,):
            raise InvalidState(f"Bloch vector must have shape (3,), got {v.shape}")
        large = np.abs(v) > 1.0 + PSD_TOL  # ahead of the norm, which a huge one overflows
        if large.any():
            raise InvalidState(f"Bloch component {v[large][0]:.6g} exceeds 1 in absolute value")
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


def bloch_vectors(rngs) -> np.ndarray:
    """One Bloch vector drawn uniformly from the unit ball per generator,
    stacked as (N, 3): a radius, then a Gaussian direction, redrawn from the
    same stream while its length is below 1e-12."""
    radius, direction = np.empty((len(rngs), 1)), np.empty((len(rngs), 3))
    for row, rng in enumerate(rngs):
        # a Python-float power: numpy's vectorised power can differ in the last bit
        radius[row] = rng.random() ** (1.0 / 3.0)
        rng.standard_normal(out=direction[row])
    lengths = row_norms(direction)
    for row in (lengths < 1e-12).nonzero()[0]:
        while lengths[row] < 1e-12:
            lengths[row] = row_norms(rngs[row].standard_normal(out=direction[row]))
    return radius * (direction / lengths[:, None])


def random_qubit_state(seed) -> QubitState:
    """Qubit state drawn uniformly from the Bloch ball."""
    return QubitState.from_bloch(bloch_vectors([as_generator(seed)])[0])


def complex_gaussian(d: int, seed) -> np.ndarray:
    """d x d matrix of independent standard complex Gaussians (real part drawn first)."""
    d = require_dim(d)
    parts = as_generator(seed).standard_normal((2, d, d))
    return parts[0] + 1j * parts[1]


def hilbert_schmidt_states(gaussians) -> np.ndarray:
    """Hilbert-Schmidt-random density matrices from complex Gaussian
    matrices, one (d, d) or stacked (..., d, d): the normalized Ginibre
    square."""
    rho = gaussians @ dagger(gaussians)
    rho /= np.trace(rho, axis1=-2, axis2=-1)[..., None, None]
    return (rho + dagger(rho)) / 2.0


def pure_states(vectors) -> np.ndarray:
    """Projectors onto complex Gaussian vectors, one (d,) or stacked (..., d):
    Haar-random pure states."""
    # the norm as np.linalg.norm takes it, real and imaginary parts apart
    lengths = np.sqrt(row_dots(vectors.real, vectors.real) + row_dots(vectors.imag, vectors.imag))
    v = vectors / lengths[..., None]
    return v[..., :, None] * v.conj()[..., None, :]


def random_detector_state(d: int, seed) -> np.ndarray:
    """Hilbert-Schmidt-random d x d density matrix."""
    return hilbert_schmidt_states(complex_gaussian(d, seed))


def random_pure_detector_state(d: int, seed) -> np.ndarray:
    """Haar-random pure d x d detector state."""
    parts = as_generator(seed).standard_normal((2, require_dim(d)))
    return pure_states(parts[0] + 1j * parts[1])


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
