"""Bloch-vector algebra, qubit states, and the effects of binary unsharp observables.

Randomized generators use numpy's PCG64 via ``default_rng``; every draw takes
an explicit seed (or Generator).  ``streams(keys)`` makes each item's stream
``default_rng(list(key))``, bit for bit, hashing numpy's ``SeedSequence``
pools into PCG64 seeds in one array pass; ``stream(*key)`` makes one.  The bulk
draws (``bloch_vectors`` here, ``mzi.random_setups``,
``mzi.random_strategies`` and ``jointmeas.draw_instances``) take one
generator per item, make the fewest generator calls that give each stream's
values, and shape the whole stack at once; one item is a batch of one.
``Stacked`` is the base of every record of one item or a stack (``one`` tells which,
``[rows]`` takes rows, ``rows()`` cuts them all in one pass per field, ``row_list``
keeps that cut).  ``integer`` is the one rule for an integer argument and its range,
by default [0, ``MAX_COUNT``]; ``real`` for real ones.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (BadDimension, DimensionMismatch, InvalidArgument, InvalidEffect,
                     InvalidState, NotHermitian)
from .linalg import (INPUT_TOL, as_numbers, dagger, require_density, require_hermitian,
                     require_within, row_dots, row_norms)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
PAULI_STACK = np.array(PAULI)

MIN_DETECTOR_DIM = 2
MAX_DETECTOR_DIM = 8
MAX_COUNT = 2**63 - 1  # the largest count numpy's samplers take


# SeedSequence.generate_state's hash: word i is x ^ (x >> 16), x = (pool[i % 4] ^ c_i) * c_(i+1)
_HASH_CONSTANTS = np.array([0x8B51F9DD * 0x58F38DED**i % 2**32 for i in range(9)], np.uint32)


class SeedWords:
    """One key's four uint64 PCG64 seed words, as the seed sequence PCG64 reads."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"seed words serve 4 uint64 words, not {n_words} {np.dtype(dtype)}")
        return self.words


def streams(keys):
    """The generators ``default_rng(list(key))`` of keys of non-negative
    integers, bit for bit, yielded lazily; every key is checked, and raises
    what ``default_rng`` raises, at the call."""
    random, pools = np.random, []  # loaded on first use, not by ``import mzduality.cli``
    random.bit_generator.ISeedSequence.register(SeedWords)  # a no-op once registered
    for key in keys:
        key = tuple(map(operator.index, key))
        # parts all in [0, 2**32) go in as the uint32 array numpy would build from the list
        entropy = list(key) if any(part >> 32 for part in key) else np.array(key, np.uint32)
        pools.append(random.SeedSequence(entropy).pool)
    words = np.array(pools, np.uint32).reshape(-1, 1, 4) ^ _HASH_CONSTANTS[:-1].reshape(2, 4)
    words *= _HASH_CONSTANTS[1:].reshape(2, 4)
    words ^= words >> 16
    seeds = words.reshape(-1, 8).astype("<u4", copy=False).view("<u8").astype(np.uint64)
    return (random.Generator(random.PCG64(SeedWords(row))) for row in seeds)


def stream(*key: int) -> np.random.Generator:
    """The generator ``default_rng(list(key))``: ``streams`` of one key."""
    return next(streams([key]))


def bloch_to_matrix(vector, bias) -> np.ndarray:
    """Effect matrix ``bias * I + v . sigma``, stacked as (..., 2, 2) for a
    stack (..., 3) of vectors with matching biases; raises InvalidEffect
    unless bias and v are finite and ``|v| <= min(bias, 1 - bias)``: the check
    at the boundary, then ``build_effect``, which callers of checked values call."""
    v, bias = real(vector, "Bloch vector", InvalidEffect), real(bias, "bias", InvalidEffect)
    if np.shape(v)[-1:] != (3,):
        raise InvalidEffect(f"Bloch vector must have shape (3,), got {np.shape(v)}")
    excess = np.sqrt((v * v).sum(axis=-1)) - np.minimum(bias, 1.0 - bias)
    if (excess > INPUT_TOL).any():
        raise InvalidEffect(f"|vector| exceeds min(bias, 1-bias) by {excess.max():.6g}")
    return build_effect(v, bias)


def build_effect(v: np.ndarray, bias) -> np.ndarray:
    """``bloch_to_matrix`` of float vectors and biases that pass its check, unchecked."""
    # each entry sums at most two nonzero terms, so any order gives the same bits
    vector_part = np.einsum("...k,kij->...ij", v, PAULI_STACK)
    return np.asarray(bias)[..., None, None] * IDENTITY_2 + vector_part


def effect_min_eigenvalue(effects) -> np.ndarray:
    """Smallest eigenvalue of Hermitian 2x2 matrices stacked as (..., 2, 2):
    ``b - |v|`` for ``E = b I + v . sigma``."""
    e = np.asarray(effects)
    half_sum = 0.5 * np.real(e[..., 0, 0] + e[..., 1, 1])
    half_diff = 0.5 * np.real(e[..., 0, 0] - e[..., 1, 1])
    return half_sum - np.hypot(np.abs(e[..., 0, 1]), half_diff)


def matrix_to_bloch(effect) -> tuple:
    """Inverse of ``bloch_to_matrix``: returns (bias, vector), a float and a
    3-vector, or (...,) and (..., 3) arrays for a stack (..., 2, 2)."""
    m = require_hermitian(effect)
    if m.shape[-1] != 2:
        raise NotHermitian("expected a 2x2 matrix")
    bias = np.real(np.trace(m, axis1=-2, axis2=-1)) / 2.0
    # tr(m sigma_k); each sums at most two nonzero terms, so any order gives the same bits
    vector = np.real(np.einsum("...ij,kji->...k", m, PAULI_STACK)) / 2.0
    return held(bias), vector


def held(value):
    """A 0-d array or numpy scalar as a float; any other array as it is."""
    return float(value) if value.ndim == 0 else value


def unchecked(cls, **fields):
    """``cls(**fields)`` without its checks, for rows of an object that passed them."""
    item = object.__new__(cls)
    item.__dict__.update(fields)
    return item


class Stacked:
    """Base of the dataclass records of one item or a stack of N; ``one`` tells which (one
    item's first field has ``ITEM_NDIM`` axes, or is one item).  ``record[rows]`` takes an
    index, slice or index array of a stack, ``[None]`` one item as a stack of one, unchecked."""

    ITEM_NDIM = 0

    @property
    def one(self) -> bool:
        lead = getattr(self, next(iter(self.__dataclass_fields__)))  # 0-d is held as a float
        return lead.one if isinstance(lead, Stacked) else getattr(lead, "ndim", 0) == self.ITEM_NDIM

    def __getitem__(self, rows):
        if rows is not None and self.one:
            raise DimensionMismatch(f"one {type(self).__name__} has no row {rows!r}, only [None]")
        item = object.__new__(type(self))
        for name in self.__dataclass_fields__:  # the records declare no ClassVar or InitVar
            value = getattr(self, name)
            value = value[rows] if isinstance(value, Stacked) else held(np.asarray(value)[rows])
            vars(item)[name] = value
        return item

    def rows(self) -> list:
        """``[record[k] for k in range(N)]`` of a stack, built in one pass per field
        (``tolist()`` for a one-axis column, so its numbers are floats, else row views)."""
        if self.one:
            raise DimensionMismatch(f"one {type(self).__name__} has no rows")
        cls, names, rows = type(self), self.__dataclass_fields__, []
        columns = [value.rows() if isinstance(value, Stacked) else value.tolist()
                   if value.ndim == 1 else list(value) for value in map(vars(self).get, names)]
        for row in zip(*columns):
            rows.append(object.__new__(cls))
            vars(rows[-1]).update(zip(names, row))
        return rows

    @property
    def row_list(self) -> list:
        """``rows()``, built on first use and kept on the stack."""
        rows = vars(self).get("_rows")
        if rows is None:
            rows = vars(self)["_rows"] = self.rows()
        return rows


@dataclass(frozen=True, eq=False)
class QubitState(Stacked):
    """Validated density matrix of the quanton, (2, 2), or a stack (N, 2, 2)."""

    ITEM_NDIM = 2
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", require_density(self.matrix, dim=2))

    @classmethod
    def from_bloch(cls, vector) -> "QubitState":
        """The state of one Bloch vector, (3,), or the stack of N, (N, 3),
        each within the unit ball."""
        v = real(vector, "Bloch vector", InvalidState)
        if np.shape(v)[-1:] != (3,) or v.ndim > 2:
            raise InvalidState(f"Bloch vector must have shape (3,), got {np.shape(v)}")
        require_within(v, 1.0, INPUT_TOL, InvalidState,  # ahead of the norm, which it overflows
                       "Bloch component {:.6g} exceeds 1 in absolute value")
        require_within(row_norms(np.atleast_2d(v)), 1.0, INPUT_TOL, InvalidState,
                       "Bloch norm {:.6g} must be finite and at most 1")
        return cls(build_effect(v / 2.0, 0.5))  # |v/2| <= 1/2 + INPUT_TOL: bloch_to_matrix's check

    def bloch(self) -> np.ndarray:
        return 2.0 * matrix_to_bloch(self.matrix)[1]


def integer(value, what: str, low=0, high=MAX_COUNT, error=InvalidArgument) -> int:
    """``value`` as a Python int, taken by ``operator.index`` (no float, string or
    bool), in ``[low, high]`` with None an open end; else raises ``error``."""
    try:  # a bool, numpy's too, is refused as None is
        number = operator.index(None if isinstance(value, (bool, np.bool_)) else value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
    low, high = -np.inf if low is None else low, np.inf if high is None else high
    if not low <= number <= high:
        raise error(f"{what} must lie in [{low}, {high}], got {number}")
    return number


def real(value, what: str, error=InvalidArgument):
    """``value``, numpy's or Python's integers and floats, as a float array, or a float when
    0-d; raises ``error`` naming its first other entry, NaN or infinity (``linalg.as_numbers``)."""
    return held(as_numbers(value, what, "iuf", error).astype(float, copy=False))


def require_dim(d) -> int:
    """The detector dimension as an int; raises BadDimension unless an integer in range."""
    return integer(d, "detector dimension", MIN_DETECTOR_DIM, MAX_DETECTOR_DIM, BadDimension)


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
    return QubitState.from_bloch(bloch_vectors([np.random.default_rng(seed)])[0])


def complex_gaussian(d: int, seed) -> np.ndarray:
    """d x d matrix of independent standard complex Gaussians (real part drawn first)."""
    d = require_dim(d)
    parts = np.random.default_rng(seed).standard_normal((2, d, d))
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
    parts = np.random.default_rng(seed).standard_normal((2, require_dim(d)))
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
