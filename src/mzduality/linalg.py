"""Dense complex-matrix kernel for the small dimensions used here: detector
operators up to 8x8 and quanton-detector operators up to 16x16.

Eigendecompositions come from LAPACK via ``numpy.linalg.eigh`` with a fixed
eigenvector phase convention, so eigenbases (and everything derived from
them, such as measurement strategies) are byte-identical run to run for a
given platform and numpy build.  Everything else is thin, validated plumbing
on top of numpy arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidState, NotHermitian, NotUnitary

INPUT_TOL = 1e-10  # how far a validated input may miss an exact constraint
PHASE_CUT = 1e-12  # an eigenvector's first component above this modulus is made real positive


class EigDecomposition(NamedTuple):
    """Eigenvalues in ascending order and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _entries(value) -> list:
    """The entries of nested lists, tuples and numpy values as Python objects, depth first."""
    value = value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value
    if not isinstance(value, (list, tuple)):
        return [value]
    return [entry for part in value for entry in _entries(part)]


def as_numbers(value, what: str, kinds: str, error) -> np.ndarray:
    """``value`` as an array of numpy dtype kinds ``kinds``, "b" for booleans, "iuf" for
    real or "iufc" for complex numbers, with finite entries; else raises ``error`` naming
    the first entry that is a bool among numbers or a number among booleans, a string, None
    or other object, complex for "iuf", NaN or an infinity, or naming a ragged list whole."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged list
        array = np.asarray(None)
    boolean = kinds == "b"
    listed = not boolean and isinstance(value, (list, tuple))  # numpy reads its bools as numbers
    if array.dtype.kind not in kinds or listed and bool in map(type, _entries(value)):
        numbers = bool if boolean else (int, float, complex) if "c" in kinds else (int, float)
        bad = [x for x in _entries(value)
               if not isinstance(x, numbers) or type(x) is bool and not boolean]
        kind = "booleans" if boolean else "numbers" if "c" in kinds else "real"
        raise error(f"{what} must be {kind}, got {(bad + [value])[0]!r}")
    finite = np.isfinite(array)
    if np.count_nonzero(finite) < array.size:  # faster than finite.all() on small arrays
        raise error(f"{what} must be finite, got {array[~finite][0]}")
    return array


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a square complex ndarray, or a stack (..., d, d) of them,
    with finite entries (see ``as_numbers``)."""
    m = as_numbers(a, "matrix entries", "iufc", DimensionMismatch).astype(complex, copy=False)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.swapaxes(m, -1, -2).conj()


def require_hermitian(a) -> np.ndarray:
    m = as_complex_matrix(a)
    dev = float(np.abs(m - dagger(m)).max(initial=0.0))
    if dev > INPUT_TOL:
        raise NotHermitian(f"max |A - A^dag| = {dev:.3e} exceeds {INPUT_TOL:.1e}")
    return m


def require_within(values: np.ndarray, bound: float, tol: float, error, message: str) -> None:
    """Raise ``error(message.format(entry))`` for the first entry of modulus above
    ``bound + tol``: checked before any product, so a huge entry is named, not overflowed."""
    beyond = np.abs(values) > bound + tol
    if beyond.any():
        raise error(message.format(values[beyond][0]))


def require_unitary(a) -> np.ndarray:
    m = as_complex_matrix(a)
    require_within(m, 1.0, INPUT_TOL, NotUnitary, "entry {:.6g} has modulus above 1")
    dev = float(np.abs(dagger(m) @ m - np.eye(m.shape[-1])).max(initial=0.0))
    if dev > INPUT_TOL:
        raise NotUnitary(f"max |U^dag U - I| = {dev:.3e} exceeds {INPUT_TOL:.1e}")
    return m


def require_density(a, dim: int | None = None) -> np.ndarray:
    """Validate a density operator, or a stack (..., d, d) of them, with one
    eigendecomposition that also checks Hermiticity: unit trace, positive semidefinite."""
    m = as_complex_matrix(a)
    require_within(m, 1.0, INPUT_TOL, InvalidState, "entry {:.6g} has modulus above 1")
    try:
        lo = float(hermitian_eig(m).eigenvalues[..., 0].min(initial=np.inf))
    except NotHermitian as exc:
        raise InvalidState(str(exc)) from None
    d = m.shape[-1]
    if dim is not None and d != dim:
        raise InvalidState(f"expected a {dim}x{dim} density matrix, got {d}x{d}")
    trace_dev = float(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0).max(initial=0.0))
    if trace_dev > INPUT_TOL:
        raise InvalidState(f"trace differs from 1 by {trace_dev:.3e}, beyond {INPUT_TOL:.1e}")
    if lo < -INPUT_TOL:
        raise InvalidState(f"smallest eigenvalue {lo:.3e} below -{INPUT_TOL:.1e}")
    return m


def hermitian_eig(a) -> EigDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each in a stack
    (..., d, d), by LAPACK ``eigh``.

    Returns eigenvalues sorted ascending with orthonormal eigenvector columns.
    Each eigenvector is rephased so that its first component larger than
    ``PHASE_CUT`` in modulus is real positive, so the result is deterministic for a
    fixed input on a given platform and numpy build.  It is row 0's when every
    column's row-0 entry is above the cut, else searched for: the same entry either way.

    Raises NotHermitian on asymmetric input.
    """
    vals, vecs = np.linalg.eigh(require_hermitian(a))
    lead = vecs[..., 0, :]
    if np.count_nonzero(np.abs(lead) > PHASE_CUT) < lead.size:
        # every column has unit norm, so each has a component above the cut
        columns = vecs.reshape(-1, vecs.shape[-1], vecs.shape[-1])
        first = np.argmax(np.abs(columns) > PHASE_CUT, axis=1)
        lead = columns[np.arange(len(columns))[:, None], first, np.arange(vecs.shape[-1])]
    phases = (lead.conj() / np.abs(lead)).reshape(vals.shape)[..., None, :]
    return EigDecomposition(vals, vecs * phases)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis of real vectors, one BLAS dot product
    each, as ``a @ b`` takes it for two vectors."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def row_norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean lengths over the last axis of real vectors, bit-equal to
    ``np.linalg.norm`` of each vector, which also sums the squares by a BLAS
    dot product."""
    return np.sqrt(row_dots(vectors, vectors))


def trace_norm(a) -> float:
    """Sum of the absolute eigenvalues of a Hermitian matrix."""
    vals = hermitian_eig(a).eigenvalues
    return float(np.sum(np.abs(vals)))


def kron(a, b) -> np.ndarray:
    """Tensor product with the quanton as the first factor, of two matrices
    or pairwise over stacks (..., m, m) and (..., n, n), each taken as
    ``as_complex_matrix`` takes it."""
    a, b = as_complex_matrix(a), as_complex_matrix(b)
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (a.shape[-2] * b.shape[-2], -1))


def partial_trace_detector(m) -> np.ndarray:
    """Trace out the detector from an operator on quanton (dim 2) x detector,
    or from each in a stack (..., 2d, 2d).

    The input dimension must be 2*d for some detector dimension d >= 1.
    """
    full = as_complex_matrix(m)
    dim = full.shape[-1]
    if dim % 2 != 0 or dim == 0:
        raise DimensionMismatch(f"dimension {dim} is not 2 x detector dimension")
    d = dim // 2
    blocks = full.reshape(full.shape[:-2] + (2, d, 2, d))
    return np.einsum("...ijkj->...ik", blocks)
