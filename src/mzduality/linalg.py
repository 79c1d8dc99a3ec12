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

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
PSD_TOL = 1e-10


class EigDecomposition(NamedTuple):
    """Eigenvalues in ascending order and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a square complex ndarray, or a stack (..., d, d) of them,
    with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DimensionMismatch("matrix entries must be finite")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.swapaxes(m, -1, -2).conj()


def require_hermitian(a) -> np.ndarray:
    m = as_complex_matrix(a)
    dev = float(np.abs(m - dagger(m)).max(initial=0.0))
    if dev > HERMITICITY_TOL:
        raise NotHermitian(f"max |A - A^dag| = {dev:.3e} exceeds {HERMITICITY_TOL:.1e}")
    return m


def require_entries_within_1(m: np.ndarray, tol: float, error) -> None:
    """Raise ``error`` for an entry of modulus above 1 + tol, which no density matrix or
    unitary has: checked before any product, so a huge entry is named, not overflowed."""
    modulus = np.abs(m)
    if modulus.max(initial=0.0) > 1.0 + tol:
        raise error(f"entry {m.flat[modulus.argmax()]:.6g} has modulus above 1")


def require_unitary(a) -> np.ndarray:
    m = as_complex_matrix(a)
    require_entries_within_1(m, UNITARITY_TOL, NotUnitary)
    dev = float(np.abs(dagger(m) @ m - np.eye(m.shape[-1])).max(initial=0.0))
    if dev > UNITARITY_TOL:
        raise NotUnitary(f"max |U^dag U - I| = {dev:.3e} exceeds {UNITARITY_TOL:.1e}")
    return m


def require_density(a, dim: int | None = None) -> np.ndarray:
    """Validate a density operator, or a stack (..., d, d) of them, with one
    eigendecomposition that also checks Hermiticity: unit trace, positive semidefinite."""
    m = as_complex_matrix(a)
    require_entries_within_1(m, PSD_TOL, InvalidState)
    try:
        lo = float(hermitian_eig(m).eigenvalues[..., 0].min(initial=np.inf))
    except NotHermitian as exc:
        raise InvalidState(str(exc)) from None
    d = m.shape[-1]
    if dim is not None and d != dim:
        raise InvalidState(f"expected a {dim}x{dim} density matrix, got {d}x{d}")
    trace_dev = float(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0).max(initial=0.0))
    if trace_dev > PSD_TOL:
        raise InvalidState(f"trace differs from 1 by {trace_dev:.3e}, beyond {PSD_TOL:.1e}")
    if lo < -PSD_TOL:
        raise InvalidState(f"smallest eigenvalue {lo:.3e} below -{PSD_TOL:.1e}")
    return m


def hermitian_eig(a) -> EigDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each in a stack
    (..., d, d), by LAPACK ``eigh``.

    Returns eigenvalues sorted ascending with orthonormal eigenvector columns.
    Each eigenvector is rephased so that its first component larger than
    1e-12 in modulus is real positive, so the result is deterministic for a
    fixed input on a given platform and numpy build.

    Raises NotHermitian on asymmetric input.
    """
    vals, vecs = np.linalg.eigh(require_hermitian(a))
    # every column has unit norm, so each has a component above the cut
    columns = vecs.reshape(-1, vecs.shape[-1], vecs.shape[-1])
    first = np.argmax(np.abs(columns) > 1e-12, axis=1)
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
    or pairwise over stacks (..., m, m) and (..., n, n)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
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


def fidelity_unitary_pair(rho_d, u):
    """Fidelity between a qubit state and its conjugation by a unitary, of
    one pair or of each pair in stacks (..., 2, 2).

    For 2x2 density matrices this has the closed form
    ``sqrt(tr(rho U rho U^dag) + 2 det(rho))``, which is what is computed
    here (no matrix square roots needed).
    """
    rho = require_density(rho_d, dim=2)
    uu = require_unitary(u)
    if uu.shape[-1] != 2:
        raise NotUnitary("expected a 2x2 unitary")
    rotated = uu @ rho @ dagger(uu)
    overlap = np.real(np.trace(rho @ rotated, axis1=-2, axis2=-1))
    det = np.real(np.linalg.det(rho))
    value = np.sqrt(np.maximum(overlap + 2.0 * det, 0.0))
    return np.minimum(value, 1.0)[()]
