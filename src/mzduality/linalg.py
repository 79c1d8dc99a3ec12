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


def require_hermitian(a, tol: float = HERMITICITY_TOL) -> np.ndarray:
    m = as_complex_matrix(a)
    dev = float(np.abs(m - dagger(m)).max())
    if dev > tol:
        raise NotHermitian(f"max |A - A^dag| = {dev:.3e} exceeds {tol:.1e}")
    return m


def require_unitary(a, tol: float = UNITARITY_TOL) -> np.ndarray:
    m = as_complex_matrix(a)
    dev = float(np.abs(dagger(m) @ m - np.eye(m.shape[-1])).max())
    if dev > tol:
        raise NotUnitary(f"max |U^dag U - I| = {dev:.3e} exceeds {tol:.1e}")
    return m


def require_density(a, dim: int | None = None, tol: float = PSD_TOL) -> np.ndarray:
    """Validate a density operator, or a stack (..., d, d) of them with one
    eigendecomposition: Hermitian, unit trace, positive semidefinite."""
    try:
        m = require_hermitian(a, tol)
    except NotHermitian as exc:
        raise InvalidState(str(exc)) from None
    d = m.shape[-1]
    if dim is not None and d != dim:
        raise InvalidState(f"expected a {dim}x{dim} density matrix, got {d}x{d}")
    trace_dev = float(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0).max())
    if trace_dev > tol:
        raise InvalidState(f"trace differs from 1 by {trace_dev:.3e}, beyond {tol:.1e}")
    lo = float(hermitian_eig(m).eigenvalues[..., 0].min())
    if lo < -tol:
        raise InvalidState(f"smallest eigenvalue {lo:.3e} below -{tol:.1e}")
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


def trace_norm(a) -> float:
    """Sum of the absolute eigenvalues of a Hermitian matrix."""
    vals = hermitian_eig(a).eigenvalues
    return float(np.sum(np.abs(vals)))


def kron(a, b) -> np.ndarray:
    """Tensor product with the quanton as the first factor."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace_detector(m) -> np.ndarray:
    """Trace out the detector from an operator on quanton (dim 2) x detector.

    The input dimension must be 2*d for some detector dimension d >= 1.
    """
    full = as_complex_matrix(m)
    dim = full.shape[0]
    if dim % 2 != 0 or dim == 0:
        raise DimensionMismatch(f"dimension {dim} is not 2 x detector dimension")
    d = dim // 2
    blocks = full.reshape(2, d, 2, d)
    return np.einsum("ijkj->ik", blocks)


def fidelity_unitary_pair(rho_d, u) -> float:
    """Fidelity between a qubit state and its conjugation by a unitary.

    For 2x2 density matrices this has the closed form
    ``sqrt(tr(rho U rho U^dag) + 2 det(rho))``, which is what is computed
    here (no matrix square roots needed).
    """
    rho = require_density(rho_d, dim=2)
    uu = require_unitary(u)
    if uu.shape[0] != 2:
        raise NotUnitary("expected a 2x2 unitary")
    rotated = uu @ rho @ uu.conj().T
    overlap = float(np.real(np.trace(rho @ rotated)))
    det = float(np.real(np.linalg.det(rho)))
    value = np.sqrt(max(overlap + 2.0 * det, 0.0))
    return float(min(value, 1.0))
