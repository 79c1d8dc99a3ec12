"""Closed-form which-path analytics for a two-dimensional detector.

For a qubit detector with Bloch vectors ``alpha`` (state) and ``beta``
(state after U), the optimal projective guess direction, the tightness gap of
the duality bound, and the small-bias slope of that gap all have closed
forms.  This module implements them and cross-checks the slope by finite
differences through the full interferometer pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFidelity, InvalidArgument, InvalidInstance
from .linalg import fidelity_unitary_pair, require_density, require_unitary
from .mzi import Evaluation, MZISetup
from .qubit import QubitState, bloch_to_matrix, matrix_to_bloch

BLOCH_MATCH_TOL = 1e-10
DEGENERATE_DIRECTION_TOL = 1e-12
P_STEP = 1e-4  # default path-bias step of the finite-difference gap slope


@dataclass(frozen=True)
class QubitDetectorAnalysis:
    """Bloch data of a qubit detector before (alpha) and after (beta) the
    coupling unitary, plus the path bias parameter p with w+ = (1 + p)/2.
    One analysis has 3-vectors and a float; a stack of them has (..., 3)
    vectors and (...) biases, and every quantity below is then elementwise."""

    alpha: np.ndarray
    beta: np.ndarray
    p: float

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if alpha.shape[-1:] != (3,) or beta.shape != alpha.shape or p.shape != alpha.shape[:-1]:
            raise InvalidInstance("alpha and beta must be 3-vectors, with one p each")
        if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
            raise InvalidInstance("alpha and beta must be finite")
        na, nb = np.linalg.norm(alpha, axis=-1), np.linalg.norm(beta, axis=-1)
        if (np.abs(na - nb) > BLOCH_MATCH_TOL).any():
            raise InvalidInstance(f"|alpha| and |beta| differ by {np.abs(na - nb).max():.6g}")
        if (na > 1.0 + BLOCH_MATCH_TOL).any():
            raise InvalidInstance(f"|alpha| = {na.max():.6g} exceeds 1")
        outside = ~((-1.0 <= p) & (p <= 1.0))
        if outside.any():
            raise InvalidInstance(f"p = {p[outside].flat[0]} outside [-1, 1]")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "p", p[()])

    @property
    def a(self):
        """Squared Bloch radius |alpha|^2 (1 for a pure detector)."""
        return (self.alpha * self.alpha).sum(axis=-1)

    @property
    def b(self):
        """Overlap alpha . beta."""
        return (self.alpha * self.beta).sum(axis=-1)

    @property
    def w_plus(self):
        return 0.5 * (1.0 + self.p)

    @property
    def w_minus(self):
        return 0.5 * (1.0 - self.p)


def analysis_from_states(rho_d, u, p: float) -> QubitDetectorAnalysis:
    """Extract (alpha, beta) from an explicit 2x2 detector state and unitary."""
    rho = require_density(rho_d, dim=2)
    uu = require_unitary(u)
    _, half_alpha = matrix_to_bloch(rho)
    _, half_beta = matrix_to_bloch(uu @ rho @ uu.conj().T)
    return QubitDetectorAnalysis(alpha=2.0 * half_alpha, beta=2.0 * half_beta, p=p)


def optimal_projective_qubit(analysis: QubitDetectorAnalysis) -> tuple:
    """Closed-form optimal guess direction and its outcome probabilities, of
    one analysis or of each in a stack.

    Returns ``(s, eta_S, eta_S^U)`` with ``s = unit(w+ alpha - w- beta)``,
    ``eta_S = (1 + alpha.s)/2`` and ``eta_S^U = (1 + beta.s)/2``.  When the
    direction degenerates (w+ alpha = w- beta) the convention s = (0, 0, 1)
    applies, any direction being optimal.
    """
    w_plus, w_minus = (np.asarray(w)[..., None] for w in (analysis.w_plus, analysis.w_minus))
    raw = w_plus * analysis.alpha - w_minus * analysis.beta
    norm = np.linalg.norm(raw, axis=-1, keepdims=True)
    open_ = norm > DEGENERATE_DIRECTION_TOL
    s = np.where(open_, raw / np.where(open_, norm, 1.0), [0.0, 0.0, 1.0])
    eta_s = 0.5 * (1.0 + (analysis.alpha * s).sum(axis=-1))
    eta_s_u = 0.5 * (1.0 + (analysis.beta * s).sum(axis=-1))
    return s, eta_s, eta_s_u


def purity_identity_residual(analysis: QubitDetectorAnalysis):
    """Residual of the identity
    ``w+^2 eta_S eta_Sbar - w-^2 eta_S^U eta_Sbar^U = (1 - tr rho_D^2)/2 * p``
    for the closed-form optimal strategy, per analysis.  Zero up to rounding
    for every valid analysis; exactly zero content-wise for pure detectors
    or p = 0.
    """
    _, eta_s, eta_s_u = optimal_projective_qubit(analysis)
    lhs = analysis.w_plus**2 * eta_s * (1.0 - eta_s) - analysis.w_minus**2 * eta_s_u * (
        1.0 - eta_s_u
    )
    # tr rho^2 = (1 + a)/2 for Bloch radius squared a
    rhs = 0.25 * (1.0 - analysis.a) * analysis.p
    return np.abs(lhs - rhs)


def gap_slope_prediction(rho_d, u):
    """Leading coefficient of the tightness gap in the path bias,
    ``2 (1 - tr rho_D^2) / F(rho_D, U rho_D U^dag)``, of one detector or of
    each in stacks (N, 2, 2)."""
    rho = require_density(rho_d, dim=2)
    purity = np.real(np.trace(rho @ rho, axis1=-2, axis2=-1))
    fid = fidelity_unitary_pair(rho, u)
    if np.any(fid <= 1e-12):
        raise DegenerateFidelity("fidelity vanishes; the slope ratio is undefined")
    return 2.0 * np.maximum(1.0 - purity, 0.0) / fid


def gap_at_bias(rho_d, u, p):
    """Tightness gaps of the optimal strategy at path bias p, computed through
    the full interferometer pipeline, for detectors stacked as (N, 2, 2) and
    p a float or one bias per detector."""
    bloch = np.zeros((len(rho_d), 3))
    bloch[:, 0] = p
    setups = MZISetup(QubitState(bloch_to_matrix(bloch / 2.0, 0.5)), rho_d, u, np.zeros(len(rho_d)))
    return Evaluation(setups).report.tightness_gap


def gap_slope_empirical(rho_d, u, p_step: float = P_STEP):
    """Finite-difference slope of the tightness gap at zero path bias, of
    one detector or of each in stacks (N, 2, 2).

    The gap is even in p, so one-sided ratios at ``p_step`` and ``p_step/2``
    are combined by Richardson extrapolation; both run as one evaluation.
    """
    if not 1e-6 <= p_step <= 1e-2:
        raise InvalidArgument(f"p_step must lie in [1e-6, 1e-2], got {p_step}")
    single = np.ndim(rho_d) == 2
    rho_d, u = (np.reshape(x, (-1,) + np.shape(x)[-2:]) for x in (rho_d, u))
    steps = np.array([[p_step], [0.5 * p_step]])
    twice = (np.concatenate([x, x]) for x in (rho_d, u))
    coarse, fine = gap_at_bias(*twice, np.repeat(steps, len(rho_d))).reshape(2, -1) / steps
    slope = 2.0 * fine - coarse
    return slope[0] if single else slope
