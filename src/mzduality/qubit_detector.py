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
from .mzi import MZISetup, optimal_strategy, predictability, strategy_stats, tightness_gap
from .qubit import QubitState, matrix_to_bloch

BLOCH_MATCH_TOL = 1e-10
DEGENERATE_DIRECTION_TOL = 1e-12


@dataclass(frozen=True)
class QubitDetectorAnalysis:
    """Bloch data of a qubit detector before (alpha) and after (beta) the
    coupling unitary, plus the path bias parameter p with w+ = (1 + p)/2."""

    alpha: np.ndarray
    beta: np.ndarray
    p: float

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if alpha.shape != (3,) or beta.shape != (3,):
            raise InvalidInstance("alpha and beta must be 3-vectors")
        if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
            raise InvalidInstance("alpha and beta must be finite")
        na, nb = np.linalg.norm(alpha), np.linalg.norm(beta)
        if abs(na - nb) > BLOCH_MATCH_TOL:
            raise InvalidInstance(f"|alpha| = {na:.6g} and |beta| = {nb:.6g} must match")
        if na > 1.0 + BLOCH_MATCH_TOL:
            raise InvalidInstance(f"|alpha| = {na:.6g} exceeds 1")
        if not -1.0 <= self.p <= 1.0:
            raise InvalidInstance(f"p = {self.p} outside [-1, 1]")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def a(self) -> float:
        """Squared Bloch radius |alpha|^2 (1 for a pure detector)."""
        return float(self.alpha @ self.alpha)

    @property
    def b(self) -> float:
        """Overlap alpha . beta."""
        return float(self.alpha @ self.beta)

    @property
    def w_plus(self) -> float:
        return 0.5 * (1.0 + self.p)

    @property
    def w_minus(self) -> float:
        return 0.5 * (1.0 - self.p)


def analysis_from_states(rho_d, u, p: float) -> QubitDetectorAnalysis:
    """Extract (alpha, beta) from an explicit 2x2 detector state and unitary."""
    rho = require_density(rho_d, dim=2)
    uu = require_unitary(u)
    _, half_alpha = matrix_to_bloch(rho)
    _, half_beta = matrix_to_bloch(uu @ rho @ uu.conj().T)
    return QubitDetectorAnalysis(alpha=2.0 * half_alpha, beta=2.0 * half_beta, p=p)


def optimal_projective_qubit(analysis: QubitDetectorAnalysis) -> tuple[np.ndarray, float, float]:
    """Closed-form optimal guess direction and its outcome probabilities.

    Returns ``(s, eta_S, eta_S^U)`` with ``s = unit(w+ alpha - w- beta)``,
    ``eta_S = (1 + alpha.s)/2`` and ``eta_S^U = (1 + beta.s)/2``.  When the
    direction degenerates (w+ alpha = w- beta) the convention s = (0, 0, 1)
    applies, any direction being optimal.
    """
    raw = analysis.w_plus * analysis.alpha - analysis.w_minus * analysis.beta
    norm = float(np.linalg.norm(raw))
    s = raw / norm if norm > DEGENERATE_DIRECTION_TOL else np.array([0.0, 0.0, 1.0])
    eta_s = 0.5 * (1.0 + float(analysis.alpha @ s))
    eta_s_u = 0.5 * (1.0 + float(analysis.beta @ s))
    return s, eta_s, eta_s_u


def purity_identity_residual(analysis: QubitDetectorAnalysis) -> float:
    """Residual of the identity
    ``w+^2 eta_S eta_Sbar - w-^2 eta_S^U eta_Sbar^U = (1 - tr rho_D^2)/2 * p``
    for the closed-form optimal strategy.  Zero up to rounding for every
    valid analysis; exactly zero content-wise for pure detectors or p = 0.
    """
    _, eta_s, eta_s_u = optimal_projective_qubit(analysis)
    lhs = analysis.w_plus**2 * eta_s * (1.0 - eta_s) - analysis.w_minus**2 * eta_s_u * (
        1.0 - eta_s_u
    )
    # tr rho^2 = (1 + a)/2 for Bloch radius squared a
    rhs = 0.25 * (1.0 - analysis.a) * analysis.p
    return float(abs(lhs - rhs))


def gap_slope_prediction(rho_d, u) -> float:
    """Leading coefficient of the tightness gap in the path bias:
    ``2 (1 - tr rho_D^2) / F(rho_D, U rho_D U^dag)``."""
    rho = require_density(rho_d, dim=2)
    purity = float(np.real(np.trace(rho @ rho)))
    fid = fidelity_unitary_pair(rho_d, u)
    if fid <= 1e-12:
        raise DegenerateFidelity("fidelity vanishes; the slope ratio is undefined")
    return 2.0 * max(1.0 - purity, 0.0) / fid


def gap_at_bias(rho_d, u, p: float) -> float:
    """Tightness gap of the optimal strategy at path bias p, computed through
    the full interferometer pipeline."""
    rho = QubitState.from_bloch([p, 0.0, 0.0])
    setup = MZISetup(rho=rho, rho_d=rho_d, u=u, phi=0.0)
    strategy = optimal_strategy(setup)
    stats = strategy_stats(setup, strategy)
    _, w_plus, w_minus = predictability(rho)
    return tightness_gap(stats, w_plus, w_minus)


def gap_slope_empirical(rho_d, u, p_step: float = 1e-4) -> float:
    """Finite-difference slope of the tightness gap at zero path bias.

    The gap is even in p, so one-sided ratios at ``p_step`` and ``p_step/2``
    are combined by Richardson extrapolation.
    """
    if not 1e-6 <= p_step <= 1e-2:
        raise InvalidArgument(f"p_step must lie in [1e-6, 1e-2], got {p_step}")
    coarse = gap_at_bias(rho_d, u, p_step) / p_step
    fine = gap_at_bias(rho_d, u, 0.5 * p_step) / (0.5 * p_step)
    return 2.0 * fine - coarse
