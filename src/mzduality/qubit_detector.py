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

from .errors import DegenerateFidelity, DimensionMismatch, InvalidArgument, InvalidInstance
from .linalg import INPUT_TOL, dagger, require_density, require_unitary, require_within
from .mzi import Evaluation, MZISetup
from .qubit import QubitState, matrix_to_bloch, real

DEGENERATE_DIRECTION_TOL = 1e-12
DEGENERATE_FIDELITY_TOL = 1e-12
P_STEP = 1e-4  # default path-bias step of the finite-difference gap slope


@dataclass(frozen=True, eq=False)
class QubitDetectorAnalysis:
    """Bloch data of a qubit detector before (alpha) and after (beta) the
    coupling unitary, plus the path bias parameter p with w+ = (1 + p)/2.
    One analysis has 3-vectors and a float; a stack of them has (..., 3)
    vectors and (...) biases, and every quantity below is then elementwise."""

    alpha: np.ndarray
    beta: np.ndarray
    p: float

    def __post_init__(self):
        alpha, beta, p = (np.asarray(real(vars(self)[name], name, InvalidInstance))
                          for name in ("alpha", "beta", "p"))
        if alpha.shape[-1:] != (3,) or beta.shape != alpha.shape or p.shape != alpha.shape[:-1]:
            raise InvalidInstance("alpha and beta must be 3-vectors, with one p each")
        # ahead of the norms, which overflow; a valid |beta| may pass 1 by twice the slack
        for name, vec in (("alpha", alpha), ("beta", beta)):
            require_within(vec, 1.0 + INPUT_TOL, INPUT_TOL, InvalidInstance,
                           name + " component {:.6g} exceeds 1")
        na, nb = np.linalg.norm(alpha, axis=-1), np.linalg.norm(beta, axis=-1)
        if (np.abs(na - nb) > INPUT_TOL).any():
            raise InvalidInstance(f"|alpha| and |beta| differ by {np.abs(na - nb).max():.6g}")
        if (na > 1.0 + INPUT_TOL).any():
            raise InvalidInstance(f"|alpha| = {na.max():.6g} exceeds 1")
        outside = np.abs(p) > 1.0
        if outside.any():
            raise InvalidInstance(f"p = {p[outside].flat[0]} outside [-1, 1]")
        vars(self).update(alpha=alpha, beta=beta, p=p[()])

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


def analysis_from_states(rho_d, u, p) -> QubitDetectorAnalysis:
    """Extract (alpha, beta) from an explicit 2x2 detector state and unitary,
    or from stacks (N, 2, 2) of them with one p per detector."""
    rho = require_density(rho_d, dim=2)
    uu = require_unitary(u)
    if uu.shape != rho.shape:
        raise DimensionMismatch(f"detector unitary is {uu.shape} but state is {rho.shape}")
    _, half_alpha = matrix_to_bloch(rho)
    _, half_beta = matrix_to_bloch(uu @ rho @ dagger(uu))
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
    each in stacks (N, 2, 2).  In the Bloch data at p = 0,
    ``1 - tr rho_D^2 = (1 - a)/2`` and ``F = sqrt(1 + (b - a)/2)``."""
    analysis = analysis_from_states(rho_d, u, np.zeros(np.shape(rho_d)[:-2]))
    a, b = analysis.a, analysis.b
    fid = np.sqrt(np.maximum(1.0 + 0.5 * (b - a), 0.0))
    if np.any(fid <= DEGENERATE_FIDELITY_TOL):
        raise DegenerateFidelity("fidelity vanishes; the slope ratio is undefined")
    return np.maximum(1.0 - a, 0.0) / fid


def gap_at_bias(rho_d, u, p):
    """Tightness gaps of the optimal strategy at path bias p, computed through
    the full interferometer pipeline, for detectors stacked as (N, 2, 2) and
    p a float or one bias per detector."""
    bloch = np.zeros((len(rho_d), 3))
    bloch[:, 0] = p
    setups = MZISetup(QubitState.from_bloch(bloch), rho_d, u, np.zeros(len(rho_d)))
    return Evaluation(setups).report.tightness_gap


def gap_slope_empirical(rho_d, u, p_step: float = P_STEP):
    """Finite-difference slope of the tightness gap at zero path bias, of
    one detector or of each in stacks (N, 2, 2).

    The gap is even in p, so one-sided ratios at ``p_step`` and ``p_step/2``
    are combined by Richardson extrapolation; both run as one evaluation.
    """
    # a float, NaN too, needs only its range; else the real-number rule names the value
    step = p_step if isinstance(p_step, float) else real(p_step, "p_step")
    if np.ndim(step) or not 1e-6 <= step <= 1e-2:
        raise InvalidArgument(f"p_step must lie in [1e-6, 1e-2], got {p_step}")
    single = np.ndim(rho_d) == 2
    rho_d, u = (np.reshape(x, (-1,) + np.shape(x)[-2:]) for x in (rho_d, u))
    steps = np.array([[step], [0.5 * step]])
    twice = (np.concatenate([x, x]) for x in (rho_d, u))
    coarse, fine = gap_at_bias(*twice, np.repeat(steps, len(rho_d))).reshape(2, -1) / steps
    slope = 2.0 * fine - coarse
    return slope[0] if single else slope
