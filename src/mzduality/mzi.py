"""Mach-Zehnder interferometer with a which-path detector.

The quanton enters in state ``rho`` on paths |0>, |1>, passes a Hadamard beam
splitter, a phase shifter ``exp(i phi sigma_z / 2)``, is coupled to a
d-dimensional detector by ``|0><0| x I + |1><1| x U``, and exits through a
second Hadamard.  A strategy measures the detector in an orthonormal basis and
guesses path |0> for outcomes in the subset S, path |1> otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, MZDualityError
from .linalg import (
    hermitian_eig,
    kron,
    partial_trace_detector,
    require_density,
    require_unitary,
    trace_norm,
)
from .qubit import (
    IDENTITY_2,
    KET_MINUS,
    KET_PLUS,
    SIGMA_X,
    SIGMA_Z,
    BinaryQubitObservable,
    QubitState,
    as_generator,
    random_unitary,
)

HADAMARD = (SIGMA_X + SIGMA_Z) / np.sqrt(2.0)

ORTHONORMALITY_TOL = 1e-10
ZERO_EIGENVALUE_TOL = 1e-12
DEGENERATE_PHASE_TOL = 1e-12


@dataclass(frozen=True)
class MZISetup:
    """Quanton state, detector state, detector unitary, and phase-shifter angle."""

    rho: QubitState
    rho_d: np.ndarray
    u: np.ndarray
    phi: float = 0.0

    def __post_init__(self):
        rho_d = require_density(self.rho_d)
        u = require_unitary(self.u)
        d = rho_d.shape[0]
        if not (2 <= d <= 8):
            raise DimensionMismatch(f"detector dimension must lie in [2, 8], got {d}")
        if u.shape != rho_d.shape:
            raise DimensionMismatch(
                f"detector unitary is {u.shape} but state is {rho_d.shape}"
            )
        object.__setattr__(self, "rho_d", rho_d)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "phi", float(self.phi))

    @property
    def detector_dim(self) -> int:
        return self.rho_d.shape[0]


@dataclass(frozen=True)
class Strategy:
    """Orthonormal detector basis plus the outcome subset that votes for path |0>."""

    basis: np.ndarray
    subset: frozenset

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise DimensionMismatch(f"basis must be square, got shape {basis.shape}")
        d = basis.shape[0]
        dev = float(np.max(np.abs(basis.conj().T @ basis - np.eye(d))))
        if dev > ORTHONORMALITY_TOL:
            raise DimensionMismatch(f"basis columns not orthonormal (residual {dev:.3e})")
        subset = frozenset(int(k) for k in self.subset)
        if not subset <= set(range(d)):
            raise DimensionMismatch(f"subset {sorted(subset)} not within 0..{d - 1}")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "subset", subset)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def complement(self) -> frozenset:
        return frozenset(range(self.dim)) - self.subset


@dataclass(frozen=True)
class StrategyStats:
    """Detector-outcome probabilities for S and its complement, before and after U."""

    eta_s: float
    eta_sbar: float
    eta_s_u: float
    eta_sbar_u: float

    def __post_init__(self):
        if abs(self.eta_s + self.eta_sbar - 1.0) > 1e-12:
            raise MZDualityError("eta_s + eta_sbar must equal 1")
        if abs(self.eta_s_u + self.eta_sbar_u - 1.0) > 1e-12:
            raise MZDualityError("eta_s_u + eta_sbar_u must equal 1")


@dataclass(frozen=True)
class DualityReport:
    """All derived duality quantities for one setup/strategy pair.

    ``duality_lhs <= duality_rhs`` is the strategy-resolved duality
    inequality; ``jsve_lhs <= 1`` is the classic visibility-distinguishability
    bound it sharpens.
    """

    a_priori_visibility: float
    predictability: float
    visibility: float
    phi0: float
    delta: float
    contrast: float
    distinguishability: float
    max_distinguishability: float
    tightness_gap: float
    duality_lhs: float
    duality_rhs: float
    jsve_lhs: float

    def __post_init__(self):
        if self.visibility > self.a_priori_visibility + 1e-12:
            raise MZDualityError("visibility exceeds a priori visibility")
        if self.distinguishability > self.max_distinguishability + 1e-12:
            raise MZDualityError("strategy distinguishability exceeds the optimum")


def a_priori_visibility(rho: QubitState) -> tuple[float, float]:
    """Interference contrast without the detector and the phase that attains it.

    Returns ``(2 |<+|rho|->|, arg <-|rho|+>)``; the phase defaults to 0 when
    the visibility vanishes.
    """
    overlap = complex(KET_MINUS.conj() @ rho.matrix @ KET_PLUS)
    v0 = 2.0 * abs(overlap)
    phi0 = float(np.angle(overlap)) if v0 >= DEGENERATE_PHASE_TOL else 0.0
    return float(v0), phi0 + 0.0


def predictability(rho: QubitState) -> tuple[float, float, float]:
    """Path bias of the input state: ``(|w+ - w-|, w+, w-)`` in the sigma_x eigenbasis."""
    w_plus = float(np.real(KET_PLUS.conj() @ rho.matrix @ KET_PLUS))
    w_minus = float(np.real(KET_MINUS.conj() @ rho.matrix @ KET_MINUS))
    return abs(w_plus - w_minus), w_plus, w_minus


def visibility_with_detector(setup: MZISetup) -> tuple[float, float, float]:
    """Fringe visibility with the detector coupled: ``(V, delta, contrast)``.

    ``contrast = |tr(U rho_D)|`` multiplies the a priori visibility;
    ``delta = arg tr(rho_D U^dag)`` (0 when the contrast vanishes) is the
    phase offset the detector imprints on the fringes.
    """
    trace = complex(np.trace(setup.u @ setup.rho_d))
    contrast = abs(trace)
    delta = float(np.angle(np.conj(trace))) if contrast >= DEGENERATE_PHASE_TOL else 0.0
    v0, _ = a_priori_visibility(setup.rho)
    return float(v0 * contrast), delta + 0.0, float(contrast)


def phase_shifter(phi: float) -> np.ndarray:
    return np.diag([np.exp(0.5j * phi), np.exp(-0.5j * phi)])


def interferometer_unitary(setup: MZISetup) -> np.ndarray:
    """Total unitary on quanton x detector from entry to the output ports."""
    d = setup.detector_dim
    eye_d = np.eye(d, dtype=complex)
    coupling = kron(np.diag([1.0, 0.0]), eye_d) + kron(np.diag([0.0, 1.0]), setup.u)
    return kron(HADAMARD, eye_d) @ coupling @ kron(phase_shifter(setup.phi) @ HADAMARD, eye_d)


def strategy_stats(setup: MZISetup, strategy: Strategy) -> StrategyStats:
    """Probabilities of the detector landing in S / S-bar before and after U."""
    if strategy.dim != setup.detector_dim:
        raise DimensionMismatch(
            f"strategy dimension {strategy.dim} != detector dimension {setup.detector_dim}"
        )
    basis = strategy.basis
    diag_plain = np.real(np.einsum("ij,jk,ki->i", basis.conj().T, setup.rho_d, basis))
    rotated = setup.u @ setup.rho_d @ setup.u.conj().T
    diag_rot = np.real(np.einsum("ij,jk,ki->i", basis.conj().T, rotated, basis))
    in_s = np.array([k in strategy.subset for k in range(strategy.dim)])
    return StrategyStats(
        eta_s=float(diag_plain[in_s].sum()),
        eta_sbar=float(diag_plain[~in_s].sum()),
        eta_s_u=float(diag_rot[in_s].sum()),
        eta_sbar_u=float(diag_rot[~in_s].sum()),
    )


def distinguishability(stats: StrategyStats, w_plus: float, w_minus: float) -> float:
    """Guessing-success measure ``2 w+ eta_S + 2 w- eta_Sbar^U - 1`` of a strategy."""
    return 2.0 * w_plus * stats.eta_s + 2.0 * w_minus * stats.eta_sbar_u - 1.0


def guess_operator(setup: MZISetup) -> np.ndarray:
    """The Helstrom operator ``w+ rho_D - w- U rho_D U^dag`` the optimal guess diagonalizes."""
    _, w_plus, w_minus = predictability(setup.rho)
    return w_plus * setup.rho_d - w_minus * (setup.u @ setup.rho_d @ setup.u.conj().T)


def optimal_strategy(setup: MZISetup) -> Strategy:
    """Best projective which-path strategy: eigenbasis of the guess operator,
    with S collecting the strictly positive eigenvalues (ties go to S-bar)."""
    vals, vecs = hermitian_eig(guess_operator(setup))
    subset = frozenset(int(k) for k in np.flatnonzero(vals > ZERO_EIGENVALUE_TOL))
    return Strategy(basis=vecs, subset=subset)


def max_distinguishability(setup: MZISetup) -> float:
    """Optimal path distinguishability: trace norm of the guess operator."""
    return trace_norm(guess_operator(setup))


def interference_povm(setup: MZISetup) -> BinaryQubitObservable:
    """Binary observable recorded at the output ports: a smeared version of the
    sharp interference observable at phase ``delta + phi``, with sharpness
    ``contrast / 2``."""
    _, delta, contrast = visibility_with_detector(setup)
    if contrast < DEGENERATE_PHASE_TOL:
        vector = np.zeros(3)
    else:
        angle = delta + setup.phi
        vector = 0.5 * contrast * np.array([0.0, -np.sin(angle), np.cos(angle)])
    return BinaryQubitObservable(bias=0.5, vector=vector)


def which_path_povm(setup: MZISetup, strategy: Strategy) -> BinaryQubitObservable:
    """Binary observable realized by the detector guess: a smeared version of
    the sharp path observable sigma_x."""
    stats = strategy_stats(setup, strategy)
    bias = 0.5 * (stats.eta_s + stats.eta_s_u)
    vector = np.array([0.5 * (stats.eta_s - stats.eta_s_u), 0.0, 0.0])
    return BinaryQubitObservable(bias=bias, vector=vector)


def joint_observable(setup: MZISetup, strategy: Strategy) -> np.ndarray:
    """Four-outcome observable (output port i, guess j) the setup realizes.

    Returns a (2, 2, 2, 2) array where ``[i, j]`` is the 2x2 effect for port
    ``i`` and guess ``j``.  Its marginals reproduce ``interference_povm`` and
    ``which_path_povm``.
    """
    if strategy.dim != setup.detector_dim:
        raise DimensionMismatch(
            f"strategy dimension {strategy.dim} != detector dimension {setup.detector_dim}"
        )
    total = interferometer_unitary(setup)
    weighted = kron(IDENTITY_2, setup.rho_d) @ total.conj().T
    effects = np.zeros((2, 2, 2, 2), dtype=complex)
    for i in range(2):
        port = np.zeros((2, 2), dtype=complex)
        port[i, i] = 1.0
        for k in range(strategy.dim):
            w = strategy.basis[:, k]
            projector = kron(port, np.outer(w, w.conj()))
            effect = partial_trace_detector(weighted @ projector @ total)
            j = 0 if k in strategy.subset else 1
            effects[i, j] += (effect + effect.conj().T) / 2.0
    return effects


def outcome_probabilities(setup: MZISetup, strategy: Strategy) -> np.ndarray:
    """Exact 2x2 outcome table ``P(i, j) = tr(rho E_ij)``."""
    effects = joint_observable(setup, strategy)
    probs = np.real(np.einsum("ijkl,lk->ij", effects, setup.rho.matrix))
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def sample_outcomes(setup: MZISetup, strategy: Strategy, n_shots: int, seed) -> np.ndarray:
    """Multinomial sample of the joint outcome table; deterministic per seed."""
    if n_shots < 1:
        raise InvalidArgument(f"n_shots must be >= 1, got {n_shots}")
    probs = outcome_probabilities(setup, strategy)
    rng = as_generator(seed)
    return rng.multinomial(int(n_shots), probs.ravel()).reshape(2, 2)


def tightness_gap(stats: StrategyStats, w_plus: float, w_minus: float) -> float:
    """The gap ``2 |w+ sqrt(eta_S eta_Sbar) - w- sqrt(eta_S^U eta_Sbar^U)|`` by
    which the strategy-resolved duality bound beats the classic one."""
    left = w_plus * np.sqrt(max(stats.eta_s * stats.eta_sbar, 0.0))
    right = w_minus * np.sqrt(max(stats.eta_s_u * stats.eta_sbar_u, 0.0))
    return 2.0 * abs(left - right)


def random_strategy(d: int, seed) -> Strategy:
    """Haar-random basis with a uniformly random guess subset."""
    rng = as_generator(seed)
    basis = random_unitary(d, rng)
    subset = frozenset(int(k) for k in range(d) if rng.random() < 0.5)
    return Strategy(basis=basis, subset=subset)


def duality_report(setup: MZISetup, strategy: Strategy) -> DualityReport:
    """Evaluate every duality quantity for the given strategy.

    ``duality_lhs`` is computed in the visibility-free form
    ``D_S^2 + (1 - P^2) contrast^2``, which stays well-defined when the
    a priori visibility vanishes.
    """
    v0, phi0 = a_priori_visibility(setup.rho)
    pred, w_plus, w_minus = predictability(setup.rho)
    visibility, delta, contrast = visibility_with_detector(setup)
    stats = strategy_stats(setup, strategy)
    d_s = distinguishability(stats, w_plus, w_minus)
    d_max = max_distinguishability(setup)
    gap = tightness_gap(stats, w_plus, w_minus)
    wave_term = (1.0 - pred**2) * contrast**2
    return DualityReport(
        a_priori_visibility=v0,
        predictability=pred,
        visibility=visibility,
        phi0=phi0,
        delta=delta,
        contrast=contrast,
        distinguishability=d_s,
        max_distinguishability=d_max,
        tightness_gap=gap,
        duality_lhs=d_s**2 + wave_term,
        duality_rhs=1.0 - gap**2,
        jsve_lhs=d_max**2 + wave_term,
    )
