"""Mach-Zehnder interferometer with a which-path detector.

The quanton enters in state ``rho`` on paths |0>, |1>, passes a Hadamard beam
splitter, a phase shifter ``exp(i phi sigma_z / 2)``, is coupled to a
d-dimensional detector by ``|0><0| x I + |1><1| x U``, and exits through a
second Hadamard.  A strategy measures the detector in an orthonormal basis and
guesses path |0> for outcomes in the subset S, path |1> otherwise.

Every strategy-dependent quantity comes from one batched kernel,
``Evaluation``, which runs over stacks of setups and strategies of one detector
dimension; the single-setup functions call it with a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, MZDualityError
from .linalg import dagger, hermitian_eig, require_density, require_unitary
from .qubit import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Z,
    BinaryQubitObservable,
    QubitState,
    as_generator,
    bloch_to_matrix,
    bloch_vectors,
    effect_min_eigenvalue,
    haar_unitary,
    hilbert_schmidt_states,
    pure_states,
    require_dim,
)

HADAMARD = (SIGMA_X + SIGMA_Z) / np.sqrt(2.0)

ZERO_EIGENVALUE_TOL = 1e-12
DEGENERATE_PHASE_TOL = 1e-12


def _check_detector(rho_d, u, phi):
    """Detector states, unitaries and phases of one setup, or stacked along a
    leading axis, as validated arrays."""
    rho_d = require_density(rho_d)
    u = require_unitary(u)
    require_dim(rho_d.shape[-1])
    if u.shape != rho_d.shape:
        raise DimensionMismatch(f"detector unitary is {u.shape} but state is {rho_d.shape}")
    phi = np.asarray(phi, dtype=float)
    if not np.isfinite(phi).all():
        raise InvalidArgument(f"phase phi must be finite, got {phi}")
    return rho_d, u, phi


@dataclass(frozen=True)
class MZISetup:
    """Quanton state, detector state, detector unitary, and phase-shifter angle."""

    rho: QubitState
    rho_d: np.ndarray
    u: np.ndarray
    phi: float = 0.0

    def __post_init__(self):
        rho_d, u, phi = _check_detector(self.rho_d, self.u, self.phi)
        if rho_d.ndim != 2:
            raise DimensionMismatch(f"expected one detector state, got shape {rho_d.shape}")
        object.__setattr__(self, "rho_d", rho_d)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "phi", float(phi))

    @property
    def detector_dim(self) -> int:
        return self.rho_d.shape[0]


class Setups(NamedTuple):
    """Setups of one detector dimension stacked along a leading axis: quanton
    matrices (N, 2, 2), detector states and unitaries (N, d, d), phases (N,)."""

    rho: np.ndarray
    rho_d: np.ndarray
    u: np.ndarray
    phi: np.ndarray

    @classmethod
    def validated(cls, rho, rho_d, u, phi) -> "Setups":
        """The stacks checked as ``MZISetup`` checks one setup, one
        eigendecomposition and one unitarity residual per stack."""
        return cls(require_density(rho, dim=2), *_check_detector(rho_d, u, phi))

    def rows(self, select) -> "Setups":
        """The setups ``select`` picks (an index, slice or mask); one unstacked
        setup reads like an ``MZISetup`` with a bare quanton matrix."""
        return Setups(*(field[select] for field in self))

    def setup(self, row: int) -> MZISetup:
        """Row ``row`` as an ``MZISetup``, which validates it."""
        return MZISetup(QubitState(self.rho[row]), self.rho_d[row], self.u[row], self.phi[row])


@dataclass(frozen=True)
class Strategy:
    """Orthonormal detector basis plus the outcome subset that votes for path |0>."""

    basis: np.ndarray
    subset: frozenset

    def __post_init__(self):
        basis = require_unitary(self.basis)
        if basis.ndim != 2:
            raise DimensionMismatch(f"expected one basis, got shape {basis.shape}")
        d = basis.shape[0]
        subset = frozenset(int(k) for k in self.subset)
        if not subset <= set(range(d)):
            raise DimensionMismatch(f"subset {sorted(subset)} not within 0..{d - 1}")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "subset", subset)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def in_s(self) -> np.ndarray:
        """The subset as a boolean mask over the basis columns."""
        mask = np.zeros(self.dim, dtype=bool)
        mask[list(self.subset)] = True
        return mask

    def complement(self) -> frozenset:
        return frozenset(range(self.dim)) - self.subset


class Strategies(NamedTuple):
    """Strategies stacked along a leading axis: bases (N, d, d) and guess masks (N, d)."""

    basis: np.ndarray
    in_s: np.ndarray

    def strategy(self, row: int) -> Strategy:
        """Row ``row`` as a ``Strategy``, which validates it."""
        return Strategy(self.basis[row], frozenset(np.flatnonzero(self.in_s[row]).tolist()))


@dataclass(frozen=True)
class StrategyStats:
    """Detector-outcome probabilities for S and its complement, before and after U
    (floats, or arrays over a stack)."""

    eta_s: float
    eta_sbar: float
    eta_s_u: float
    eta_sbar_u: float

    def __post_init__(self):
        if (np.abs(self.eta_s + self.eta_sbar - 1.0) > 1e-12).any():
            raise MZDualityError("eta_s + eta_sbar must equal 1")
        if (np.abs(self.eta_s_u + self.eta_sbar_u - 1.0) > 1e-12).any():
            raise MZDualityError("eta_s_u + eta_sbar_u must equal 1")


@dataclass(frozen=True)
class DualityReport:
    """All derived duality quantities for one setup/strategy pair (floats), or
    for a stack of them (arrays).

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
        if np.greater(self.visibility, self.a_priori_visibility + 1e-12).any():
            raise MZDualityError("visibility exceeds a priori visibility")
        if np.greater(self.distinguishability, self.max_distinguishability + 1e-12).any():
            raise MZDualityError("strategy distinguishability exceeds the optimum")


def _quanton_terms(rho) -> tuple:
    """``(V0, phi0, P, w+, w-)`` of a QubitState or of quanton matrices
    stacked as (N, 2, 2)."""
    # rho in the sigma_x eigenbasis |+>, |-> (the columns of HADAMARD)
    in_pm = HADAMARD @ getattr(rho, "matrix", rho) @ HADAMARD
    overlap = in_pm[..., 1, 0]
    w_plus, w_minus = in_pm[..., 0, 0].real, in_pm[..., 1, 1].real
    v0 = 2.0 * np.abs(overlap)
    phi0 = np.where(v0 >= DEGENERATE_PHASE_TOL, np.angle(overlap), 0.0)[()] + 0.0
    return v0, phi0, np.abs(w_plus - w_minus), w_plus, w_minus


def a_priori_visibility(rho):
    """Interference contrast without the detector and the phase that attains it.

    Returns ``(2 |<+|rho|->|, arg <-|rho|+>)``; the phase defaults to 0 when
    the visibility vanishes.  ``rho`` is a QubitState or quanton matrices
    stacked as (N, 2, 2).
    """
    return _quanton_terms(rho)[:2]


def predictability(rho):
    """Path bias of the input state: ``(|w+ - w-|, w+, w-)`` in the sigma_x
    eigenbasis, of a QubitState or of stacked quanton matrices."""
    return _quanton_terms(rho)[2:]


def phase_shifter(phi) -> np.ndarray:
    """``diag(exp(i phi/2), exp(-i phi/2))``, stacked as (..., 2, 2) for stacked phases."""
    phi = np.asarray(phi, dtype=float)
    shifter = np.zeros(phi.shape + (2, 2), dtype=complex)
    shifter[..., 0, 0] = np.exp(0.5j * phi)
    shifter[..., 1, 1] = np.exp(-0.5j * phi)
    return shifter


def distinguishability(stats: StrategyStats, w_plus, w_minus):
    """Guessing-success measure ``2 w+ eta_S + 2 w- eta_Sbar^U - 1`` of a strategy."""
    return 2.0 * w_plus * stats.eta_s + 2.0 * w_minus * stats.eta_sbar_u - 1.0


def tightness_gap(stats: StrategyStats, w_plus, w_minus):
    """The gap ``2 |w+ sqrt(eta_S eta_Sbar) - w- sqrt(eta_S^U eta_Sbar^U)|`` by
    which the strategy-resolved duality bound beats the classic one."""
    left = w_plus * np.sqrt(np.maximum(stats.eta_s * stats.eta_sbar, 0.0))
    right = w_minus * np.sqrt(np.maximum(stats.eta_s_u * stats.eta_sbar_u, 0.0))
    return 2.0 * np.abs(left - right)


class Evaluation:
    """The batched kernel: N validated setups of one detector dimension,
    measured by the given strategies or, when None, by the optimal ones (the
    guess operator's eigenbasis, S its strictly positive eigenvalues, ties to
    S-bar).  Each quantity is an array with leading axis N, computed on first
    use and kept, so a caller pays only for what it reads.

    The joint observable is ``E_ij = A^dag M_ij A`` with
    ``A = phase_shifter(phi) @ HADAMARD`` and

        M_ij = 1/2 [[eta_j, s_i xi_j], [s_i conj(xi_j), eta_j^U]],

    where ``s_i = +1, -1`` for ports 0, 1, the eta's are the strategy
    statistics of guess set j (S, then S-bar) and ``xi_j`` sums
    ``<b_k|U rho_D|b_k>`` over that set.
    """

    def __init__(self, setups: Setups, strategies: Strategies | None = None):
        self.setups, self._given = setups, strategies

    @cached_property
    def _quanton(self) -> tuple:
        return _quanton_terms(self.setups.rho)

    @cached_property
    def _detector(self) -> tuple:
        coherence = self.setups.u @ self.setups.rho_d
        rotated = coherence @ dagger(self.setups.u)
        return coherence, rotated, np.trace(coherence, axis1=1, axis2=2)

    @cached_property
    def fringes(self) -> tuple:
        """``(V, delta, contrast)`` as ``visibility_with_detector`` returns them."""
        trace = self._detector[2]
        contrast = np.abs(trace)
        delta = np.where(contrast >= DEGENERATE_PHASE_TOL, np.angle(np.conj(trace)), 0.0)
        return self._quanton[0] * contrast, delta + 0.0, contrast

    @cached_property
    def guess(self) -> tuple:
        """The guess operators ``w+ rho_D - w- U rho_D U^dag`` and their
        eigendecomposition."""
        w_plus, w_minus = (w[:, None, None] for w in self._quanton[3:])
        operator = w_plus * self.setups.rho_d - w_minus * self._detector[1]
        return operator, hermitian_eig(operator)

    @cached_property
    def strategies(self) -> Strategies:
        if self._given is not None:
            return self._given
        vals, vecs = self.guess[1]
        return Strategies(vecs, vals > ZERO_EIGENVALUE_TOL)

    @cached_property
    def _sums(self) -> tuple:
        """``<b_k|X|b_k>`` for X = rho_D, U rho_D U^dag and U rho_D, summed over
        S and over S-bar: two (N, 3) arrays."""
        (basis, in_s), (coherence, rotated, _) = self.strategies, self._detector
        operators = np.array((self.setups.rho_d, rotated, coherence))
        diagonals = np.einsum("nji,onjk,nki->noi", basis.conj(), operators, basis)
        inside = np.where(in_s[:, None, :], diagonals, 0.0)
        return inside.sum(axis=-1), (diagonals - inside).sum(axis=-1)

    @cached_property
    def stats(self) -> StrategyStats:
        (plain_s, rotated_s, _), (plain_sbar, rotated_sbar, _) = (s.T.real for s in self._sums)
        return StrategyStats(plain_s, plain_sbar, rotated_s, rotated_sbar)

    @cached_property
    def distinguishability(self) -> np.ndarray:
        """``D_S`` of each row; with given strategies it needs no
        eigendecomposition, which ``report`` spends on ``D_max``."""
        return distinguishability(self.stats, *self._quanton[3:])

    @cached_property
    def report(self) -> DualityReport:
        v0, phi0, pred, w_plus, w_minus = self._quanton
        visibility, delta, contrast = self.fringes
        d_s = self.distinguishability
        d_max = np.abs(self.guess[1].eigenvalues).sum(axis=-1)
        gap = tightness_gap(self.stats, w_plus, w_minus)
        wave_term = (1.0 - pred**2) * contrast**2
        return DualityReport(
            v0, pred, visibility, phi0, delta, contrast, d_s, d_max, gap,
            duality_lhs=d_s**2 + wave_term, duality_rhs=1.0 - gap**2, jsve_lhs=d_max**2 + wave_term,
        )

    @cached_property
    def pair(self) -> tuple:
        """The realized observable pair ``(m0, m_vec, n_vec)``: the guess is a
        smeared sigma_x with bias m0, the ports a smeared interference
        observable at phase ``delta + phi`` with sharpness ``contrast / 2``."""
        stats, (_, delta, contrast) = self.stats, self.fringes
        m_vec = np.zeros((len(delta), 3))
        m_vec[:, 0] = 0.5 * (stats.eta_s - stats.eta_s_u)
        angle = delta + self.setups.phi
        sharp = np.stack([np.zeros_like(angle), -np.sin(angle), np.cos(angle)], -1)
        n_vec = (0.5 * contrast)[:, None] * sharp
        n_vec[contrast < DEGENERATE_PHASE_TOL] = 0.0
        return 0.5 * (stats.eta_s + stats.eta_s_u), m_vec, n_vec

    @cached_property
    def effects(self) -> np.ndarray:
        """Joint observables (N, 2, 2, 2, 2), indexed [n, port, guess]."""
        stats, inside = self.stats, self._sums[0]
        xi = np.stack([inside[:, 2], self._detector[2] - inside[:, 2]], -1)[:, None, :]
        sign = np.array([1.0, -1.0])[:, None]
        middle = np.empty((len(xi), 2, 2, 2, 2), dtype=complex)
        middle[..., 0, 0] = np.stack([stats.eta_s, stats.eta_sbar], -1)[:, None, :]
        middle[..., 0, 1] = sign * xi
        middle[..., 1, 0] = sign * xi.conj()
        middle[..., 1, 1] = np.stack([stats.eta_s_u, stats.eta_sbar_u], -1)[:, None, :]
        entry = (phase_shifter(self.setups.phi) @ HADAMARD)[:, None, None]
        return 0.5 * dagger(entry) @ middle @ entry

    @cached_property
    def residuals(self) -> tuple:
        """Per row: the smallest eigenvalue of the four effects (``b - |v|`` of
        each ``b I + v . sigma``), ``max |sum E_ij - I|``, and the largest
        distance of a marginal from the realized pair."""
        effects, (m0, m_vec, n_vec) = self.effects, self.pair
        ports = bloch_to_matrix(np.stack([n_vec, -n_vec], 1), 0.5)
        guesses = bloch_to_matrix(np.stack([m_vec, -m_vec], 1), np.stack([m0, 1.0 - m0], 1))
        marginal = np.maximum(
            np.abs(effects.sum(axis=2) - ports).max(axis=(1, 2, 3)),
            np.abs(effects.sum(axis=1) - guesses).max(axis=(1, 2, 3)),
        )
        completeness = np.abs(effects.sum(axis=(1, 2)) - IDENTITY_2).max(axis=(1, 2))
        return effect_min_eigenvalue(effects).min(axis=(1, 2)), completeness, marginal


def evaluate_setup(setup: MZISetup, strategy: Strategy | None = None) -> Evaluation:
    """The kernel on a stack of one: ``setup`` measured by ``strategy``, or by
    the optimal strategy when it is None.  The setup keeps the evaluation of
    the strategy object it was last measured by, so a report row and its
    checks, which read one pair through several functions below, compute
    each quantity once; setups and strategies are frozen, so it stays valid."""
    kept = setup.__dict__.get("_evaluation")
    if kept is not None and kept[0] is strategy:
        return kept[1]
    if strategy is not None and strategy.dim != setup.detector_dim:
        raise DimensionMismatch(
            f"strategy dimension {strategy.dim} != detector dimension {setup.detector_dim}"
        )
    setups = Setups(setup.rho.matrix[None], setup.rho_d[None], setup.u[None], np.array([setup.phi]))
    stacked = None if strategy is None else Strategies(strategy.basis[None], strategy.in_s[None])
    result = Evaluation(setups, stacked)
    object.__setattr__(setup, "_evaluation", (strategy, result))
    return result


def _first(record):
    """Row 0 of a record of stacked arrays, as the same record of floats."""
    return type(record)(*(float(column[0]) for column in vars(record).values()))


def visibility_with_detector(setup: MZISetup) -> tuple[float, float, float]:
    """Fringe visibility with the detector coupled: ``(V, delta, contrast)``.

    ``contrast = |tr(U rho_D)|`` multiplies the a priori visibility;
    ``delta = arg tr(rho_D U^dag)`` (0 when the contrast vanishes) is the
    phase offset the detector imprints on the fringes.
    """
    return tuple(float(value[0]) for value in evaluate_setup(setup).fringes)


def guess_operator(setup: MZISetup) -> np.ndarray:
    """The Helstrom operator ``w+ rho_D - w- U rho_D U^dag`` the optimal guess diagonalizes."""
    return evaluate_setup(setup).guess[0][0].copy()


def strategy_stats(setup: MZISetup, strategy: Strategy) -> StrategyStats:
    """Probabilities of the detector landing in S / S-bar before and after U."""
    return _first(evaluate_setup(setup, strategy).stats)


def optimal_strategy(setup: MZISetup) -> Strategy:
    """Best projective which-path strategy: eigenbasis of the guess operator,
    with S collecting the strictly positive eigenvalues (ties go to S-bar).
    The evaluation that found it is kept as the evaluation of the pair."""
    result = evaluate_setup(setup)
    strategy = result.strategies.strategy(0)
    object.__setattr__(setup, "_evaluation", (strategy, result))
    return strategy


def max_distinguishability(setup: MZISetup) -> float:
    """Optimal path distinguishability: trace norm of the guess operator."""
    return float(evaluate_setup(setup).report.max_distinguishability[0])


def interference_povm(setup: MZISetup) -> BinaryQubitObservable:
    """Binary observable recorded at the output ports: a smeared version of the
    sharp interference observable at phase ``delta + phi``, with sharpness
    ``contrast / 2``."""
    return BinaryQubitObservable(bias=0.5, vector=evaluate_setup(setup).pair[2][0])


def which_path_povm(setup: MZISetup, strategy: Strategy) -> BinaryQubitObservable:
    """Binary observable realized by the detector guess: a smeared version of
    the sharp path observable sigma_x."""
    m0, m_vec, _ = evaluate_setup(setup, strategy).pair
    return BinaryQubitObservable(bias=float(m0[0]), vector=m_vec[0])


def joint_observable(setup: MZISetup, strategy: Strategy) -> np.ndarray:
    """Four-outcome observable (output port i, guess j) the setup realizes, as
    a (2, 2, 2, 2) array of 2x2 effects in the closed form of ``Evaluation``.
    Its marginals reproduce ``interference_povm`` and ``which_path_povm``."""
    return evaluate_setup(setup, strategy).effects[0].copy()


def duality_report(setup: MZISetup, strategy: Strategy) -> DualityReport:
    """Evaluate every duality quantity for the given strategy.

    ``duality_lhs`` is computed in the visibility-free form
    ``D_S^2 + (1 - P^2) contrast^2``, which stays well-defined when the
    a priori visibility vanishes.
    """
    return _first(evaluate_setup(setup, strategy).report)


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


def z_scores(probs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Binomial z-scores ``(f - p) / sqrt(p (1 - p) / shots)`` of a sample's
    counts against exact probabilities; an outcome of probability 0 or 1
    scores 0 at that frequency and inf at any other."""
    shots = counts.sum()
    freqs = counts / shots
    sigma = np.sqrt(np.maximum(probs * (1.0 - probs), 0.0) / shots)
    scores = (freqs - probs) / np.where(sigma > 0, sigma, 1.0)
    return np.where(sigma > 0, scores, np.where(freqs == probs, 0.0, np.inf))


def draw_setups(d: int, rngs, pure: bool = False) -> Setups:
    """The draws of ``random_setups`` before any check, stacked: quanton
    matrices of Bloch-ball vectors, detector states (Hilbert-Schmidt, or Haar
    pure), Haar coupling unitaries and uniform phases in [0, 2 pi).  Each
    stream draws its Bloch vector, then the Gaussians of its detector state
    and coupling in one call, then its phase."""
    d = require_dim(d)
    rho = bloch_to_matrix(bloch_vectors(rngs) / 2.0, 0.5)
    size = 2 * d if pure else 2 * d * d
    normals, phi = np.empty((len(rngs), size + 2 * d * d)), np.empty(len(rngs))
    for row, rng in enumerate(rngs):
        rng.standard_normal(out=normals[row])
        phi[row] = rng.uniform(0.0, 2.0 * np.pi)
    parts = normals[:, :size].reshape((-1, 2, d) if pure else (-1, 2, d, d))
    rho_d = (pure_states if pure else hilbert_schmidt_states)(parts[:, 0] + 1j * parts[:, 1])
    coupling = normals[:, size:].reshape(-1, 2, d, d)
    return Setups(rho, rho_d, haar_unitary(coupling[:, 0] + 1j * coupling[:, 1]), phi)


def random_setups(d: int, rngs, pure: bool = False) -> Setups:
    """One setup drawn from each generator, validated as one stack; the
    detector state is Hilbert-Schmidt-random, or Haar-random pure when
    ``pure`` is set.  Every Bloch vector is drawn before the rest, so each
    generator must be a stream of its own."""
    return Setups.validated(*draw_setups(d, rngs, pure))


def random_setup(d: int, seed) -> MZISetup:
    """Random setup drawn from one stream, as ``random_setups`` draws it."""
    return draw_setups(d, [as_generator(seed)]).setup(0)


def random_strategies(d: int, rngs) -> Strategies:
    """One strategy drawn from each generator, in turn: the Gaussians of a
    Haar basis in one call, then one fair coin per outcome for the subset."""
    d = require_dim(d)
    gaussian, coins = np.empty((len(rngs), 2, d, d)), np.empty((len(rngs), d))
    for row, rng in enumerate(rngs):
        rng.standard_normal(out=gaussian[row])
        rng.random(out=coins[row])
    basis = haar_unitary(gaussian[:, 0] + 1j * gaussian[:, 1])
    return Strategies(require_unitary(basis), coins < 0.5)


def random_strategy(d: int, seed) -> Strategy:
    """Haar-random basis with a uniformly random guess subset."""
    return random_strategies(d, [as_generator(seed)]).strategy(0)
