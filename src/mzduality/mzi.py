"""Mach-Zehnder interferometer with a which-path detector.

The quanton enters in state ``rho`` on paths |0>, |1>, passes a Hadamard beam
splitter, a phase shifter ``exp(i phi sigma_z / 2)``, is coupled to a
d-dimensional detector by ``|0><0| x I + |1><1| x U``, and exits through a
second Hadamard.  A strategy measures the detector in an orthonormal basis and
guesses path |0> for outcomes in the subset S, path |1> otherwise.

``MZISetup`` holds one setup or a stack of setups of one detector dimension,
and ``Strategy`` one strategy or a stack; each validates itself once, and
``qubit.Stacked`` takes their rows, and the report records', unchecked.
Every strategy-dependent quantity comes from one batched kernel,
``Evaluation``, which reads one setup as a stack of one, None as the optimal
strategies, and an ``optimal`` row mask as one stack of both kinds, as a
``sweep`` chunk is; the single-setup functions take one setup only, refuse a
stack, and read its row of the ``Evaluation`` it is bound to (see
``evaluated_rows``), or row 0 of its own.  The observable pairs a stack of
setups and strategies realize, ``Evaluation.pair``, are validated once as one
stacked ``jointmeas.JMInstance``, criterion margin included;
``jointmeas.instance_from_setup`` reads a row of it.  Readers take report,
stats and pair rows from the kept ``row_list``; ``evaluated_rows`` cuts setups
and strategies with ``rows()`` and keeps no list, which would make a reference
cycle back to their stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, MZDualityError
from .linalg import as_numbers, dagger, hermitian_eig, require_density, require_unitary
from .qubit import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Z,
    QubitState,
    Stacked,
    bloch_vectors,
    build_effect,
    effect_min_eigenvalue,
    generator,
    haar_unitary,
    hilbert_schmidt_states,
    integer,
    pure_states,
    real,
    require_dim,
    unchecked,
)

HADAMARD = (SIGMA_X + SIGMA_Z) / np.sqrt(2.0)

ZERO_EIGENVALUE_TOL = 1e-12
DEGENERATE_PHASE_TOL = 1e-12
TABLE_SUM_TOL = 1e-12  # how far an outcome table's sum may stray from 1
RECORD_TOL = 1e-12  # how far a report record's eta sums and optima may stray


@dataclass(frozen=True, eq=False)
class MZISetup(Stacked):
    """Quanton state, detector state, detector unitary and phase-shifter
    angle of one setup, (2, 2), (d, d), (d, d) and a float, or of N setups
    of one detector dimension, each with a leading axis N."""

    rho: QubitState
    rho_d: np.ndarray
    u: np.ndarray
    phi: float | np.ndarray = 0.0

    def __post_init__(self):
        rho_d, u = require_density(self.rho_d), require_unitary(self.u)
        require_dim(rho_d.shape[-1])
        if u.shape != rho_d.shape:
            raise DimensionMismatch(f"detector unitary is {u.shape} but state is {rho_d.shape}")
        phi, rows = real(self.phi, "phase phi"), rho_d.shape[:-2]
        if len(rows) > 1 or self.rho.matrix.shape[:-2] != rows or np.shape(phi) != rows:
            raise DimensionMismatch(
                f"quanton {self.rho.matrix.shape}, detector {rho_d.shape} and phase "
                f"{np.shape(phi)} do not stack alike"
            )
        vars(self).update(rho_d=rho_d, u=u, phi=phi)

    @property
    def detector_dim(self) -> int:
        return self.rho_d.shape[-1]


@dataclass(frozen=True, eq=False)
class Strategy(Stacked):
    """Orthonormal detector basis and the mask ``in_s`` of its columns, the
    outcomes S that vote for path |0>: one strategy as (d, d) and (d,), or N
    stacked as (N, d, d) and (N, d), the mask of booleans.  Validated and indexed
    as ``MZISetup``."""

    ITEM_NDIM = 2
    basis: np.ndarray
    in_s: np.ndarray

    def __post_init__(self):
        basis = require_unitary(self.basis)
        in_s = as_numbers(self.in_s, "guess mask", bool, InvalidArgument)
        if basis.ndim > 3 or in_s.shape != basis.shape[:-1]:
            raise DimensionMismatch(f"guess mask {in_s.shape} does not fit basis {basis.shape}")
        vars(self).update(basis=basis, in_s=in_s)

    @classmethod
    def from_subset(cls, basis, subset) -> "Strategy":
        """One strategy that guesses path |0> on the outcome indices in ``subset``."""
        d = np.shape(basis)[-1]
        subset = frozenset(integer(k, "outcome index", None, None) for k in subset)
        if not subset <= set(range(d)):
            raise DimensionMismatch(f"subset {sorted(subset)} not within 0..{d - 1}")
        return cls(basis, [k in subset for k in range(d)])

    @property
    def dim(self) -> int:
        return self.basis.shape[-1]

    @property
    def subset(self) -> frozenset:
        """The outcome indices in S, of one strategy."""
        return frozenset(np.flatnonzero(self.in_s).tolist())


@dataclass(frozen=True, eq=False)
class StrategyStats(Stacked):
    """Detector-outcome probabilities for S and its complement, before and after U
    (floats, or arrays over a stack)."""

    eta_s: float
    eta_sbar: float
    eta_s_u: float
    eta_sbar_u: float

    def __post_init__(self):
        plain = np.abs(self.eta_s + self.eta_sbar - 1.0) > RECORD_TOL
        if (plain | (np.abs(self.eta_s_u + self.eta_sbar_u - 1.0) > RECORD_TOL)).any():
            raise MZDualityError("eta_s + eta_sbar must equal 1" if plain.any()
                                 else "eta_s_u + eta_sbar_u must equal 1")


@dataclass(frozen=True, eq=False)
class DualityReport(Stacked):
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
        wave = np.greater(self.visibility, self.a_priori_visibility + RECORD_TOL)
        path = np.greater(self.distinguishability, self.max_distinguishability + RECORD_TOL)
        if (wave | path).any():
            raise MZDualityError("visibility exceeds a priori visibility" if wave.any()
                                 else "strategy distinguishability exceeds the optimum")


def phase_shifter(phi) -> np.ndarray:
    """``diag(exp(i phi/2), exp(-i phi/2))``, stacked as (..., 2, 2) for stacked
    phases: the real-number check (``qubit.real``), then ``build_shifter``."""
    return build_shifter(real(phi, "phase phi"))


def build_shifter(phi) -> np.ndarray:
    """``phase_shifter`` of float phases that passed its check, as a setup's have, unchecked."""
    shifter = np.zeros(np.shape(phi) + (2, 2), dtype=complex)
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
    """The batched kernel: a stack of N setups, or one setup read as a stack
    of one, measured by as many strategies of the same dimension or, when
    None, by the optimal ones (the guess operator's eigenbasis, S its
    strictly positive eigenvalues, ties to S-bar).  A row mask ``optimal``
    mixes both: its marked rows take the optimal strategy, the given
    strategies the others in order.  Each quantity is an array with leading
    axis N, computed on first use and kept, so a caller pays only for what
    it reads.

    The joint observable is ``E_ij = A^dag M_ij A`` with
    ``A = phase_shifter(phi) @ HADAMARD`` and

        M_ij = 1/2 [[eta_j, s_i xi_j], [s_i conj(xi_j), eta_j^U]],

    where ``s_i = +1, -1`` for ports 0, 1, the eta's are the strategy
    statistics of guess set j (S, then S-bar) and ``xi_j`` sums
    ``<b_k|U rho_D|b_k>`` over that set.
    """

    def __init__(self, setups: MZISetup, strategies: Strategy | None = None, optimal=None):
        setups = setups[None] if setups.one else setups
        n, dim = len(setups.phi), setups.detector_dim
        if optimal is not None and np.shape(optimal) != (n,):
            raise DimensionMismatch(f"optimal mask of {np.size(optimal)} rows for {n} setups")
        drawn = n * (strategies is not None) if optimal is None else n - np.count_nonzero(optimal)
        strategies = strategies[None] if strategies is not None and strategies.one else strategies
        given = (0, dim) if strategies is None else strategies.in_s.shape
        if given != (drawn, dim):
            raise DimensionMismatch(
                f"{given[0]} strategies of dimension {given[-1]} for {drawn} non-optimal "
                f"setups of detector dimension {dim}"
            )
        # a mask of one kind reads as the stack of that kind without a mask
        self.setups, self._given = setups, strategies if drawn else None
        self._optimal = np.asarray(optimal, dtype=bool) if 0 < drawn < n else None

    def with_strategies(self, rows, strategies: Strategy) -> "Evaluation":
        """The kernel on rows ``rows`` of this stack, repeats and all, by ``strategies``."""
        evaluation = Evaluation(self.setups[rows], strategies)
        for name in ("_quanton", "_detector"):
            vars(evaluation)[name] = tuple(term[rows] for term in getattr(self, name))
        return evaluation

    @cached_property
    def _quanton(self) -> tuple:
        """``(V0, phi0, P, w+, w-)`` of each quanton: the a priori visibility
        ``2 |<+|rho|->|`` and the phase ``arg <-|rho|+>`` that attains it (0
        when the visibility vanishes), and the predictability ``|w+ - w-|``
        of the path weights in the sigma_x eigenbasis."""
        # rho in the sigma_x eigenbasis |+>, |-> (the columns of HADAMARD)
        in_pm = HADAMARD @ self.setups.rho.matrix @ HADAMARD
        overlap = in_pm[..., 1, 0]
        w_plus, w_minus = in_pm[..., 0, 0].real, in_pm[..., 1, 1].real
        v0 = 2.0 * np.abs(overlap)
        phi0 = np.where(v0 >= DEGENERATE_PHASE_TOL, np.angle(overlap), 0.0) + 0.0
        return v0, phi0, np.abs(w_plus - w_minus), w_plus, w_minus

    @cached_property
    def _detector(self) -> tuple:
        coherence = self.setups.u @ self.setups.rho_d
        rotated = coherence @ dagger(self.setups.u)
        return coherence, rotated, np.trace(coherence, axis1=1, axis2=2)

    @cached_property
    def fringes(self) -> tuple:
        """Fringe visibility with the detector coupled, ``(V, delta, contrast)``:
        ``contrast = |tr(U rho_D)|`` multiplies the a priori visibility, and
        ``delta = arg tr(rho_D U^dag)`` (0 when the contrast vanishes) is the
        phase offset the detector imprints on the fringes."""
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
    def strategies(self) -> Strategy:
        if self._optimal is None and self._given is not None:
            return self._given
        vals, vecs = self.guess[1]
        basis, in_s = vecs, vals > ZERO_EIGENVALUE_TOL
        if self._optimal is not None:
            basis, drawn = vecs.copy(), ~self._optimal
            basis[drawn], in_s[drawn] = self._given.basis, self._given.in_s
        return unchecked(Strategy, basis=basis, in_s=in_s)

    @cached_property
    def _sums(self) -> tuple:
        """``<b_k|X|b_k>`` for X = rho_D, U rho_D U^dag and U rho_D, summed over
        S and over S-bar: two (N, 3) arrays."""
        basis, in_s = self.strategies.basis, self.strategies.in_s
        coherence, rotated, _ = self._detector
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
    def pair(self):
        """The realized observable pairs, one validated ``jointmeas.JMInstance``:
        the guess is a smeared sigma_x with bias m0, the ports a smeared
        interference observable at phase ``delta + phi``, sharpness ``contrast / 2``."""
        from .jointmeas import JMInstance  # jointmeas reads setups through this module
        stats, (_, delta, contrast) = self.stats, self.fringes
        m_vec = np.zeros((len(delta), 3))
        m_vec[:, 0] = 0.5 * (stats.eta_s - stats.eta_s_u)
        angle = delta + self.setups.phi
        sharp = np.stack([np.zeros_like(angle), -np.sin(angle), np.cos(angle)], -1)
        n_vec = (0.5 * contrast)[:, None] * sharp
        n_vec[contrast < DEGENERATE_PHASE_TOL] = 0.0
        return JMInstance(0.5 * (stats.eta_s + stats.eta_s_u), m_vec, n_vec)

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
        entry = (build_shifter(self.setups.phi) @ HADAMARD)[:, None, None]
        return 0.5 * dagger(entry) @ middle @ entry

    @cached_property
    def residuals(self) -> tuple:
        """Per row: the smallest eigenvalue of the four effects (``b - |v|`` of
        each ``b I + v . sigma``), ``max |sum E_ij - I|``, and the largest
        distance of a marginal from the realized pair."""
        effects, pair = self.effects, self.pair
        m0, m_vec, n_vec = pair.m0, pair.m_vec, pair.n_vec
        # a validated pair bounds |n| by 1/2 and |m| by min(m0, 1 - m0): bloch_to_matrix's check
        ports = build_effect(np.stack([n_vec, -n_vec], 1), 0.5)
        guesses = build_effect(np.stack([m_vec, -m_vec], 1), np.stack([m0, 1.0 - m0], 1))
        marginal = np.maximum(
            np.abs(effects.sum(axis=2) - ports).max(axis=(1, 2, 3)),
            np.abs(effects.sum(axis=1) - guesses).max(axis=(1, 2, 3)),
        )
        completeness = np.abs(effects.sum(axis=(1, 2)) - IDENTITY_2).max(axis=(1, 2))
        return effect_min_eigenvalue(effects).min(axis=(1, 2)), completeness, marginal


def evaluate_setup(setup: MZISetup, strategy: Strategy | None = None) -> tuple[Evaluation, int]:
    """The kernel on one setup, not a stack, measured by ``strategy`` (None
    for the optimal one), and the setup's row in it: the row it is bound to
    under this very strategy object, else row 0 of a fresh evaluation it is
    then bound to.  So a report row and its checks compute each quantity
    once; setups and strategies are frozen, so a binding stays valid."""
    kept = setup.__dict__.get("_evaluation")
    if kept is not None and kept[0] is strategy:  # a bound setup is one item
        return kept[1:]
    if not setup.one:
        raise DimensionMismatch(f"a stack of {len(setup.rho_d)} setups; use Evaluation for a stack")
    kept = (strategy, Evaluation(setup, strategy), 0)
    object.__setattr__(setup, "_evaluation", kept)
    return kept[1:]


def evaluated_rows(setups: MZISetup, strategies: Strategy | None, optimal=None) -> list[tuple]:
    """The rows of a stack of setups, not validated again, each with its
    strategy (None where the mask ``optimal`` marks a row, else the next row
    of ``strategies``) and bound to its row of one ``Evaluation`` of the
    stack, whose first read of a quantity computes every row's."""
    evaluation = Evaluation(setups, strategies, optimal)
    flags = [strategies is None] * len(setups.phi) if optimal is None else optimal
    drawn = iter(() if strategies is None else strategies.rows())
    rows = [(setup, None if flag else next(drawn)) for setup, flag in zip(setups.rows(), flags)]
    for k, (setup, strategy) in enumerate(rows):
        object.__setattr__(setup, "_evaluation", (strategy, evaluation, k))
    return rows


def strategy_stats(setup: MZISetup, strategy: Strategy | None) -> StrategyStats:
    """Probabilities of the detector landing in S / S-bar before and after U."""
    evaluation, k = evaluate_setup(setup, strategy)
    return evaluation.stats.row_list[k]


def optimal_strategy(setup: MZISetup) -> Strategy:
    """Best projective which-path strategy: eigenbasis of the guess operator,
    with S collecting the strictly positive eigenvalues (ties go to S-bar).
    The functions below take None for it and need not build it."""
    evaluation, k = evaluate_setup(setup)
    return evaluation.strategies[k]


def max_distinguishability(setup: MZISetup) -> float:
    """Optimal path distinguishability: trace norm of the guess operator."""
    evaluation, k = evaluate_setup(setup)
    return float(evaluation.report.max_distinguishability[k])


def joint_observable(setup: MZISetup, strategy: Strategy | None) -> np.ndarray:
    """Four-outcome observable (output port i, guess j) the setup realizes, as
    a (2, 2, 2, 2) array of 2x2 effects in the closed form of ``Evaluation``.
    Its marginals are the effects of the pair ``jointmeas.instance_from_setup``
    returns."""
    evaluation, k = evaluate_setup(setup, strategy)
    return evaluation.effects[k].copy()


def duality_report(setup: MZISetup, strategy: Strategy | None) -> DualityReport:
    """Evaluate every duality quantity for the given strategy, None for the optimal one.

    ``duality_lhs`` is computed in the visibility-free form
    ``D_S^2 + (1 - P^2) contrast^2``, which stays well-defined when the
    a priori visibility vanishes.
    """
    evaluation, k = evaluate_setup(setup, strategy)
    return evaluation.report.row_list[k]


def outcome_probabilities(setup: MZISetup, strategy: Strategy | None) -> np.ndarray:
    """Exact 2x2 outcome table ``P(i, j) = tr(rho E_ij)``."""
    effects = joint_observable(setup, strategy)
    probs = np.real(np.einsum("ijkl,lk->ij", effects, setup.rho.matrix))
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def sample_outcomes(probs: np.ndarray, n_shots: int, seed) -> np.ndarray:
    """``n_shots`` outcomes, an integer in [1, ``qubit.MAX_COUNT``], sampled from a 2x2
    table of probabilities summing to 1 within ``TABLE_SUM_TOL``, per seed (or Generator)."""
    n_shots, table = integer(n_shots, "n_shots", 1), np.asarray(real(probs, "outcome table"))
    if table.shape != (2, 2) or not (table.min() >= 0 and abs(table.sum() - 1) <= TABLE_SUM_TOL):
        raise InvalidArgument(f"outcome table {table.tolist()} is not a 2x2 probability table")
    return generator(seed).multinomial(n_shots, table.ravel()).reshape(2, 2)


def z_scores(probs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Binomial z-scores ``(f - p) / sqrt(p (1 - p) / shots)`` of a sample's
    counts against exact probabilities; an outcome of probability 0 or 1
    scores 0 at that frequency and inf at any other."""
    shots = counts.sum()
    freqs = counts / shots
    sigma = np.sqrt(np.maximum(probs * (1.0 - probs), 0.0) / shots)
    scores = (freqs - probs) / np.where(sigma > 0, sigma, 1.0)
    return np.where(sigma > 0, scores, np.where(freqs == probs, 0.0, np.inf))


def random_setups(d: int, rngs, pure: bool = False) -> MZISetup:
    """One setup drawn from each generator, validated as one stack: quanton
    matrices of Bloch-ball vectors, detector states (Hilbert-Schmidt, or Haar
    pure when ``pure`` is set), Haar coupling unitaries and uniform phases in
    [0, 2 pi).  Every Bloch vector is drawn first; then each stream draws the
    Gaussians of its detector state and coupling in one call, then its
    phase.  So each generator must be a stream of its own."""
    d = require_dim(d)
    rho = QubitState.from_bloch(bloch_vectors(rngs))
    size = 2 * d if pure else 2 * d * d
    normals, phi = np.empty((len(rngs), size + 2 * d * d)), np.empty(len(rngs))
    for row, rng in enumerate(rngs):
        rng.standard_normal(out=normals[row])
        phi[row] = rng.uniform(0.0, 2.0 * np.pi)
    parts = normals[:, :size].reshape((-1, 2, d) if pure else (-1, 2, d, d))
    rho_d = (pure_states if pure else hilbert_schmidt_states)(parts[:, 0] + 1j * parts[:, 1])
    coupling = normals[:, size:].reshape(-1, 2, d, d)
    return MZISetup(rho, rho_d, haar_unitary(coupling[:, 0] + 1j * coupling[:, 1]), phi)


def random_strategies(d: int, rngs) -> Strategy:
    """One strategy drawn from each generator, in turn: the Gaussians of a
    Haar basis in one call, then one fair coin per outcome for the subset."""
    d = require_dim(d)
    gaussian, coins = np.empty((len(rngs), 2, d, d)), np.empty((len(rngs), d))
    for row, rng in enumerate(rngs):
        rng.standard_normal(out=gaussian[row])
        rng.random(out=coins[row])
    return Strategy(haar_unitary(gaussian[:, 0] + 1j * gaussian[:, 1]), coins < 0.5)
