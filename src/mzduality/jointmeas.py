"""Joint measurability of an orthogonal pair of binary unsharp qubit observables.

The pair is ``{I/2 + n.sigma, I/2 - n.sigma}`` and ``{m0 I + m.sigma,
(1-m0) I - m.sigma}`` with ``n . m = 0``.  A joint observable exists iff

    sqrt(m0^2 - m^2) + sqrt((1-m0)^2 - m^2) >= 2 n,

and on the feasible side an explicit four-effect witness can be written down.
``feasibility_oracle`` re-decides the same question by exhaustive grid search
over the free parameters of the most general candidate joint observable, so
criterion and construction can be differentially tested against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, InvalidInstance, NotMeasurable
from .linalg import hermitian_eig
from .mzi import MZISetup, Strategy, interference_povm, which_path_povm
from .qubit import IDENTITY_2, PAULI, as_generator

ORTHOGONALITY_TOL = 1e-10
NORM_SLACK = 1e-12
MEASURABLE_TOL = 1e-10
BALL_CHECK_TOL = 1e-10
# pure floating-point guard inside the grid oracle; must stay far below the
# margin band excluded from differential tests
GRID_GUARD = 1e-9
# side of the square blocks of y grid points the FULL oracle keeps or skips whole
BLOCK = 8


@dataclass(frozen=True)
class JMInstance:
    """Parameters (m0, m, n) of the observable pair, with m orthogonal to n."""

    m0: float
    m_vec: np.ndarray
    n_vec: np.ndarray

    def __post_init__(self):
        m_vec = np.asarray(self.m_vec, dtype=float)
        n_vec = np.asarray(self.n_vec, dtype=float)
        if m_vec.shape != (3,) or n_vec.shape != (3,):
            raise InvalidInstance("m_vec and n_vec must be 3-vectors")
        if not (np.isfinite(self.m0) and np.isfinite(m_vec).all() and np.isfinite(n_vec).all()):
            raise InvalidInstance("m0, m_vec and n_vec must be finite")
        if not (-NORM_SLACK <= self.m0 <= 1.0 + NORM_SLACK):
            raise InvalidInstance(f"m0 = {self.m0} outside [0, 1]")
        if abs(float(m_vec @ n_vec)) > ORTHOGONALITY_TOL:
            raise InvalidInstance(f"m.n = {float(m_vec @ n_vec):.3e} is not 0")
        if np.linalg.norm(n_vec) > 0.5 + NORM_SLACK:
            raise InvalidInstance(f"|n| = {np.linalg.norm(n_vec):.6g} exceeds 1/2")
        cap = min(self.m0, 1.0 - self.m0)
        if np.linalg.norm(m_vec) > cap + NORM_SLACK:
            raise InvalidInstance(f"|m| = {np.linalg.norm(m_vec):.6g} exceeds min(m0, 1-m0)")
        object.__setattr__(self, "m_vec", m_vec)
        object.__setattr__(self, "n_vec", n_vec)

    @property
    def m(self) -> float:
        return float(np.linalg.norm(self.m_vec))

    @property
    def n(self) -> float:
        return float(np.linalg.norm(self.n_vec))


@dataclass(frozen=True)
class JointCandidate:
    """Candidate joint observable parametrized by a scalar x and a vector y.

    ``effects[i, j]`` is the 2x2 matrix ``x_ij I + y_ij . sigma`` with

        x_ij = 1/4 + (-1)^j (2 m0 - 1)/4 + (-1)^(i+j) x/2,
        y_ij = [(-1)^j m + (-1)^i n + (-1)^(i+j) y] / 2,

    the most general form whose marginals reproduce the two observables.
    Candidates are allowed to be non-positive; positivity is what
    ``positivity_check`` decides.
    """

    x: float
    y_vec: np.ndarray
    effects: np.ndarray


@dataclass(frozen=True)
class JMVerdict:
    measurable: bool
    margin: float
    witness: JointCandidate | None


def jm_margin(inst: JMInstance) -> float:
    """Criterion slack ``sqrt(m0^2 - m^2) + sqrt((1-m0)^2 - m^2) - 2n``."""
    m0, m, n = inst.m0, inst.m, inst.n
    s = np.sqrt(max(m0 * m0 - m * m, 0.0))
    t = np.sqrt(max((1.0 - m0) ** 2 - m * m, 0.0))
    return float(s + t - 2.0 * n)


def build_candidate(inst: JMInstance, x: float, y_vec) -> JointCandidate:
    """Assemble the four candidate effects for given free parameters (x, y)."""
    y = np.asarray(y_vec, dtype=float)
    if y.shape != (3,):
        raise InvalidInstance("y_vec must be a 3-vector")
    effects = np.zeros((2, 2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            si = -1.0 if i else 1.0
            sj = -1.0 if j else 1.0
            weight = 0.25 + 0.25 * sj * (2.0 * inst.m0 - 1.0) + si * sj * 0.5 * x
            vec = 0.5 * (sj * inst.m_vec + si * inst.n_vec + si * sj * y)
            effects[i, j] = weight * IDENTITY_2 + sum(v * s for v, s in zip(vec, PAULI))
    return JointCandidate(x=float(x), y_vec=y, effects=effects)


def construct_joint(inst: JMInstance) -> JointCandidate:
    """Explicit joint observable for a measurable instance: x = 0 and y along n
    with length ``min(sqrt(m0^2 - m^2) - n, n + sqrt((1-m0)^2 - m^2))``.

    Raises NotMeasurable when the criterion fails.  For n = 0 the direction is
    immaterial and y = 0 is used.
    """
    margin = jm_margin(inst)
    if margin < -MEASURABLE_TOL:
        raise NotMeasurable(f"criterion margin {margin:.6g} is negative")
    m0, m, n = inst.m0, inst.m, inst.n
    s = np.sqrt(max(m0 * m0 - m * m, 0.0))
    t = np.sqrt(max((1.0 - m0) ** 2 - m * m, 0.0))
    if n < 1e-14:
        y_vec = np.zeros(3)
    else:
        y_vec = min(s - n, n + t) * inst.n_vec / n
    return build_candidate(inst, 0.0, y_vec)


def positivity_check(cand: JointCandidate, inst: JMInstance, tol: float = BALL_CHECK_TOL) -> bool:
    """Decide positivity of all four candidate effects via the equivalent system
    of four ball constraints on (x, y)."""
    m, n, y = inst.m_vec, inst.n_vec, cand.y_vec
    x, m0 = cand.x, inst.m0
    return bool(
        np.linalg.norm(m + n + y) <= m0 + x + tol
        and np.linalg.norm(m - n + y) <= 1.0 - m0 - x + tol
        and np.linalg.norm(m - n - y) <= m0 - x + tol
        and np.linalg.norm(m + n - y) <= 1.0 - m0 + x + tol
    )


def jm_criterion(inst: JMInstance) -> JMVerdict:
    """Closed-form joint-measurability verdict with an explicit witness when
    the answer is positive."""
    margin = jm_margin(inst)
    measurable = margin >= -MEASURABLE_TOL
    witness = construct_joint(inst) if measurable else None
    return JMVerdict(measurable=measurable, margin=margin, witness=witness)


def min_effect_eigenvalue(effects: np.ndarray) -> float:
    """Smallest eigenvalue over four effects stacked as a (2, 2, 2, 2) array."""
    return min(
        float(hermitian_eig(effects[i, j]).eigenvalues[0]) for i in range(2) for j in range(2)
    )


def _axis_grid(inst: JMInstance, resolution: float) -> np.ndarray:
    """1-D grid along the n direction, anchored at +/- n.

    Anchoring matters: at near-tangent geometries the feasible set collapses
    onto a segment centred on one of those two points, thinner than any fixed
    grid step, and an unanchored grid would miss it.
    """
    reach = inst.m + inst.n + 1.0
    k = int(np.floor(reach / resolution + 1e-9))
    ticks = resolution * np.arange(-k, k + 1)
    vals = np.concatenate([inst.n + ticks, -inst.n + ticks])
    vals = vals[np.abs(vals) <= reach + 1e-12]
    return np.unique(vals)


def _x_window(inst: JMInstance, y1: np.ndarray, y2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds ``lo <= x <= hi`` that the four ball constraints leave for x at
    the y point with components y1 along m and y2 along n."""
    m0, m, n = inst.m0, inst.m, inst.n
    a1 = np.sqrt((m + y1) ** 2 + (n + y2) ** 2)
    a2 = np.sqrt((m + y1) ** 2 + (n - y2) ** 2)
    a3 = np.sqrt((m - y1) ** 2 + (n + y2) ** 2)
    a4 = np.sqrt((m - y1) ** 2 + (n - y2) ** 2)
    return np.maximum(a1 - m0, a4 - (1.0 - m0)), np.minimum(m0 - a3, (1.0 - m0) - a2)


def _grid_feasible(inst: JMInstance, resolution: float, y1: np.ndarray, y2: np.ndarray) -> bool:
    """Whether some point of the FULL grid, with y components broadcast from
    y1 and y2, passes the four ball constraints (NaN entries never pass)."""
    reach = inst.m + inst.n + 1.0
    k_x = int(np.floor(min(inst.m0, 1.0 - inst.m0) / resolution + 1e-9))
    in_reach = y1 * y1 + y2**2 <= reach * reach + 1e-12
    lo, hi = _x_window(inst, y1, y2)
    k_lo = np.maximum(np.ceil((lo - GRID_GUARD) / resolution - 1e-9), -k_x)
    k_hi = np.minimum(np.floor((hi + GRID_GUARD) / resolution + 1e-9), k_x)
    return bool(np.any((k_lo <= k_hi) & in_reach))


def _blocks(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted grid values as NaN-padded blocks of ``BLOCK`` points, with the
    centre and half-width of each block's span."""
    padded = np.full(-(-vals.size // BLOCK) * BLOCK, np.nan)
    padded[: vals.size] = vals
    blocks = padded.reshape(-1, BLOCK)
    first, last = blocks[:, 0], np.nanmax(blocks, axis=1)
    return blocks, 0.5 * (first + last), 0.5 * (last - first)


def _block_scan(
    inst: JMInstance, resolution: float, y1_vals: np.ndarray, y2_vals: np.ndarray
) -> bool:
    """``_grid_feasible`` on the grid ``y1_vals x y2_vals``, visiting only the
    blocks that the bound in ``feasibility_oracle`` cannot rule out."""
    y1_blocks, y1_mid, y1_half = _blocks(y1_vals)
    y2_blocks, y2_mid, y2_half = _blocks(y2_vals)
    lo, hi = _x_window(inst, y1_mid[:, None], y2_mid[None, :])
    slack = 2.0 * np.hypot(y1_half[:, None], y2_half[None, :]) + 2.0 * GRID_GUARD + 1e-9
    rows, cols = np.nonzero(lo - hi <= slack)
    y1_live, y2_live = y1_blocks[rows][:, :, None], y2_blocks[cols][:, None, :]
    return _grid_feasible(inst, resolution, y1_live, y2_live)


def feasibility_oracle(inst: JMInstance, resolution: float = 0.01, mode: str = "full") -> bool:
    """Brute-force grid decision of joint measurability, independent of the
    closed-form criterion.

    FULL mode scans the whole candidate family: x on a grid of step
    ``resolution`` in ``[-min(m0, 1-m0), min(m0, 1-m0)]`` and y on a grid in
    the m-n plane with ``|y| <= m + n + 1``.  REDUCED mode scans only x = 0
    with y parallel to n, the slice the feasibility problem provably reduces
    to.  Returns True iff some grid point satisfies all four ball constraints
    (up to a 1e-9 floating-point guard).  ``resolution`` must lie in
    [1e-3, 0.05]; finer grids need arrays of many gigabytes.

    FULL mode's pass over y1 >= 0 visits the y grid in blocks of 8 x 8
    points and skips a block when ``lo - hi`` at its centre exceeds
    ``2 h + 2 GRID_GUARD + 1e-9``, with h the half-diagonal of the block and
    ``lo <= x <= hi`` the window the four constraints leave for x.  The skip
    never changes the verdict: each constraint bounds x by the distance from
    y to a fixed point, so ``lo`` (a max of such distances minus constants)
    and ``hi`` (a min of constants minus such distances) are 1-Lipschitz in
    y and ``lo - hi`` changes by at most 2 h inside the block, while a grid
    point passes only where ``lo - hi <= 2 GRID_GUARD + 2e-9 resolution``.
    The bound uses only the four ball constraints, never the closed-form
    criterion.
    """
    if not (1e-3 <= resolution <= 0.05):
        raise InvalidArgument(f"resolution must lie in [0.001, 0.05], got {resolution}")
    if mode not in ("full", "reduced"):
        raise InvalidArgument(f"mode must be 'full' or 'reduced', got {mode!r}")

    m0, m, n = inst.m0, inst.m, inst.n
    axis_vals = _axis_grid(inst, resolution)

    if mode == "reduced":
        # with x = 0 and y parallel to n the four constraints coincide pairwise
        a1 = np.sqrt(m * m + (n + axis_vals) ** 2)
        a2 = np.sqrt(m * m + (n - axis_vals) ** 2)
        ok = (a1 <= m0 + GRID_GUARD) & (a2 <= 1.0 - m0 + GRID_GUARD)
        return bool(np.any(ok))

    k1 = int(np.floor((m + n + 1.0) / resolution + 1e-9))
    # a point at (-y1, y2, -x) satisfies the system iff (y1, y2, x) does and
    # both grids are symmetric, so the y1 >= 0 half decides the search
    along_m = resolution * np.arange(0, k1 + 1)
    # the slice through y1 = 0 always contains a witness when one exists away
    # from tangency, so feasible instances resolve on the first pass
    if _grid_feasible(inst, resolution, np.zeros((1, 1)), axis_vals[None, :]):
        return True
    return _block_scan(inst, resolution, along_m, axis_vals)


def instance_from_setup(setup: MZISetup, strategy: Strategy) -> JMInstance:
    """Observable pair realized by a setup and strategy: ``n`` is the vector
    of ``interference_povm``, and ``m0`` and ``m`` are the bias and vector of
    ``which_path_povm``."""
    guess = which_path_povm(setup, strategy)
    return JMInstance(m0=guess.bias, m_vec=guess.vector, n_vec=interference_povm(setup).vector)


def random_instance(seed) -> JMInstance:
    """Random valid instance: m0 uniform on [0, 1], directions a random
    orthogonal pair.  Half the draws push the lengths toward their caps so
    that infeasible pairs appear in force, not just in the tail."""
    rng = as_generator(seed)
    m0 = float(rng.random())
    sharp = rng.random() < 0.5
    power = 0.25 if sharp else 1.0
    m_len = float(rng.random() ** power) * min(m0, 1.0 - m0)
    n_len = 0.5 * float(rng.random() ** power)
    e1 = rng.standard_normal(3)
    e1 /= np.linalg.norm(e1)
    raw = rng.standard_normal(3)
    e2 = raw - (raw @ e1) * e1
    while np.linalg.norm(e2) < 1e-9:
        raw = rng.standard_normal(3)
        e2 = raw - (raw @ e1) * e1
    e2 /= np.linalg.norm(e2)
    return JMInstance(m0=m0, m_vec=m_len * e1, n_vec=n_len * e2)
