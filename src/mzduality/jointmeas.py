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

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, InvalidInstance, NotMeasurable
from .linalg import row_dots, row_norms
from .mzi import MZISetup, Strategy, evaluate_setup
from .qubit import IDENTITY_2, PAULI_STACK, Stacked, held

ORTHOGONALITY_TOL = 1e-10
NORM_SLACK = 1e-12
MEASURABLE_TOL = 1e-10
BALL_CHECK_TOL = 1e-10
# pure floating-point guard inside the grid oracle; must stay far below the
# margin band excluded from differential tests
GRID_GUARD = 1e-9
ORACLE_RESOLUTION = 0.01  # default grid step of the oracle
# side of the square blocks of y grid points the FULL oracle keeps or skips whole;
# 16 ran fastest of 8, 16, 24 and 32 on criterion 1's instances
BLOCK = 16
# instances per array pass of the batched oracle, which bounds its temporaries
CHUNK = 32
SIGNS = np.array([1.0, -1.0])  # (-1)^i for i = 0, 1


@dataclass(frozen=True, eq=False)
class JMInstance(Stacked):
    """Parameters (m0, m, n) of the observable pair, with m orthogonal to n.

    One pair, or a row of a stack, has ``m0`` a float and 3-vectors; N pairs
    stacked have ``m0`` of shape (N,) and vectors of shape (N, 3).  ``m`` and
    ``n`` are the lengths of ``m_vec`` and ``n_vec``, floats or (N,) arrays as
    ``m0`` is.  Raises InvalidInstance unless every pair is finite and
    orthogonal with ``0 <= m0 <= 1``, ``|n| <= 1/2`` and ``|m| <= min(m0, 1 - m0)``.
    """

    m0: float | np.ndarray
    m_vec: np.ndarray
    n_vec: np.ndarray
    m: float | np.ndarray = field(init=False)
    n: float | np.ndarray = field(init=False)

    def __post_init__(self):
        m0 = np.asarray(self.m0, dtype=float)
        m_vec = np.asarray(self.m_vec, dtype=float)
        n_vec = np.asarray(self.n_vec, dtype=float)
        if m0.ndim > 1 or m_vec.shape != m0.shape + (3,) or n_vec.shape != m_vec.shape:
            raise InvalidInstance("m_vec and n_vec must be 3-vectors, one pair per m0")
        if not (np.isfinite(m0).all() and np.isfinite(m_vec).all() and np.isfinite(n_vec).all()):
            raise InvalidInstance("m0, m_vec and n_vec must be finite")
        outside = np.abs(m0 - 0.5) > 0.5 + NORM_SLACK
        if outside.any():
            raise InvalidInstance(f"m0 = {float(m0[outside][0])} outside [0, 1]")
        for name, vec in (("m_vec", m_vec), ("n_vec", n_vec)):  # ahead of any product
            large = np.abs(vec) > 0.5 + NORM_SLACK
            if large.any():
                raise InvalidInstance(f"{name} component {vec[large][0]:.6g} exceeds 1/2")
        dot = np.abs((m_vec * n_vec).sum(axis=-1))
        if (dot > ORTHOGONALITY_TOL).any():
            raise InvalidInstance(f"m.n = {dot.max():.3e} is not 0")
        m, n = row_norms(m_vec), row_norms(n_vec)
        if (n > 0.5 + NORM_SLACK).any():
            raise InvalidInstance(f"|n| = {n.max():.6g} exceeds 1/2")
        cap = np.minimum(m0, 1.0 - m0)
        over = m > cap + NORM_SLACK
        if over.any():
            raise InvalidInstance(
                f"|m| = {m[over][0]:.6g} exceeds min(m0, 1-m0) = {cap[over][0]:.6g}"
            )
        vars(self).update(m0=held(m0), m_vec=m_vec, n_vec=n_vec, m=held(m), n=held(n))


@dataclass(frozen=True, eq=False)
class JointCandidate:
    """Candidate joint observable parametrized by a scalar x and a vector y,
    or a stack of them, one per instance of a stacked ``JMInstance``.

    ``effects[..., i, j, :, :]`` is the 2x2 matrix ``x_ij I + y_ij . sigma`` with

        x_ij = 1/4 + (-1)^j (2 m0 - 1)/4 + (-1)^(i+j) x/2,
        y_ij = [(-1)^j m + (-1)^i n + (-1)^(i+j) y] / 2,

    the most general form whose marginals reproduce the two observables.
    Candidates are allowed to be non-positive; positivity is what
    ``positivity_check`` decides.
    """

    x: float | np.ndarray
    y_vec: np.ndarray
    effects: np.ndarray


@dataclass(frozen=True)
class JMVerdict:
    measurable: bool
    margin: float
    witness: JointCandidate | None


def require_resolution(resolution: float) -> None:
    """Reject a grid step outside [1e-3, 0.05]; finer grids need arrays of many gigabytes."""
    if not (1e-3 <= resolution <= 0.05):
        raise InvalidArgument(f"resolution must lie in [0.001, 0.05], got {resolution}")


def in_boundary_band(margin, resolution: float):
    """Whether margins lie within three grid steps of the boundary, where the
    grid oracle may miss a thin feasible set and need not match the criterion."""
    return np.abs(margin) < 3.0 * resolution


def criterion_roots(m0, m):
    """The criterion's square roots ``s = sqrt(m0^2 - m^2)`` and
    ``t = sqrt((1-m0)^2 - m^2)``, elementwise, with rounding below 0 clamped."""
    s = np.sqrt(np.maximum(m0 * m0 - m * m, 0.0))
    t = np.sqrt(np.maximum((1.0 - m0) ** 2 - m * m, 0.0))
    return s, t


def jm_margin(inst: JMInstance):
    """Criterion slack ``s + t - 2n`` (see ``criterion_roots``), of one
    instance or elementwise over a stack."""
    s, t = criterion_roots(inst.m0, inst.m)
    return s + t - 2.0 * inst.n


def build_candidate(inst: JMInstance, x, y_vec) -> JointCandidate:
    """Assemble the four candidate effects for given free parameters (x, y),
    of one instance or of each in a stack, x a float or one per instance."""
    x, y = np.asarray(x, dtype=float), np.asarray(y_vec, dtype=float)
    if y.shape != inst.m_vec.shape:
        raise InvalidInstance("y_vec must be a 3-vector per instance")
    # (-1)^i down the rows and (-1)^j along the columns of the (2, 2) outcome grid
    s_i, s_j = SIGNS[:, None], SIGNS
    m0 = np.asarray(inst.m0)[..., None, None]
    weight = 0.25 + 0.25 * s_j * (2.0 * m0 - 1.0) + s_i * s_j * 0.5 * x[..., None, None]
    m_vec, n_vec, y_row = (v[..., None, None, :] for v in (inst.m_vec, inst.n_vec, y))
    s_i, s_j = s_i[..., None], s_j[..., None]
    vec = 0.5 * (s_j * m_vec + s_i * n_vec + s_i * s_j * y_row)
    # each entry sums at most two nonzero Pauli terms, so any order gives the same bits
    effects = weight[..., None, None] * IDENTITY_2 + np.einsum("...k,kab->...ab", vec, PAULI_STACK)
    return JointCandidate(x=held(x), y_vec=y, effects=effects)


def construct_joint(inst: JMInstance) -> JointCandidate:
    """Explicit joint observable for a measurable instance, or for each of a
    stack: x = 0 and y along n with length
    ``min(sqrt(m0^2 - m^2) - n, n + sqrt((1-m0)^2 - m^2))``.

    Raises NotMeasurable when the criterion fails for any instance.  For
    n = 0 the direction is immaterial and y = 0 is used.
    """
    margin = np.min(jm_margin(inst), initial=np.inf)
    if margin < -MEASURABLE_TOL:
        raise NotMeasurable(f"criterion margin {margin:.6g} is negative")
    s, t = criterion_roots(inst.m0, inst.m)
    along = np.minimum(s - inst.n, inst.n + t)[..., None] * inst.n_vec
    n = np.asarray(inst.n)[..., None]
    y_vec = np.divide(along, n, out=np.zeros_like(along), where=n >= 1e-14)
    return build_candidate(inst, 0.0, y_vec)


def positivity_check(cand: JointCandidate, inst: JMInstance, tol: float = BALL_CHECK_TOL):
    """Decide positivity of all four candidate effects via the equivalent system
    of four ball constraints on (x, y), elementwise over a stack."""
    m, n, y = inst.m_vec, inst.n_vec, cand.y_vec
    x, m0 = cand.x, inst.m0
    positive = (
        (row_norms(m + n + y) <= m0 + x + tol)
        & (row_norms(m - n + y) <= 1.0 - m0 - x + tol)
        & (row_norms(m - n - y) <= m0 - x + tol)
        & (row_norms(m + n - y) <= 1.0 - m0 + x + tol)
    )
    return bool(positive) if positive.ndim == 0 else positive


def jm_criterion(inst: JMInstance) -> JMVerdict:
    """Closed-form joint-measurability verdict of one instance, with an
    explicit witness when the answer is positive."""
    if np.ndim(inst.m0):
        raise InvalidInstance(f"jm_criterion reads one pair, got a stack of {len(inst.m0)}")
    margin = float(jm_margin(inst))
    measurable = margin >= -MEASURABLE_TOL
    witness = construct_joint(inst) if measurable else None
    return JMVerdict(measurable=measurable, margin=margin, witness=witness)


def _axis_grids(lengths, resolution: float) -> np.ndarray:
    """Grids along the n direction, anchored at +/- n, for instance lengths
    ``(m0, m, n)`` stacked as (N, 1) columns: an (N, G) array, NaN past each
    instance's reach, unsorted and with any duplicates kept.

    Anchoring matters: at near-tangent geometries the feasible set collapses
    onto a segment centred on one of those two points, thinner than any fixed
    grid step, and an unanchored grid would miss it.
    """
    _, m, n = lengths
    reach = m + n + 1.0
    k = np.floor(reach / resolution + 1e-9)
    steps = np.arange(-np.max(k), np.max(k) + 1)
    ticks = resolution * steps
    vals = np.concatenate([n + ticks, -n + ticks], axis=-1)
    inside = np.tile(np.abs(steps) <= k, 2) & (np.abs(vals) <= reach + 1e-12)
    return np.where(inside, vals, np.nan)


def _x_window(lengths, y1: np.ndarray, y2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds ``lo <= x <= hi`` that the four ball constraints leave for x at
    the y point with components y1 along m and y2 along n, for instance
    lengths ``(m0, m, n)``."""
    m0, m, n = lengths
    a1 = np.sqrt((m + y1) ** 2 + (n + y2) ** 2)
    a2 = np.sqrt((m + y1) ** 2 + (n - y2) ** 2)
    a3 = np.sqrt((m - y1) ** 2 + (n + y2) ** 2)
    a4 = np.sqrt((m - y1) ** 2 + (n - y2) ** 2)
    return np.maximum(a1 - m0, a4 - (1.0 - m0)), np.minimum(m0 - a3, (1.0 - m0) - a2)


def _blocks(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of sorted grid values, NaN past each row's end, as NaN-padded
    blocks of ``BLOCK`` points (N, blocks, BLOCK), with the centre and
    half-width of each block's span (NaN for a block of padding alone)."""
    padded = np.full((len(vals), -(-vals.shape[1] // BLOCK) * BLOCK), np.nan)
    padded[:, : vals.shape[1]] = vals
    blocks = padded.reshape(len(vals), -1, BLOCK)
    first, last = blocks[..., 0], np.fmax.reduce(blocks, axis=-1)
    return blocks, 0.5 * (first + last), 0.5 * (last - first)


def _block_scan(lengths, resolution: float, y1_vals: np.ndarray, y2_vals: np.ndarray) -> np.ndarray:
    """For instance lengths ``(m0, m, n)`` stacked as (N, 1) columns, whether
    each row's grid ``y1_vals[k] x y2_vals[k]`` (sorted rows, NaN past their
    ends) holds a witness, visiting only the blocks that the bound in
    ``feasibility_oracle`` cannot rule out."""
    y1_blocks, y1_mid, y1_half = _blocks(y1_vals)
    y2_blocks, y2_mid, y2_half = _blocks(y2_vals)
    columns = np.reshape(lengths, (3, -1, 1, 1))
    lo, hi = _x_window(columns, y1_mid[:, :, None], y2_mid[:, None, :])
    slack = 2.0 * np.hypot(y1_half[:, :, None], y2_half[:, None, :]) + 2.0 * GRID_GUARD + 1e-9
    owner, rows, cols = np.nonzero(lo - hi <= slack)
    m0, m, n = live = columns[:, owner]
    y1, y2 = y1_blocks[owner, rows][:, :, None], y2_blocks[owner, cols][:, None, :]
    # whether some grid x passes the four constraints at each y point (NaN never passes)
    k_x = np.floor(np.minimum(m0, 1.0 - m0) / resolution + 1e-9)
    reach = m + n + 1.0
    lo, hi = _x_window(live, y1, y2)
    k_lo = np.maximum(np.ceil((lo - GRID_GUARD) / resolution - 1e-9), -k_x)
    k_hi = np.minimum(np.floor((hi + GRID_GUARD) / resolution + 1e-9), k_x)
    hits = np.any((k_lo <= k_hi) & (y1 * y1 + y2**2 <= reach * reach + 1e-12), axis=(1, 2))
    found = np.zeros(len(y1_vals), dtype=bool)
    found[owner[hits]] = True
    return found


def feasibility_oracle(
    inst: JMInstance, resolution: float = ORACLE_RESOLUTION, mode: str = "full"
) -> bool | np.ndarray:
    """Brute-force grid decision of joint measurability, independent of the
    closed-form criterion.

    FULL mode scans the whole candidate family: x on a grid of step
    ``resolution`` in ``[-min(m0, 1-m0), min(m0, 1-m0)]`` and y on a grid in
    the m-n plane with ``|y| <= m + n + 1``.  REDUCED mode scans only x = 0
    with y parallel to n, the slice the feasibility problem provably reduces
    to.  Returns True iff some grid point satisfies all four ball constraints
    (up to a 1e-9 floating-point guard), at a step ``require_resolution`` accepts.

    The reduced slice is part of FULL mode's grid, so FULL mode starts from
    the REDUCED verdict and scans the rest of its grid only where REDUCED
    finds no witness.  That pass over y1 >= 0 visits the y grid in blocks of
    ``BLOCK`` x ``BLOCK`` points and skips a block when ``lo - hi`` at its
    centre exceeds ``2 h + 2 GRID_GUARD + 1e-9``, with h the half-diagonal of
    the block and ``lo <= x <= hi`` the window the four constraints leave for
    x.  The skip never changes the verdict: each constraint bounds x by the
    distance from y to a fixed point, so ``lo`` (a max of such distances minus
    constants) and ``hi`` (a min of constants minus such distances) are
    1-Lipschitz in y and ``lo - hi`` changes by at most 2 h inside the block,
    while a grid point passes only where ``lo - hi <= 2 GRID_GUARD + 2e-9
    resolution``.  The bound uses only the four ball constraints, never the
    closed-form criterion.  This picks one verdict of ``feasibility_batch``:
    a bool for one instance, a bool array for a stack.
    """
    if mode not in ("full", "reduced"):
        raise InvalidArgument(f"mode must be 'full' or 'reduced', got {mode!r}")
    full, reduced = feasibility_batch(np.reshape([inst.m0, inst.m, inst.n], (3, -1)), resolution)
    verdict = full if mode == "full" else reduced
    return verdict if np.ndim(inst.m0) else bool(verdict[0])


def feasibility_batch(lengths, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """The FULL and REDUCED verdicts of ``feasibility_oracle`` on instance
    lengths ``(m0, m, n)``, three arrays of shape (N,), one each per instance.

    Both modes run as array passes over NaN-padded grids, ``CHUNK`` instances
    at a time, on one build of the chunk's axis grids: REDUCED mode over the
    axis grids, then FULL mode's pass over y1 >= 0 over the instances of the
    chunk that REDUCED leaves open.  Chunks are filled in order of reach
    ``m + n``, since the widest instance of a chunk sizes its grids, and the
    verdicts are written back in input order.
    """
    require_resolution(resolution)
    lengths = np.array(lengths, dtype=float)
    full = np.zeros(lengths.shape[1], dtype=bool)
    reduced = np.zeros_like(full)
    order = np.argsort(lengths[1] + lengths[2], kind="stable")
    for start in range(0, len(full), CHUNK):
        rows = order[start : start + CHUNK]
        m0, m, n = part = lengths[:, rows, None]
        axis_vals = _axis_grids(part, resolution)
        # with x = 0 and y parallel to n the four constraints coincide pairwise
        a1 = np.sqrt(m * m + (n + axis_vals) ** 2)
        a2 = np.sqrt(m * m + (n - axis_vals) ** 2)
        reduced[rows] = np.any((a1 <= m0 + GRID_GUARD) & (a2 <= 1.0 - m0 + GRID_GUARD), axis=1)
        # Each of the four constraints bounds the length of y plus a fixed
        # vector by an affine function of x, so the feasible set of
        # (y1, y2, x) is convex; it is also symmetric under
        # (y1, x) -> (-y1, -x), which swaps the constraints in pairs.  So a
        # witness at (y1, y2, x) and its mirror image have a witness
        # (0, y2, 0) midway: REDUCED settles every feasible instance, up to
        # the rounding of the grid, and FULL starts from its verdict.  The
        # pass over y1 >= 0 is kept all the same, as the brute-force search
        # that does not lean on this argument; by the symmetry and the
        # symmetric grids its half y1 >= 0 suffices.
        found = reduced[rows]
        open_ = np.flatnonzero(~found)
        if open_.size:
            rest = part[:, open_]
            k1 = np.floor((rest[1] + rest[2] + 1.0) / resolution + 1e-9)
            steps = np.arange(0, np.max(k1) + 1)
            along_m = np.where(steps <= k1, resolution * steps, np.nan)
            # each row's axis grid sorted, NaN last
            axis_rows = np.sort(axis_vals[open_], axis=1)
            found[open_] = _block_scan(rest, resolution, along_m, axis_rows)
        full[rows] = found
    return full, reduced


def instance_from_setup(setup: MZISetup, strategy: Strategy | None) -> JMInstance:
    """Observable pair realized by a setup and strategy, None for the optimal
    one: ``n`` is the vector of the output ports, a smeared interference
    observable, and ``m0`` and ``m`` are the bias and vector of the guess, a
    smeared sigma_x.  The setup's row of ``Evaluation.pair``, checked once per stack."""
    evaluation, k = evaluate_setup(setup, strategy)
    return evaluation.pair[k]


def draw_instances(rngs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random valid ``(m0, m_vec, n_vec)``, one from each generator, stacked:
    m0 uniform on [0, 1], directions a random orthogonal pair.  Half the
    draws push the lengths toward their caps so that infeasible pairs appear
    in force, not just in the tail.  Each stream draws its four uniforms,
    then the Gaussians of both directions in one call, then, once all have,
    a new second direction for as long as the pair is too close to parallel;
    so each generator must be a stream of its own."""
    shaped, normals = np.empty((len(rngs), 3)), np.empty((len(rngs), 6))
    for row, rng in enumerate(rngs):
        m0, sharp, m_draw, n_draw = rng.random(4).tolist()
        # Python-float powers: numpy's vectorised power can differ in the last bit
        power = 0.25 if sharp < 0.5 else 1.0
        shaped[row] = m0, m_draw**power, n_draw**power
        rng.standard_normal(out=normals[row])
    e1 = normals[:, :3] / row_norms(normals[:, :3])[:, None]
    raw = normals[:, 3:]
    e2 = raw - row_dots(raw, e1)[:, None] * e1
    lengths = row_norms(e2)
    for row in (lengths < 1e-9).nonzero()[0]:
        while lengths[row] < 1e-9:
            raw = rngs[row].standard_normal(3)
            e2[row] = raw - row_dots(raw, e1[row]) * e1[row]
            lengths[row] = row_norms(e2[row])
    m0 = shaped[:, 0]
    m_len = shaped[:, 1] * np.minimum(m0, 1.0 - m0)
    return m0, m_len[:, None] * e1, 0.5 * shaped[:, 2, None] * (e2 / lengths[:, None])


def random_instance(seed) -> JMInstance:
    """One ``draw_instances`` draw from one stream, as a validated instance."""
    return JMInstance(*(v[0] for v in draw_instances([np.random.default_rng(seed)])))
