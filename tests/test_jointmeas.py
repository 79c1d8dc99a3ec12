import dataclasses
import re
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mzduality.errors import InvalidInstance, MZDualityError, NotMeasurable
from mzduality import acceptance, cli, jointmeas, mzi
from mzduality.jointmeas import (
    GRID_GUARD,
    MEASURABLE_TOL,
    JMInstance,
    build_candidate,
    construct_joint,
    feasibility_oracle,
    instance_from_setup,
    jm_criterion,
    jm_margin,
    positivity_check,
    random_instance,
)
from mzduality.qubit import (
    IDENTITY_2,
    PAULI,
    QubitState,
    effect_min_eigenvalue,
    random_detector_state,
    random_qubit_state,
    random_unitary,
    streams,
    unchecked,
)
from mzduality.scenarios import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


# near-tangent geometries whose feasible sets are thinner than the grid step
TANGENT_CASES = ((0.3, 0.29996, 0.2950001), (0.6, 0.399992, 0.015))


def axis_instance(m0, m, n):
    return JMInstance(m0=m0, m_vec=np.array([m, 0.0, 0.0]), n_vec=np.array([0.0, 0.0, n]))


def reference_axis_grid(inst, resolution):
    """The oracle's grid along n, as it was built one instance at a time."""
    reach = inst.m + inst.n + 1.0
    k = int(np.floor(reach / resolution + 1e-9))
    ticks = resolution * np.arange(-k, k + 1)
    vals = np.concatenate([inst.n + ticks, -inst.n + ticks])
    vals = vals[np.abs(vals) <= reach + 1e-12]
    return np.unique(vals)


def reference_scan(inst, resolution, y1):
    """The FULL oracle's per-point test on the whole grid ``y1 x axis grid``,
    as the oracle ran it before it skipped blocks."""
    m0, m, n = inst.m0, inst.m, inst.n
    axis_vals = reference_axis_grid(inst, resolution)
    sq_plus = (n + axis_vals) ** 2
    sq_minus = (n - axis_vals) ** 2
    reach = m + n + 1.0
    k_x = int(np.floor(min(m0, 1.0 - m0) / resolution + 1e-9))
    y1 = y1[:, None]
    in_reach = y1 * y1 + axis_vals**2 <= reach * reach + 1e-12
    a1 = np.sqrt((m + y1) ** 2 + sq_plus)
    a2 = np.sqrt((m + y1) ** 2 + sq_minus)
    a3 = np.sqrt((m - y1) ** 2 + sq_plus)
    a4 = np.sqrt((m - y1) ** 2 + sq_minus)
    lo = np.maximum(a1 - m0, a4 - (1.0 - m0)) - GRID_GUARD
    hi = np.minimum(m0 - a3, (1.0 - m0) - a2) + GRID_GUARD
    k_lo = np.maximum(np.ceil(lo / resolution - 1e-9), -k_x)
    k_hi = np.minimum(np.floor(hi / resolution + 1e-9), k_x)
    return bool(np.any((k_lo <= k_hi) & in_reach))


def reduced_slice_hit(inst, resolution):
    """Whether the REDUCED slice (x = 0, y along n) of the grid holds a witness."""
    axis_vals = reference_axis_grid(inst, resolution)
    slice_ok = (np.sqrt(inst.m**2 + (inst.n + axis_vals) ** 2) <= inst.m0 + GRID_GUARD) & (
        np.sqrt(inst.m**2 + (inst.n - axis_vals) ** 2) <= 1.0 - inst.m0 + GRID_GUARD
    )
    return bool(np.any(slice_ok))


def parent_block_scan(inst, resolution, y1_vals, y2_vals):
    """The FULL oracle's pass over y1 >= 0 as it ran one instance at a time,
    with its block skip rule, copied from before it ran on stacks."""

    def window(y1, y2):
        m0, m, n = inst.m0, inst.m, inst.n
        a1 = np.sqrt((m + y1) ** 2 + (n + y2) ** 2)
        a2 = np.sqrt((m + y1) ** 2 + (n - y2) ** 2)
        a3 = np.sqrt((m - y1) ** 2 + (n + y2) ** 2)
        a4 = np.sqrt((m - y1) ** 2 + (n - y2) ** 2)
        return np.maximum(a1 - m0, a4 - (1.0 - m0)), np.minimum(m0 - a3, (1.0 - m0) - a2)

    def blocks(vals):
        padded = np.full(-(-vals.size // 8) * 8, np.nan)
        padded[: vals.size] = vals
        rows = padded.reshape(-1, 8)
        first, last = rows[:, 0], np.nanmax(rows, axis=1)
        return rows, 0.5 * (first + last), 0.5 * (last - first)

    y1_blocks, y1_mid, y1_half = blocks(y1_vals)
    y2_blocks, y2_mid, y2_half = blocks(y2_vals)
    lo, hi = window(y1_mid[:, None], y2_mid[None, :])
    slack = 2.0 * np.hypot(y1_half[:, None], y2_half[None, :]) + 2.0 * GRID_GUARD + 1e-9
    rows, cols = np.nonzero(lo - hi <= slack)
    y1, y2 = y1_blocks[rows][:, :, None], y2_blocks[cols][:, None, :]
    reach = inst.m + inst.n + 1.0
    k_x = np.floor(min(inst.m0, 1.0 - inst.m0) / resolution + 1e-9)
    lo, hi = window(y1, y2)
    k_lo = np.maximum(np.ceil((lo - GRID_GUARD) / resolution - 1e-9), -k_x)
    k_hi = np.minimum(np.floor((hi + GRID_GUARD) / resolution + 1e-9), k_x)
    return bool(np.any((k_lo <= k_hi) & (y1 * y1 + y2**2 <= reach * reach + 1e-12)))


def stack_bytes(values):
    """The bytes of values stacked as one float or complex array, so that
    equal bytes mean bit-equal values, signed zeros included."""
    return np.array(values).tobytes()


def padded_rows(rows):
    """Rows of different lengths as one array, NaN past each row's end."""
    out = np.full((len(rows), max(len(row) for row in rows)), np.nan)
    for k, row in enumerate(rows):
        out[k, : len(row)] = row
    return out


@st.composite
def oracle_instances(draw, resolution):
    """Random instances, instances within three grid steps of the criterion
    boundary, and the near-tangent cases."""
    kind = draw(st.sampled_from(("random", "band", "tangent")))
    if kind == "random":
        return random_instance(draw(st.integers(0, 2**32 - 1)))
    if kind == "tangent":
        return axis_instance(*draw(st.sampled_from(TANGENT_CASES)))
    m0 = draw(st.floats(0.0, 1.0))
    m = draw(st.floats(0.0, 1.0)) * min(m0, 1.0 - m0)
    s = np.sqrt(m0 * m0 - m * m)
    t = np.sqrt((1.0 - m0) ** 2 - m * m)
    margin = draw(st.floats(-3.0 * resolution, 3.0 * resolution))
    inst = axis_instance(m0, m, float(np.clip(0.5 * (s + t - margin), 0.0, 0.5)))
    assume(abs(jm_margin(inst)) < 3.0 * resolution)
    return inst


RESOLUTIONS = (0.005, 0.01, 0.02, 0.05)


@st.composite
def oracle_cases(draw):
    """(instance, resolution)."""
    resolution = draw(st.sampled_from(RESOLUTIONS))
    return draw(oracle_instances(resolution)), resolution


@st.composite
def oracle_batches(draw):
    """(instances, resolution): up to 40 instances of one resolution."""
    resolution = draw(st.sampled_from(RESOLUTIONS))
    return draw(st.lists(oracle_instances(resolution), min_size=1, max_size=40)), resolution


class TestInstanceValidation:
    def test_rejects_non_orthogonal(self):
        with pytest.raises(InvalidInstance):
            JMInstance(m0=0.5, m_vec=np.array([0.2, 0, 0]), n_vec=np.array([0.2, 0.1, 0]))

    def test_rejects_long_vectors(self):
        with pytest.raises(InvalidInstance):
            axis_instance(0.5, 0.2, 0.6)
        with pytest.raises(InvalidInstance):
            axis_instance(0.3, 0.4, 0.1)

    def test_rejects_bad_bias(self):
        with pytest.raises(InvalidInstance):
            axis_instance(1.2, 0.0, 0.1)

    @pytest.mark.parametrize("value", [1e300, -1e300, 0.6])
    @pytest.mark.parametrize("field", ["m_vec", "n_vec"])
    def test_names_a_component_beyond_one_half_as_given(self, field, value):
        vectors = {"m_vec": np.array([0.1, 0.0, 0.0]), "n_vec": np.array([0.0, 0.0, 0.1])}
        vectors[field][1] = value
        message = re.escape(f"{field} component {value:.6g} exceeds 1/2")
        with pytest.raises(InvalidInstance, match=f"^{message}$"):
            JMInstance(0.5, **vectors)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["m0", "m_vec", "n_vec"])
    def test_rejects_non_finite(self, field, bad):
        fields = {"m0": 0.5, "m_vec": np.array([0.1, 0.0, 0.0]), "n_vec": np.array([0.0, 0.0, 0.1])}
        fields[field] = bad if field == "m0" else np.array([0.0, bad, 0.0])
        with pytest.raises(InvalidInstance):
            JMInstance(**fields)


class TestCriterion:
    def test_two_sharp_observables(self):
        verdict = jm_criterion(axis_instance(0.5, 0.5, 0.5))
        assert not verdict.measurable
        assert verdict.margin == pytest.approx(-1.0, abs=1e-14)
        assert verdict.witness is None

    def test_trivial_guess_observable(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            m0 = float(rng.random())
            n = 0.5 * float(rng.random())
            verdict = jm_criterion(axis_instance(m0, 0.0, n))
            assert verdict.measurable
            assert verdict.margin == pytest.approx(1.0 - 2 * n, abs=1e-12)

    def test_unbiased_boundary(self):
        # for m0 = 1/2 the criterion reduces to m^2 + n^2 <= 1/4
        verdict = jm_criterion(axis_instance(0.5, 0.3, 0.4))
        assert verdict.measurable
        assert verdict.margin == pytest.approx(0.0, abs=1e-14)
        rng = np.random.default_rng(62)
        for _ in range(500):
            m = 0.5 * float(rng.random())
            n = 0.5 * float(rng.random())
            inside_disk = m * m + n * n <= 0.25
            assert (jm_margin(axis_instance(0.5, m, n)) >= 0) == inside_disk

    def test_monotone_in_sharpness(self):
        rng = np.random.default_rng(63)
        for _ in range(300):
            inst = random_instance(rng)
            if jm_margin(inst) < 0:
                continue
            shrunk = JMInstance(
                m0=inst.m0,
                m_vec=inst.m_vec * rng.random(),
                n_vec=inst.n_vec * rng.random(),
            )
            assert jm_margin(shrunk) >= -1e-15

    def test_rotation_invariance(self):
        rng = np.random.default_rng(64)
        for _ in range(200):
            inst = random_instance(rng)
            g = rng.standard_normal((3, 3))
            q, r = np.linalg.qr(g)
            q = q * np.sign(np.diag(r))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            rotated = JMInstance(m0=inst.m0, m_vec=q @ inst.m_vec, n_vec=q @ inst.n_vec)
            assert jm_margin(rotated) == pytest.approx(jm_margin(inst), abs=1e-12)


class TestConstruction:
    def test_trivial_coin_product(self):
        inst = axis_instance(0.3, 0.0, 0.0)
        candidate = construct_joint(inst)
        assert candidate.x == 0.0
        np.testing.assert_allclose(candidate.y_vec, 0.0)
        for i in range(2):
            for j in range(2):
                weight = (0.3 if j == 0 else 0.7) * 0.5
                np.testing.assert_allclose(candidate.effects[i, j], weight * np.eye(2), atol=1e-15)

    def test_marginals_are_exact(self):
        rng = np.random.default_rng(65)
        for _ in range(200):
            inst = random_instance(rng)
            if jm_margin(inst) < 0:
                continue
            candidate = construct_joint(inst)
            port_marginals = candidate.effects.sum(axis=1)
            guess_marginals = candidate.effects.sum(axis=0)
            pauli = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
            n_mat = sum(v * s for v, s in zip(inst.n_vec, pauli))
            m_mat = sum(v * s for v, s in zip(inst.m_vec, pauli))
            np.testing.assert_allclose(port_marginals[0], np.eye(2) / 2 + n_mat, atol=1e-12)
            np.testing.assert_allclose(port_marginals[1], np.eye(2) / 2 - n_mat, atol=1e-12)
            np.testing.assert_allclose(guess_marginals[0], inst.m0 * np.eye(2) + m_mat, atol=1e-12)
            np.testing.assert_allclose(
                guess_marginals[1], (1 - inst.m0) * np.eye(2) - m_mat, atol=1e-12
            )

    def test_boundary_saturates_an_effect(self):
        rng = np.random.default_rng(66)
        for _ in range(50):
            m0 = float(rng.uniform(0.1, 0.9))
            m = float(rng.random()) * 0.9 * min(m0, 1 - m0)
            s = np.sqrt(m0 * m0 - m * m)
            t = np.sqrt((1 - m0) ** 2 - m * m)
            inst = axis_instance(m0, m, 0.5 * (s + t))
            low = effect_min_eigenvalue(construct_joint(inst).effects).min()
            assert abs(low) <= 1e-8
            assert low >= -1e-10

    def test_measurable_instances_pass_positivity(self):
        rng = np.random.default_rng(67)
        for _ in range(300):
            inst = random_instance(rng)
            if jm_margin(inst) < 0:
                continue
            candidate = construct_joint(inst)
            assert positivity_check(candidate, inst)
            assert effect_min_eigenvalue(candidate.effects).min() >= -1e-10

    def test_not_measurable_raises(self):
        with pytest.raises(NotMeasurable):
            construct_joint(axis_instance(0.5, 0.5, 0.5))


class TestPositivityCheck:
    def test_shifted_weight_violates(self):
        inst = axis_instance(0.5, 0.2, 0.2)
        candidate = build_candidate(inst, x=1.0, y_vec=np.zeros(3))
        assert not positivity_check(candidate, inst)

    def test_agrees_with_eigenvalue_check(self):
        rng = np.random.default_rng(68)
        agreements = 0
        for _ in range(10_000):
            inst = random_instance(rng)
            candidate = build_candidate(
                inst,
                x=float(rng.uniform(-0.6, 0.6)),
                y_vec=rng.standard_normal(3) * rng.uniform(0.0, 0.7),
            )
            ball = positivity_check(candidate, inst, tol=0.0)
            eig = effect_min_eigenvalue(candidate.effects).min() >= 0.0
            agreements += ball == eig
        assert agreements == 10_000


def stack_of(instances):
    """The instances as one stacked JMInstance."""
    return JMInstance(
        *(np.array([getattr(inst, name) for inst in instances]) for name in ("m0", "m_vec", "n_vec"))
    )


def reference_candidate_effects(inst, x, y):
    """The four candidate effects of one instance as ``build_candidate``
    assembled them before it ran on stacks, one outcome pair at a time."""
    effects = np.zeros((2, 2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            si = -1.0 if i else 1.0
            sj = -1.0 if j else 1.0
            weight = 0.25 + 0.25 * sj * (2.0 * inst.m0 - 1.0) + si * sj * 0.5 * x
            vec = 0.5 * (sj * inst.m_vec + si * inst.n_vec + si * sj * y)
            effects[i, j] = weight * IDENTITY_2 + sum(v * s for v, s in zip(vec, PAULI))
    return effects


def reference_witness_y(inst):
    """The witness's y of one instance as ``construct_joint`` computed it
    before it ran on stacks, in the same order of operations."""
    s, t = jointmeas.criterion_roots(inst.m0, inst.m)
    return np.zeros(3) if inst.n < 1e-14 else min(s - inst.n, inst.n + t) * inst.n_vec / inst.n


class TestStacks:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(oracle_batches())
    def test_stack_is_its_instances_one_by_one(self, case):
        # random draws, boundary-band instances on both sides and the
        # near-tangent cases, bit for bit
        instances, _ = case
        stack = stack_of(instances)
        for name in ("m0", "m", "n"):
            assert stack_bytes(getattr(stack, name)) == stack_bytes(
                [getattr(inst, name) for inst in instances]
            )
        margins = jm_margin(stack)
        assert stack_bytes(margins) == stack_bytes([jm_margin(inst) for inst in instances])
        measurable = [inst for inst in instances if jm_margin(inst) >= -MEASURABLE_TOL]
        if not measurable:
            return
        joint = construct_joint(stack_of(measurable))
        singles = [construct_joint(inst) for inst in measurable]
        assert stack_bytes(joint.effects) == stack_bytes([c.effects for c in singles])
        assert stack_bytes(joint.y_vec) == stack_bytes([c.y_vec for c in singles])
        assert stack_bytes(joint.y_vec) == stack_bytes([reference_witness_y(i) for i in measurable])
        assert joint.x == 0.0 and all(c.x == 0.0 for c in singles)

    def test_a_stack_with_an_infeasible_instance_has_no_witness(self):
        instances = [axis_instance(0.5, 0.1, 0.1), axis_instance(0.5, 0.5, 0.5)]
        with pytest.raises(NotMeasurable, match="-1"):
            construct_joint(stack_of(instances))

    @pytest.mark.parametrize("seed", [81, 82, 83])
    def test_stacked_candidates_match_the_per_instance_loop(self, seed):
        rng = np.random.default_rng(seed)
        instances = [random_instance(rng) for _ in range(300)]
        # (x, y) = 0 in about half the rows, which makes short pairs positive
        scale = rng.integers(0, 2, len(instances)) * rng.uniform(0.0, 0.7, len(instances))
        x = rng.uniform(-0.6, 0.6, len(instances)) * (scale > 0)
        y = rng.standard_normal((len(instances), 3)) * scale[:, None]
        stack = stack_of(instances)
        stacked = build_candidate(stack, x, y)
        assert stacked.effects.shape == (len(instances), 2, 2, 2, 2)
        positive = []
        for k, inst in enumerate(instances):
            want = reference_candidate_effects(inst, x[k], y[k])
            assert stack_bytes(stacked.effects[k]) == stack_bytes(want)
            assert stack_bytes(build_candidate(inst, x[k], y[k]).effects) == stack_bytes(want)
            positive.append(positivity_check(build_candidate(inst, x[k], y[k]), inst))
        assert all(type(verdict) is bool for verdict in positive)
        assert positivity_check(stacked, stack).tolist() == positive
        # positive and non-positive candidates both occur
        low = effect_min_eigenvalue(stacked.effects).min(axis=(1, 2))
        assert (low < 0.0).any() and (low >= 0.0).any()

    BAD_ROWS = {
        "nan m0": (np.nan, [0.1, 0.0, 0.0], [0.0, 0.0, 0.1]),
        "inf vector": (0.5, [0.1, np.inf, 0.0], [0.0, 0.0, 0.1]),
        "bias above 1": (1.2, [0.0, 0.0, 0.0], [0.0, 0.0, 0.1]),
        "not orthogonal": (0.5, [0.2, 0.0, 0.0], [0.2, 0.1, 0.0]),
        "n too long": (0.5, [0.2, 0.0, 0.0], [0.0, 0.0, 0.6]),
        "m too long": (0.3, [0.4, 0.0, 0.0], [0.0, 0.0, 0.1]),
    }

    @pytest.mark.parametrize("row", sorted(BAD_ROWS))
    @pytest.mark.parametrize("position", [0, 3, 7])
    def test_one_bad_row_rejects_the_stack(self, row, position):
        rng = np.random.default_rng(84)
        stack = stack_of([random_instance(rng) for _ in range(8)])
        fields = [stack.m0.copy(), stack.m_vec.copy(), stack.n_vec.copy()]
        for field, value in zip(fields, self.BAD_ROWS[row]):
            field[position] = value
        # with the message of that row checked alone
        with pytest.raises(InvalidInstance) as alone:
            JMInstance(*(field[position] for field in fields))
        with pytest.raises(InvalidInstance) as stacked:
            JMInstance(*fields)
        assert str(stacked.value) == str(alone.value)

    def test_a_bad_realized_pair_fails_every_row_of_its_stack(self):
        # the stack's pairs are checked on the first read of any row, with the
        # message of the bad row checked alone
        rngs = [np.random.default_rng([86, k]) for k in range(4)]
        rows = mzi.evaluated_rows(mzi.random_setups(3, rngs), None)
        evaluation, _ = mzi.evaluate_setup(*rows[0])
        eta_s, eta_s_u = evaluation.stats.eta_s.copy(), evaluation.stats.eta_s_u.copy()
        eta_s[2] = eta_s_u[2] = 1.5  # m0 = 1.5 at row 2
        evaluation.stats = unchecked(
            mzi.StrategyStats, eta_s=eta_s, eta_sbar=1.0 - eta_s, eta_s_u=eta_s_u,
            eta_sbar_u=1.0 - eta_s_u,
        )
        alone = mzi.Evaluation(*rows[2])
        alone.stats = unchecked(
            mzi.StrategyStats, **{name: v[2:3] for name, v in vars(evaluation.stats).items()}
        )
        with pytest.raises(InvalidInstance) as wanted:
            alone.pair
        assert str(wanted.value) == "m0 = 1.5 outside [0, 1]"
        for setup, strategy in rows:
            with pytest.raises(InvalidInstance) as caught:
                instance_from_setup(setup, strategy)
            assert str(caught.value) == str(wanted.value)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 8),
        optimal=st.booleans(),
    )
    def test_a_row_of_realized_pairs_is_that_pair_checked_alone(self, dim, seed, size, optimal):
        rngs = [np.random.default_rng([seed, k]) for k in range(size)]
        strategies = None if optimal else mzi.random_strategies(dim, rngs)
        pairs = mzi.Evaluation(mzi.random_setups(dim, rngs), strategies).pair
        for k in range(size):
            row, alone = pairs[k], JMInstance(pairs.m0[k], pairs.m_vec[k], pairs.n_vec[k])
            assert list(vars(row)) == list(vars(alone))
            for name, value in vars(alone).items():
                got = getattr(row, name)
                assert type(got) is type(value), name
                assert np.asarray(got).tobytes() == np.asarray(value).tobytes(), (k, name)
            assert all(type(getattr(row, name)) is float for name in ("m0", "m", "n"))
            assert np.asarray(jm_margin(row)).tobytes() == np.asarray(jm_margin(alone)).tobytes()

    def test_messages_name_the_failing_row(self):
        # the first row out of range, not the stack or its largest value
        stack = stack_of([axis_instance(0.5, 0.1, 0.1)] * 3)
        with pytest.raises(InvalidInstance, match=re.escape("m0 = 1.5 outside [0, 1]")):
            JMInstance([0.5, 1.5, 1.7], stack.m_vec, stack.n_vec)
        m_vec = stack.m_vec.copy()
        m_vec[1:, 0] = 0.45, 0.49
        message = re.escape("|m| = 0.45 exceeds min(m0, 1-m0) = 0.4")
        with pytest.raises(InvalidInstance, match=message):
            JMInstance([0.5, 0.4, 0.5], m_vec, stack.n_vec)

    def test_the_criterion_refuses_a_stack(self):
        stack = stack_of([axis_instance(0.5, 0.1, 0.1)] * 3)
        with pytest.raises(InvalidInstance, match="stack of 3"):
            jm_criterion(stack)

    @pytest.mark.parametrize(
        "shapes",
        [((4,), (3, 3), (4, 3)), ((4,), (4, 3), (3, 3)), ((4,), (4, 2), (4, 2)),
         ((4, 1), (4, 1, 3), (4, 1, 3)), ((), (1, 3), (1, 3)), ((4,), (3,), (3,))],
    )
    def test_mismatched_shapes_are_rejected(self, shapes):
        m0_shape, m_shape, n_shape = shapes
        with pytest.raises(InvalidInstance):
            JMInstance(np.full(m0_shape, 0.5), np.zeros(m_shape), np.zeros(n_shape))

    def test_candidate_parameters_must_match_the_stack(self):
        stack = stack_of([axis_instance(0.5, 0.1, 0.1)] * 4)
        with pytest.raises(InvalidInstance):
            build_candidate(stack, 0.0, np.zeros(3))
        with pytest.raises(InvalidInstance):
            build_candidate(axis_instance(0.5, 0.1, 0.1), 0.0, np.zeros((1, 3)))


def report_of(visibility, distinguishability):
    """A duality report, one or stacked, with every field 1/2 but the two given."""
    names = (f.name for f in dataclasses.fields(mzi.DualityReport))
    fields = {name: np.full(np.shape(visibility), 0.5) for name in names}
    fields.update(visibility=np.asarray(visibility, dtype=float),
                  distinguishability=np.asarray(distinguishability, dtype=float))
    return mzi.DualityReport(**fields)


# records that fail checks, most of them two at once, one pair or in rows of a stack, with the
# message of the check that comes first, as each record's checks were walked one by one
FIRST_FAILED_CHECK = {
    "bias out and huge component": (lambda: JMInstance(1.5, [1e300, 0.0, 0.0], [0.0, 0.0, 0.1]),
                                    "m0 = 1.5 outside [0, 1]"),
    "both components": (lambda: JMInstance(0.5, [0.6, 0.0, 0.0], [0.0, 0.0, 0.7]),
                        "m_vec component 0.6 exceeds 1/2"),
    "skew and long n": (lambda: JMInstance(0.5, [0.2, 0.0, 0.0], [0.1, 0.5, 0.0]),
                        "m.n = 2.000e-02 is not 0"),
    "skew and long m": (lambda: JMInstance(0.3, [0.4, 0.0, 0.0], [0.1, 0.0, 0.1]),
                        "m.n = 4.000e-02 is not 0"),
    "long n and long m": (lambda: JMInstance(0.3, [0.4, 0.0, 0.0], [0.0, 0.4, 0.4]),
                          "|n| = 0.565685 exceeds 1/2"),
    "long m alone": (lambda: JMInstance(0.3, [0.4, 0.0, 0.0], [0.0, 0.0, 0.1]),
                     "|m| = 0.4 exceeds min(m0, 1-m0) = 0.3"),
    "long m, then long n, in rows": (
        lambda: JMInstance([0.3, 0.5], [[0.4, 0.0, 0.0], [0.1, 0.0, 0.0]],
                           [[0.0, 0.0, 0.1], [0.0, 0.4, 0.4]]),
        "|n| = 0.565685 exceeds 1/2"),
    "long m, then skew, in rows": (
        lambda: JMInstance([0.3, 0.5], [[0.4, 0.0, 0.0], [0.2, 0.0, 0.0]],
                           [[0.0, 0.0, 0.1], [0.1, 0.0, 0.1]]),
        "m.n = 2.000e-02 is not 0"),
    "both eta sums": (lambda: mzi.StrategyStats(0.5, 0.6, 0.5, 0.6),
                      "eta_s + eta_sbar must equal 1"),
    "eta_U sum alone": (lambda: mzi.StrategyStats(0.5, 0.5, 0.5, 0.6),
                        "eta_s_u + eta_sbar_u must equal 1"),
    "eta_U sum, then eta sum, in rows": (
        lambda: mzi.StrategyStats(*np.array([[0.5, 0.5], [0.5, 0.6], [0.5, 0.5], [0.6, 0.5]])),
        "eta_s + eta_sbar must equal 1"),
    "both report bounds": (lambda: report_of(0.9, 0.9), "visibility exceeds a priori visibility"),
    "report optimum alone": (lambda: report_of(0.5, 0.9),
                             "strategy distinguishability exceeds the optimum"),
    "report optimum, then visibility, in rows": (lambda: report_of([0.5, 0.9], [0.9, 0.5]),
                                                 "visibility exceeds a priori visibility"),
}


class TestFirstFailedCheck:
    """A record that tests every row at once still names the first check its rows fail."""

    @pytest.mark.parametrize("name", FIRST_FAILED_CHECK)
    def test_the_message_is_the_first_failed_check(self, name):
        build, message = FIRST_FAILED_CHECK[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MZDualityError, match=f"^{re.escape(message)}$"):
                build()


# the four ball constraints of ``positivity_check``, |c_i + r_i y| <= b_i + s_i x, with
# centres c = m + n, m - n, m - n, m + n and bounds b = m0, 1 - m0, m0, 1 - m0
X_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])
Y_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def ball_slacks(inst, x, y_vec):
    """The slacks ``b_i + s_i x - |c_i + r_i y|`` of the four ball constraints at (x, y) for
    one pair, and the unit vectors along ``c_i + r_i y`` (zero for a zero vector)."""
    m_vec, n_vec = inst.m_vec, inst.n_vec
    arms = np.array([m_vec + n_vec, m_vec - n_vec, m_vec - n_vec, m_vec + n_vec])
    arms += Y_SIGNS[:, None] * y_vec
    lengths = np.sqrt((arms * arms).sum(axis=1))
    bounds = np.array([inst.m0, 1.0 - inst.m0, inst.m0, 1.0 - inst.m0])
    units = np.divide(arms, lengths[:, None], out=np.zeros_like(arms), where=lengths[:, None] > 0)
    return bounds + X_SIGNS * x - lengths, units


def best_ball_slack(inst) -> float:
    """The largest t with every ball constraint of one pair kept with slack t, over (x, y)
    in R^4, by SLSQP from x = 0, y = 0: an oracle that reads neither the criterion nor its
    witness.  Each slack is concave in (x, y), so the pair is jointly measurable iff t >= 0."""
    from scipy.optimize import minimize

    def kept(z):  # z = (x, y, t)
        return ball_slacks(inst, z[0], z[1:4])[0] - z[4]

    def kept_jacobian(z):
        units = ball_slacks(inst, z[0], z[1:4])[1]
        return np.column_stack([X_SIGNS, -Y_SIGNS[:, None] * units, -np.ones(4)])

    start = np.zeros(5)
    start[4] = kept(start).min()
    found = minimize(lambda z: -z[4], start, jac=lambda z: -np.eye(5)[4], method="SLSQP",
                     constraints=[{"type": "ineq", "fun": kept, "jac": kept_jacobian}],
                     options={"ftol": 1e-14, "maxiter": 200})
    return float(found.x[4])


class TestBoundaryBand:
    """The instances criteria 1-2 skip, within three grid steps of the boundary, decided by
    ``best_ball_slack``: every band instance of ``verify``'s criterion 1 at its default seed,
    drawn from the same streams.  That run prints "1069 in the boundary band skipped of 11069
    drawn"."""

    def test_the_optimum_decides_the_band_as_the_margin_does(self):
        rngs = list(streams((20260810, acceptance.STREAM_TAGS["oracle"], k) for k in range(11069)))
        drawn = JMInstance(*jointmeas.draw_instances(rngs))
        band = np.flatnonzero(jointmeas.in_boundary_band(drawn.margin, jointmeas.ORACLE_RESOLUTION))
        assert len(band) >= 200
        feasible = 0
        for k in band:
            inst = drawn[k]
            optimum = best_ball_slack(inst)
            if abs(inst.margin) > 1e-9:
                assert (optimum >= 0.0) == (inst.margin >= 0.0), (k, inst.margin, optimum)
            if inst.margin >= -MEASURABLE_TOL:
                witness = construct_joint(inst)
                at_witness = ball_slacks(inst, witness.x, witness.y_vec)[0].min()
                assert optimum >= at_witness - 1e-9, (k, optimum, at_witness)
                feasible += 1
        assert 0 < feasible < len(band)


class TestFeasibilityOracle:
    def test_sharp_pair_infeasible_in_both_modes(self):
        inst = axis_instance(0.5, 0.5, 0.5)
        assert not feasibility_oracle(inst, mode="full")
        assert not feasibility_oracle(inst, mode="reduced")

    def test_comfortably_measurable_found_in_both_modes(self):
        rng = np.random.default_rng(69)
        found = 0
        while found < 100:
            inst = random_instance(rng)
            if jm_margin(inst) < 0.05:
                continue
            assert feasibility_oracle(inst, mode="full")
            assert feasibility_oracle(inst, mode="reduced")
            found += 1

    def test_differential_against_criterion(self):
        rng = np.random.default_rng(70)
        checked = 0
        while checked < 800:
            inst = random_instance(rng)
            margin = jm_margin(inst)
            if abs(margin) < 0.03:
                continue
            full = feasibility_oracle(inst, mode="full")
            assert full == (margin >= 0), (inst.m0, inst.m, inst.n, margin)
            assert feasibility_oracle(inst, mode="reduced") == full
            checked += 1

    def test_tangency_thin_feasible_sets_are_caught(self):
        # feasible sets thinner than the grid step, centred off-grid
        assert feasibility_oracle(axis_instance(*TANGENT_CASES[0]), mode="full")
        assert feasibility_oracle(axis_instance(*TANGENT_CASES[1]), mode="reduced")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(oracle_cases())
    def test_skipped_blocks_never_hold_a_grid_witness(self, case):
        # the feasible set is convex and symmetric under (y1, x) -> (-y1, -x),
        # so a grid witness at (y1, y2, x) implies one at (0, y2, 0): the
        # y1 = 0 pass settles every feasible instance, and the verdict alone
        # cannot see a wrongly skipped block.  The skipping pass is pinned on
        # its own as well.
        inst, resolution = case
        along_m = resolution * np.arange(0, int((inst.m + inst.n + 1.0) / resolution + 1e-9) + 1)
        whole = reference_scan(inst, resolution, along_m)
        axis_vals = reference_axis_grid(inst, resolution)
        lengths = (inst.m0, inst.m, inst.n)
        assert jointmeas._block_scan(lengths, resolution, along_m[None], axis_vals[None]) == [whole]
        expected = reference_scan(inst, resolution, np.zeros(1)) or whole
        assert feasibility_oracle(inst, resolution, mode="full") == expected

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(oracle_batches())
    def test_batch_verdicts_match_single_calls_and_whole_grid(self, case):
        instances, resolution = case
        lengths = tuple(
            np.array([getattr(inst, name) for inst in instances]) for name in ("m0", "m", "n")
        )
        # small array passes, so that most batches span several of them
        with patch.object(jointmeas, "CHUNK", 7):
            full, reduced = jointmeas.feasibility_batch(lengths, resolution)
        stack = stack_of(instances)
        assert feasibility_oracle(stack, resolution, mode="full").tolist() == full.tolist()
        assert feasibility_oracle(stack, resolution, mode="reduced").tolist() == reduced.tolist()
        for k, inst in enumerate(instances):
            assert full[k] == feasibility_oracle(inst, resolution, mode="full")
            assert reduced[k] == feasibility_oracle(inst, resolution, mode="reduced")
            k1 = int((inst.m + inst.n + 1.0) / resolution + 1e-9)
            along_m = resolution * np.arange(0, k1 + 1)
            whole = reference_scan(inst, resolution, np.zeros(1)) or reference_scan(
                inst, resolution, along_m
            )
            assert full[k] == whole
            assert reduced[k] == reduced_slice_hit(inst, resolution)
            # the reduced slice is part of FULL mode's grid
            assert full[k] or not reduced[k]

    @pytest.mark.parametrize("resolution", [0.01, 0.05])
    def test_chunks_in_reach_order_keep_each_verdict_with_its_instance(self, resolution):
        # random draws, boundary-band instances on both sides of the boundary
        # and the near-tangent cases, shuffled so that reach order is not
        # draw order
        rng = np.random.default_rng(72)
        instances = [random_instance(rng) for _ in range(30)] + [
            axis_instance(*case) for case in TANGENT_CASES
        ]
        for margin in np.linspace(-2.5, 2.5, 12) * resolution:
            m0 = rng.uniform(0.1, 0.9)
            m = rng.random() * min(m0, 1.0 - m0)
            s, t = jointmeas.criterion_roots(m0, m)
            instances.append(axis_instance(m0, m, min(0.5 * (s + t - margin), 0.5)))
        instances = [instances[k] for k in rng.permutation(len(instances))]
        m0, m, n = lengths = tuple(
            np.array([getattr(inst, name) for inst in instances]) for name in ("m0", "m", "n")
        )
        with patch.object(jointmeas, "CHUNK", 5):
            full, reduced = jointmeas.feasibility_batch(lengths, resolution)
        order = np.argsort(m + n, kind="stable")
        # verdicts written back in reach order, or in chunk order, would differ
        assert (full != full[order]).any() and (reduced != reduced[order]).any()
        for k, inst in enumerate(instances):
            assert full[k] == feasibility_oracle(inst, resolution, mode="full")
            assert reduced[k] == feasibility_oracle(inst, resolution, mode="reduced")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(oracle_batches())
    def test_stacked_second_pass_matches_per_instance_scans(self, case):
        # mixed feasible and infeasible rows, each scanned with y1 = 0 in its
        # grid, so a row read from the wrong instance shows in the verdicts
        instances, resolution = case
        lengths = tuple(
            np.array([[getattr(inst, name)] for inst in instances]) for name in ("m0", "m", "n")
        )
        along_m = [resolution * np.arange(0, int((i.m + i.n + 1.0) / resolution + 1e-9) + 1)
                   for i in instances]
        axis_vals = [reference_axis_grid(inst, resolution) for inst in instances]
        stacked = jointmeas._block_scan(
            lengths, resolution, padded_rows(along_m), padded_rows(axis_vals)
        )
        for k, inst in enumerate(instances):
            parent = parent_block_scan(inst, resolution, along_m[k], axis_vals[k])
            assert stacked[k] == parent == reference_scan(inst, resolution, along_m[k])
        # the batch hands each instance of a chunk that REDUCED leaves open
        # its own grids; the verdicts alone cannot show a mix-up, since by the
        # symmetry argument no such instance has a witness
        scanned = []

        def spy(rows, resolution, y1_vals, y2_vals):
            for k in range(len(y1_vals)):
                key = tuple(float(v[k, 0]) for v in rows)
                grids = (y1_vals[k][~np.isnan(y1_vals[k])], y2_vals[k][~np.isnan(y2_vals[k])])
                scanned.append((key, grids))
            return block_scan(rows, resolution, y1_vals, y2_vals)

        block_scan = jointmeas._block_scan
        with patch.object(jointmeas, "CHUNK", 7), patch.object(jointmeas, "_block_scan", spy):
            full, _ = jointmeas.feasibility_batch(
                tuple(v[:, 0] for v in lengths), resolution
            )
        first = [reduced_slice_hit(inst, resolution) for inst in instances]
        assert len(scanned) == first.count(False)
        for key, (y1, y2) in scanned:
            k = [(i.m0, i.m, i.n) for i in instances].index(key)
            assert not first[k]
            np.testing.assert_array_equal(y1, along_m[k])
            # sorted, with any point where the grids at +n and -n meet kept twice
            assert (np.diff(y2) >= 0).all()
            np.testing.assert_array_equal(np.unique(y2), axis_vals[k])
        for k, inst in enumerate(instances):
            parent = parent_block_scan(inst, resolution, along_m[k], axis_vals[k])
            assert full[k] == (first[k] or parent)

    def test_reduced_hits_skip_the_full_scan(self):
        # FULL starts from the REDUCED verdict, so a batch that REDUCED
        # settles never evaluates the x window of any y point
        inst = axis_instance(0.5, 0.1, 0.1)
        lengths = tuple(np.full(40, v) for v in (inst.m0, inst.m, inst.n))
        with patch.object(
            jointmeas, "_block_scan", wraps=jointmeas._block_scan
        ) as block_scan, patch.object(jointmeas, "_x_window", wraps=jointmeas._x_window) as window:
            full, reduced = jointmeas.feasibility_batch(lengths, 0.01)
        assert full.all() and reduced.all()
        block_scan.assert_not_called()
        window.assert_not_called()

    def test_oracle_picks_the_verdict_of_its_mode(self):
        # the two verdicts agree off the boundary band, so pin the pick itself
        inst = axis_instance(0.5, 0.1, 0.1)
        verdicts = (np.array([True]), np.array([False]))
        with patch.object(jointmeas, "feasibility_batch", return_value=verdicts):
            assert feasibility_oracle(inst, mode="full") is True
            assert feasibility_oracle(inst, mode="reduced") is False

    def test_resolution_validation(self):
        inst = axis_instance(0.5, 0.1, 0.1)
        with pytest.raises(ValueError):
            feasibility_oracle(inst, resolution=0.2)
        # finer grids than 1e-3 would need arrays of many gigabytes
        for fine in (9e-4, 1e-5, 0.0):
            with pytest.raises(ValueError):
                feasibility_oracle(inst, resolution=fine)
        assert feasibility_oracle(inst, resolution=1e-3, mode="reduced")
        with pytest.raises(ValueError):
            feasibility_oracle(inst, mode="sideways")


class TestInstanceFromSetup:
    def test_identity_coupling_gives_trivial_guess(self):
        rng = np.random.default_rng(71)
        setup = mzi.MZISetup(
            rho=random_qubit_state(rng), rho_d=random_detector_state(3, rng), u=np.eye(3), phi=0.0
        )
        inst = instance_from_setup(setup, mzi.random_strategies(3, [rng])[0])
        assert inst.m == pytest.approx(0.0, abs=1e-12)
        assert jm_criterion(inst).measurable

    def test_physical_setups_are_measurable(self):
        rng = np.random.default_rng(72)
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            setup = mzi.MZISetup(
                rho=random_qubit_state(rng),
                rho_d=random_detector_state(dim, rng),
                u=random_unitary(dim, rng),
                phi=float(rng.uniform(0, 2 * np.pi)),
            )
            strategy = mzi.random_strategies(dim, [rng])[0]
            assert jm_margin(instance_from_setup(setup, strategy)) >= -1e-10

    def test_margin_equals_stats_expression(self):
        # margin = sqrt(eta_S eta_S^U) + sqrt(eta_Sbar eta_Sbar^U) - contrast
        rng = np.random.default_rng(73)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            setup = mzi.MZISetup(
                rho=random_qubit_state(rng),
                rho_d=random_detector_state(dim, rng),
                u=random_unitary(dim, rng),
                phi=0.1,
            )
            strategy = mzi.random_strategies(dim, [rng])[0]
            stats = mzi.strategy_stats(setup, strategy)
            contrast = mzi.duality_report(setup, strategy).contrast
            expected = (
                np.sqrt(stats.eta_s * stats.eta_s_u)
                + np.sqrt(stats.eta_sbar * stats.eta_sbar_u)
                - contrast
            )
            assert jm_margin(instance_from_setup(setup, strategy)) == pytest.approx(
                expected, abs=1e-12
            )

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_witness_marginals_are_the_realized_pair(self, path):
        # the witness is a joint observable of the pair the setup realizes,
        # so its marginals are the interferometer's own two POVMs, the
        # marginals of the joint observable the setup realizes
        scenario = load_scenario(path)
        setup, strategy = scenario.setup, scenario.strategy
        effects = construct_joint(instance_from_setup(setup, strategy)).effects
        realized = mzi.joint_observable(setup, strategy)
        for k in range(2):
            np.testing.assert_allclose(
                effects[k].sum(axis=0), realized[k].sum(axis=0), atol=1e-12
            )
            np.testing.assert_allclose(
                effects[:, k].sum(axis=0), realized[:, k].sum(axis=0), atol=1e-12
            )

    def test_saturating_scenario_margin_zero(self):
        setup = mzi.MZISetup(
            rho=QubitState.from_bloch([0.3, 0.0, 0.4]),
            rho_d=np.diag([1.0, 0.0]).astype(complex),
            u=np.eye(2),
            phi=0.0,
        )
        inst = instance_from_setup(setup, mzi.optimal_strategy(setup))
        assert jm_margin(inst) == pytest.approx(0.0, abs=1e-12)


def duality_form(eta_s, eta_s_u, c):
    """``(1 - gamma_S^2) - (D_S^2 + c^2)`` at path weights w+ = w- = 1/2,
    with ``D_S = eta_S - eta_S^U`` and
    ``gamma_S = |sqrt(eta_S (1 - eta_S)) - sqrt(eta_S^U (1 - eta_S^U))|``."""
    gamma = np.abs(np.sqrt(eta_s * (1.0 - eta_s)) - np.sqrt(eta_s_u * (1.0 - eta_s_u)))
    return (1.0 - gamma**2) - ((eta_s - eta_s_u) ** 2 + c**2)


def equivalence_rhs(inst):
    """``jm_margin (s + t + 2 |n|)``, with (s, t) the criterion roots."""
    s, t = jointmeas.criterion_roots(inst.m0, inst.m)
    return jm_margin(inst) * (s + t + 2.0 * inst.n)


class TestDualityEquivalence:
    """The paper's claim that joint measurability is equivalent to a duality
    inequality, as an identity.  For an instance (m0, m, n) put
    eta_S = m0 + |m|, eta_S^U = m0 - |m| and c = 2 |n|; with eta_S = cos^2 a
    and eta_S^U = cos^2 b, s + t = cos(a - b) and D_S^2 + gamma_S^2 =
    sin^2(a - b), so

        (1 - gamma_S^2) - (D_S^2 + c^2) = jm_margin (s + t + 2 |n|),

    and, the factor being non-negative, the duality form fails exactly when
    the criterion does, on every pair, measurable or not."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(oracle_batches())
    def test_identity_on_arbitrary_pairs(self, case):
        # draws from draw_instances streams, boundary-band pairs on both sides
        # of the boundary and the near-tangent cases
        inst = stack_of(case[0])
        form = duality_form(inst.m0 + inst.m, inst.m0 - inst.m, 2.0 * inst.n)
        rhs = equivalence_rhs(inst)
        assert np.max(np.abs(form - rhs)) <= 1e-13
        # off the rounding of the identity, the form's sign is the margin's
        decided = np.abs(rhs) > 1e-13
        assert np.array_equal((form < 0.0)[decided], (jm_margin(inst) < 0.0)[decided])

    def test_identity_on_many_drawn_pairs(self):
        # about a quarter of draw_instances pairs are not measurable
        inst = JMInstance(*jointmeas.draw_instances(
            [np.random.default_rng([74, k]) for k in range(20_000)]))
        margin = jm_margin(inst)
        assert 0.2 < np.mean(margin < 0.0) < 0.35
        form = duality_form(inst.m0 + inst.m, inst.m0 - inst.m, 2.0 * inst.n)
        assert np.max(np.abs(form - equivalence_rhs(inst))) <= 1e-13
        assert np.array_equal(form < 0.0, margin < 0.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        dim=st.sampled_from([2, 3, 5, 8]),
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 40),
        optimal=st.booleans(),
    )
    def test_identity_on_realized_pairs(self, dim, seed, size, optimal):
        # The report's own bound is the duality form of its realized pair
        # only at P = 0, so the quanton's Bloch x-component is set to 0
        # (w+ = w- = 1/2).  With a setup's own w+ and w- the strategy-resolved
        # bound weighs eta_S and eta_S^U unequally, and the residual reaches
        # 0.96 on 16,000 drawn setups; the joint-measurability condition does
        # not depend on w+-.
        rngs = [np.random.default_rng([seed, k]) for k in range(size)]
        drawn = mzi.random_setups(dim, rngs)
        bloch = np.array([QubitState(rho).bloch() for rho in drawn.rho.matrix])
        bloch[:, 0] = 0.0
        rho = QubitState(np.array([QubitState.from_bloch(b).matrix for b in bloch]))
        setups = mzi.MZISetup(rho, drawn.rho_d, drawn.u, drawn.phi)
        result = mzi.Evaluation(setups, None if optimal else mzi.random_strategies(dim, rngs))
        report = result.report
        assert np.max(report.predictability) <= 1e-15
        rhs = equivalence_rhs(result.pair)
        assert np.max(np.abs(report.duality_rhs - report.duality_lhs - rhs)) <= 1e-13


def criterion_slack(inst):
    """``s + t - 2n`` of the criterion roots, computed from the instance's lengths."""
    s, t = jointmeas.criterion_roots(inst.m0, inst.m)
    return s + t - 2.0 * inst.n


# how far a stack's margin may lie from the same formula on one pair's Python floats
MARGIN_DRIFT = 4.0 * np.finfo(float).eps


class TestMarginField:
    """``JMInstance.margin`` is the criterion slack, computed once when the pair is validated."""

    def stacks(self):
        rngs = [np.random.default_rng([88, k]) for k in range(12)]
        drawn = JMInstance(*jointmeas.draw_instances(rngs))
        # a clamped root (|m| at its cap), |n| at 1/2, both zero and the sharp ends of m0
        edges = stack_of([axis_instance(0.5, 0.5, 0.5), axis_instance(0.3, 0.3, 0.0),
                          axis_instance(0.0, 0.0, 0.25), axis_instance(1.0, 0.0, 0.5)])
        setups = mzi.random_setups(3, rngs)
        optimal = [k % 2 == 0 for k in range(len(rngs))]
        realized = mzi.Evaluation(setups, mzi.random_strategies(3, rngs[1::2]), optimal).pair
        return {"drawn": drawn, "edges": edges, "realized": realized}

    @pytest.mark.parametrize("name", ["drawn", "edges", "realized"])
    def test_a_stack_and_its_rows_carry_the_slack_bit_for_bit(self, name):
        stack = self.stacks()[name]
        want = criterion_slack(stack)
        assert stack.margin.dtype == float and stack.margin.shape == stack.m0.shape
        assert stack.margin.tobytes() == want.tobytes()
        assert jm_margin(stack) is stack.margin
        for rows in (stack.row_list, stack.rows(), [stack[k] for k in range(len(want))]):
            for k, row in enumerate(rows):
                assert type(row.margin) is float, (name, k)
                assert np.float64(row.margin).tobytes() == want[k].tobytes(), (name, k)
                assert jm_margin(row) is row.margin

    @pytest.mark.parametrize("name", ["drawn", "edges", "realized"])
    def test_one_pair_carries_its_slack_as_a_float(self, name):
        stack = self.stacks()[name]
        for k in range(len(stack.m0)):
            one = JMInstance(stack.m0[k], stack.m_vec[k], stack.n_vec[k])
            assert type(one.margin) is float and jm_margin(one) is one.margin
            assert np.float64(one.margin).tobytes() == np.float64(criterion_slack(one)).tobytes()
            assert abs(one.margin - stack.margin[k]) <= MARGIN_DRIFT, (name, k)
            assert jm_criterion(one).margin == one.margin

    def test_each_pair_carries_its_stacked_row_margin_bit_for_bit(self):
        # 1 - m0 is squared as a product for one pair as for a stack; squared by ``** 2``,
        # one pair's 0-d value took libm's pow, which rounds 7 of these pairs differently
        m0, m_vec, n_vec = jointmeas.draw_instances(list(streams((77, k) for k in range(20000))))
        stack = JMInstance(m0, m_vec, n_vec)
        margins = np.array([JMInstance(*pair).margin for pair in zip(m0, m_vec, n_vec)])
        assert margins.tobytes() == stack.margin.tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_a_row_margin_moves_from_its_float_formula_by_rounding_alone(self, dim):
        # a row's margin is its stack's; the same formula on the row's Python floats
        # squares 1 - m0 by the same product, so the two may differ by rounding alone
        rngs = [np.random.default_rng([90, dim, k]) for k in range(2048)]
        optimal = [k % 2 == 0 for k in range(len(rngs))]
        strategies = mzi.random_strategies(dim, rngs[1::2])
        pairs = mzi.Evaluation(mzi.random_setups(dim, rngs), strategies, optimal).pair
        drift = [abs(row.margin - criterion_slack(row)) for row in pairs.row_list]
        assert max(drift) <= MARGIN_DRIFT

    def test_the_margin_is_not_an_argument(self):
        with pytest.raises(TypeError):
            JMInstance(0.5, [0.1, 0.0, 0.0], [0.0, 0.0, 0.2], margin=1.0)

    def test_readers_take_the_kept_margin_without_recomputing_it(self):
        # the criterion, the construction, the CSV line, the sweep gates and criteria 1
        # and 3 read the field
        inst = axis_instance(0.5, 0.3, 0.2)
        with patch.object(jointmeas, "criterion_roots", side_effect=AssertionError("recomputed")):
            assert jm_margin(inst) == inst.margin
        scenario = load_scenario(SCENARIO_DIR / "biased_mixed_detector.json")
        pair = instance_from_setup(scenario.setup, scenario.strategy)
        with patch.object(jointmeas, "jm_margin", side_effect=AssertionError("recomputed")):
            assert jm_criterion(inst).margin == inst.margin
            construct_joint(stack_of([inst, inst]))
            assert cli._result_row(scenario).endswith(f",{pair.margin:.17g}")
            assert acceptance.setup_violations(scenario.setup, scenario.strategy) == []
            assert acceptance.criteria_oracle_agreement(3, count=20)[0].passed
            assert acceptance.criterion_physical_realizability(3, count=6).passed
