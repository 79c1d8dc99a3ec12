from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mzduality.errors import InvalidInstance, NotMeasurable
from mzduality import jointmeas, mzi
from mzduality.jointmeas import (
    GRID_GUARD,
    JMInstance,
    build_candidate,
    construct_joint,
    feasibility_oracle,
    instance_from_setup,
    jm_criterion,
    jm_margin,
    min_effect_eigenvalue,
    positivity_check,
    random_instance,
)
from mzduality.qubit import QubitState, random_detector_state, random_qubit_state, random_unitary
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
            low = min_effect_eigenvalue(construct_joint(inst).effects)
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
            assert min_effect_eigenvalue(candidate.effects) >= -1e-10

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
            eig = min_effect_eigenvalue(candidate.effects) >= 0.0
            agreements += ball == eig
        assert agreements == 10_000


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
        assert jointmeas._block_scan(inst, resolution, along_m, axis_vals) == whole
        expected = reference_scan(inst, resolution, np.zeros(1)) or whole
        assert feasibility_oracle(inst, resolution, mode="full") == expected

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(oracle_batches())
    def test_batch_verdicts_match_single_calls_and_whole_grid(self, case):
        instances, resolution = case
        lengths = jointmeas.Lengths(
            *(np.array([getattr(inst, name) for inst in instances]) for name in ("m0", "m", "n"))
        )
        # small array passes, so that most batches span several of them
        with patch.object(jointmeas, "CHUNK", 7):
            full = jointmeas.feasibility_batch(lengths, resolution, mode="full")
            reduced = jointmeas.feasibility_batch(lengths, resolution, mode="reduced")
        for k, inst in enumerate(instances):
            assert full[k] == feasibility_oracle(inst, resolution, mode="full")
            assert reduced[k] == feasibility_oracle(inst, resolution, mode="reduced")
            k1 = int((inst.m + inst.n + 1.0) / resolution + 1e-9)
            along_m = resolution * np.arange(0, k1 + 1)
            whole = reference_scan(inst, resolution, np.zeros(1)) or reference_scan(
                inst, resolution, along_m
            )
            assert full[k] == whole
            axis_vals = reference_axis_grid(inst, resolution)
            slice_ok = (np.sqrt(inst.m**2 + (inst.n + axis_vals) ** 2) <= inst.m0 + GRID_GUARD) & (
                np.sqrt(inst.m**2 + (inst.n - axis_vals) ** 2) <= 1.0 - inst.m0 + GRID_GUARD
            )
            assert reduced[k] == bool(np.any(slice_ok))

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
        inst = instance_from_setup(setup, mzi.random_strategy(3, rng))
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
            strategy = mzi.random_strategy(dim, rng)
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
            strategy = mzi.random_strategy(dim, rng)
            stats = mzi.strategy_stats(setup, strategy)
            _, _, contrast = mzi.visibility_with_detector(setup)
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
        # so its marginals are the interferometer's own two POVMs
        scenario = load_scenario(path)
        setup, strategy = scenario.setup, scenario.resolve_strategy()
        effects = construct_joint(instance_from_setup(setup, strategy)).effects
        port_povm = mzi.interference_povm(setup)
        guess_povm = mzi.which_path_povm(setup, strategy)
        for k in range(2):
            np.testing.assert_allclose(effects[k].sum(axis=0), port_povm.effect(k), atol=1e-12)
            np.testing.assert_allclose(effects[:, k].sum(axis=0), guess_povm.effect(k), atol=1e-12)

    def test_saturating_scenario_margin_zero(self):
        setup = mzi.MZISetup(
            rho=QubitState.from_bloch([0.3, 0.0, 0.4]),
            rho_d=np.diag([1.0, 0.0]).astype(complex),
            u=np.eye(2),
            phi=0.0,
        )
        inst = instance_from_setup(setup, mzi.optimal_strategy(setup))
        assert jm_margin(inst) == pytest.approx(0.0, abs=1e-12)
