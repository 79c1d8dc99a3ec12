from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzduality.errors import BadDimension, DimensionMismatch, InvalidArgument, InvalidEffect
from mzduality.linalg import hermitian_eig
from mzduality import acceptance, mzi
from mzduality.qubit import (
    SIGMA_X,
    BinaryQubitObservable,
    QubitState,
    pauli_phi,
    random_detector_state,
    random_pure_detector_state,
    random_qubit_state,
    random_unitary,
)
from mzduality.scenarios import random_scenario

GROUND = np.diag([1.0, 0.0]).astype(complex)


def random_setup(rng, dim, phi=None):
    return mzi.MZISetup(
        rho=random_qubit_state(rng),
        rho_d=random_detector_state(dim, rng),
        u=random_unitary(dim, rng),
        phi=float(rng.uniform(0, 2 * np.pi)) if phi is None else phi,
    )


class TestSetupConstruction:
    @pytest.mark.parametrize("dim", [1, 9])
    def test_one_dimension_range(self, dim):
        messages = set()
        for build in (
            lambda: mzi.MZISetup(rho=QubitState(GROUND), rho_d=np.eye(dim) / dim, u=np.eye(dim)),
            lambda: random_detector_state(dim, 0),
            lambda: random_unitary(dim, 0),
        ):
            with pytest.raises(BadDimension) as caught:
                build()
            messages.add(str(caught.value))
        assert len(messages) == 1

    def test_single_objects_reject_stacks(self):
        # the validators accept stacks; the single-setup types must not
        pair = np.array([GROUND, GROUND])
        with pytest.raises(DimensionMismatch):
            QubitState(pair)
        with pytest.raises(DimensionMismatch):
            mzi.MZISetup(rho=QubitState(GROUND), rho_d=pair, u=np.array([np.eye(2)] * 2))
        with pytest.raises(DimensionMismatch):
            mzi.Strategy(basis=np.array([np.eye(2)] * 2), subset=frozenset())
        with pytest.raises(InvalidEffect):
            BinaryQubitObservable(bias=np.array([0.5, 0.5]), vector=np.zeros((2, 3)))

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    def test_non_finite_phase_rejected(self, phi):
        with pytest.raises(InvalidArgument):
            mzi.MZISetup(rho=QubitState(GROUND), rho_d=GROUND, u=np.eye(2), phi=phi)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31), st.integers(0, 10**4), st.integers(2, 8), st.booleans())
    def test_random_setup_is_the_sweep_setup(self, seed, index, dim, optimal):
        setup = mzi.random_setup(dim, np.random.default_rng([seed, index]))
        swept = random_scenario(seed, index, dim, optimal).setup
        np.testing.assert_array_equal(setup.rho.matrix, swept.rho.matrix)
        np.testing.assert_array_equal(setup.rho_d, swept.rho_d)
        np.testing.assert_array_equal(setup.u, swept.u)
        assert setup.phi == swept.phi


class TestVisibilityAndPredictability:
    def test_equal_superposition_of_paths(self):
        v0, _ = mzi.a_priori_visibility(QubitState(GROUND))
        assert v0 == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed(self):
        v0, phi0 = mzi.a_priori_visibility(QubitState(np.eye(2) / 2))
        assert v0 == pytest.approx(0.0, abs=1e-14)
        assert phi0 == 0.0

    def test_grid_search_oracle(self):
        # V0 is the maximum of tr(rho sigma_phi) over the phase
        rng = np.random.default_rng(31)
        phases = np.linspace(0.0, 2 * np.pi, 10_000, endpoint=False)
        for _ in range(10):
            rho = random_qubit_state(rng)
            v0, phi0 = mzi.a_priori_visibility(rho)
            values = [np.trace(rho.matrix @ pauli_phi(p)).real for p in phases]
            assert v0 == pytest.approx(max(values), abs=1e-6)
            assert np.trace(rho.matrix @ pauli_phi(phi0)).real == pytest.approx(v0, abs=1e-12)

    def test_single_path(self):
        plus = QubitState.from_bloch([1.0, 0.0, 0.0])
        p, w_plus, w_minus = mzi.predictability(plus)
        assert (p, w_plus, w_minus) == pytest.approx((1.0, 1.0, 0.0), abs=1e-14)
        assert mzi.a_priori_visibility(plus)[0] == pytest.approx(0.0, abs=1e-14)

    def test_no_bias(self):
        assert mzi.predictability(QubitState(GROUND))[0] == pytest.approx(0.0, abs=1e-14)

    def test_duality_of_preparation(self):
        rng = np.random.default_rng(32)
        for _ in range(500):
            rho = random_qubit_state(rng)
            v0, _ = mzi.a_priori_visibility(rho)
            p, w_plus, w_minus = mzi.predictability(rho)
            assert w_plus + w_minus == pytest.approx(1.0, abs=1e-12)
            assert p * p + v0 * v0 <= 1.0 + 1e-12


class TestVisibilityWithDetector:
    def test_identity_coupling(self):
        rng = np.random.default_rng(33)
        setup = mzi.MZISetup(
            rho=random_qubit_state(rng), rho_d=random_detector_state(3, rng), u=np.eye(3), phi=0.2
        )
        v, delta, contrast = mzi.visibility_with_detector(setup)
        assert contrast == pytest.approx(1.0, abs=1e-12)
        assert delta == 0.0
        assert v == pytest.approx(mzi.a_priori_visibility(setup.rho)[0], abs=1e-12)

    def test_orthogonal_flip_kills_visibility(self):
        setup = mzi.MZISetup(
            rho=QubitState(GROUND), rho_d=GROUND, u=SIGMA_X, phi=0.0
        )
        v, _, contrast = mzi.visibility_with_detector(setup)
        assert v == contrast == 0.0

    def test_contrast_independent_of_quanton(self):
        rng = np.random.default_rng(34)
        rho_d = random_detector_state(3, rng)
        u = random_unitary(3, rng)
        ratios = set()
        for _ in range(5):
            setup = mzi.MZISetup(rho=random_qubit_state(rng), rho_d=rho_d, u=u, phi=0.1)
            ratios.add(round(mzi.visibility_with_detector(setup)[2], 13))
        assert len(ratios) == 1


class TestStrategiesAndDistinguishability:
    def test_all_and_empty_subsets(self):
        rng = np.random.default_rng(35)
        setup = random_setup(rng, 3)
        basis = random_unitary(3, rng)
        full = mzi.strategy_stats(setup, mzi.Strategy(basis=basis, subset=frozenset(range(3))))
        assert (full.eta_s, full.eta_s_u) == pytest.approx((1.0, 1.0), abs=1e-12)
        empty = mzi.strategy_stats(setup, mzi.Strategy(basis=basis, subset=frozenset()))
        assert (empty.eta_s, empty.eta_s_u) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_probability_ranges(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            setup = random_setup(rng, int(rng.integers(2, 5)))
            stats = mzi.strategy_stats(setup, mzi.random_strategy(setup.detector_dim, rng))
            for value in (stats.eta_s, stats.eta_sbar, stats.eta_s_u, stats.eta_sbar_u):
                assert -1e-12 <= value <= 1.0 + 1e-12

    def test_identity_all_subset(self):
        rng = np.random.default_rng(37)
        rho = random_qubit_state(rng)
        setup = mzi.MZISetup(rho=rho, rho_d=random_detector_state(2, rng), u=np.eye(2), phi=0.0)
        _, w_plus, _ = mzi.predictability(rho)
        stats = mzi.strategy_stats(
            setup, mzi.Strategy(basis=np.eye(2), subset=frozenset({0, 1}))
        )
        assert mzi.distinguishability(stats, w_plus, 1 - w_plus) == pytest.approx(
            2 * w_plus - 1, abs=1e-12
        )

    def test_perfect_which_path_marking(self):
        # unbiased quanton, ground detector flipped to an orthogonal state
        setup = mzi.MZISetup(rho=QubitState(GROUND), rho_d=GROUND, u=SIGMA_X, phi=0.0)
        strategy = mzi.Strategy(basis=np.eye(2), subset=frozenset({0}))
        stats = mzi.strategy_stats(setup, strategy)
        assert mzi.distinguishability(stats, 0.5, 0.5) == pytest.approx(1.0, abs=1e-14)
        assert mzi.max_distinguishability(setup) == pytest.approx(1.0, abs=1e-12)

    def test_identity_coupling_optimum_is_bias(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            rho = random_qubit_state(rng)
            setup = mzi.MZISetup(
                rho=rho, rho_d=random_detector_state(3, rng), u=np.eye(3), phi=0.0
            )
            assert mzi.max_distinguishability(setup) == pytest.approx(
                mzi.predictability(rho)[0], abs=1e-10
            )

    def test_identity_coupling_optimal_subset_is_support(self):
        rng = np.random.default_rng(39)
        rho = QubitState.from_bloch([0.5, 0.0, 0.0])  # w+ > w-
        rho_d = random_detector_state(3, rng)
        setup = mzi.MZISetup(rho=rho, rho_d=rho_d, u=np.eye(3), phi=0.0)
        strategy = mzi.optimal_strategy(setup)
        support = {k for k, v in enumerate(hermitian_eig(rho_d).eigenvalues) if v > 1e-12}
        assert len(strategy.subset) == len(support)
        stats = mzi.strategy_stats(setup, strategy)
        assert stats.eta_s == pytest.approx(1.0, abs=1e-10)

    def test_optimum_matches_enumeration_and_dominates_random(self):
        rng = np.random.default_rng(40)
        for _ in range(12):
            dim = int(rng.integers(2, 4))
            setup = random_setup(rng, dim)
            _, w_plus, w_minus = mzi.predictability(setup.rho)
            d_max = mzi.max_distinguishability(setup)
            vals, vecs = hermitian_eig(mzi.guess_operator(setup))
            best = max(
                mzi.distinguishability(
                    mzi.strategy_stats(setup, mzi.Strategy(basis=vecs, subset=frozenset(sub))),
                    w_plus,
                    w_minus,
                )
                for size in range(dim + 1)
                for sub in combinations(range(dim), size)
            )
            assert best == pytest.approx(d_max, abs=1e-10)
            opt = mzi.optimal_strategy(setup)
            d_opt = mzi.distinguishability(mzi.strategy_stats(setup, opt), w_plus, w_minus)
            assert d_opt == pytest.approx(d_max, abs=1e-10)
            for _ in range(100):
                stats = mzi.strategy_stats(setup, mzi.random_strategy(dim, rng))
                assert mzi.distinguishability(stats, w_plus, w_minus) <= d_max + 1e-10

    def test_stats_do_not_depend_on_phase(self):
        rng = np.random.default_rng(41)
        base = random_setup(rng, 3, phi=0.0)
        strategy = mzi.random_strategy(3, rng)
        shifted = mzi.MZISetup(rho=base.rho, rho_d=base.rho_d, u=base.u, phi=2.1)
        assert mzi.strategy_stats(base, strategy) == mzi.strategy_stats(shifted, strategy)


class TestPovms:
    def test_interference_povm_sharp_case(self):
        setup = mzi.MZISetup(
            rho=QubitState(GROUND), rho_d=GROUND, u=np.eye(2), phi=0.0
        )
        povm = mzi.interference_povm(setup)
        np.testing.assert_allclose(povm.effect(0), np.diag([1.0, 0.0]), atol=1e-14)

    def test_interference_povm_zero_contrast(self):
        setup = mzi.MZISetup(rho=QubitState(GROUND), rho_d=GROUND, u=SIGMA_X, phi=0.0)
        povm = mzi.interference_povm(setup)
        np.testing.assert_allclose(povm.effect(0), np.eye(2) / 2, atol=1e-14)

    def test_interference_contrast_via_phase_grid(self):
        # Born-rule oracle: the port-probability difference computed from the
        # full evolution, maximized over the phase, recovers the visibility
        # and matches the binary observable at every grid point
        rng = np.random.default_rng(42)
        from mzduality.linalg import kron

        for _ in range(4):
            dim = int(rng.integers(2, 4))
            rho = random_qubit_state(rng)
            rho_d = random_detector_state(dim, rng)
            u = random_unitary(dim, rng)
            joint_rho = kron(rho.matrix, rho_d)
            eye_d = np.eye(dim)
            coupling = kron(np.diag([1.0, 0.0]), eye_d) + kron(np.diag([0.0, 1.0]), u)
            after = kron(mzi.HADAMARD, eye_d) @ coupling
            port_diff = after.conj().T @ kron(np.diag([1.0, -1.0]), eye_d) @ after
            best = -np.inf
            for phi in np.linspace(0, 2 * np.pi, 10_000, endpoint=False):
                entry = kron(mzi.phase_shifter(phi) @ mzi.HADAMARD, eye_d)
                value = np.trace(entry @ joint_rho @ entry.conj().T @ port_diff).real
                best = max(best, value)
            reference = mzi.MZISetup(rho=rho, rho_d=rho_d, u=u, phi=1.3)
            v, _, _ = mzi.visibility_with_detector(reference)
            assert best == pytest.approx(v, abs=1e-6)
            povm = mzi.interference_povm(reference)
            entry = kron(mzi.phase_shifter(1.3) @ mzi.HADAMARD, eye_d)
            born = np.trace(entry @ joint_rho @ entry.conj().T @ port_diff).real
            assert np.trace(rho.matrix @ (povm.effect(0) - povm.effect(1))).real == pytest.approx(
                born, abs=1e-12
            )

    def test_which_path_povm_trivial_cases(self):
        rng = np.random.default_rng(43)
        setup = random_setup(rng, 3)
        basis = random_unitary(3, rng)
        all_in = mzi.which_path_povm(setup, mzi.Strategy(basis=basis, subset=frozenset(range(3))))
        np.testing.assert_allclose(all_in.effect(0), np.eye(2), atol=1e-12)
        identity_setup = mzi.MZISetup(rho=setup.rho, rho_d=setup.rho_d, u=np.eye(3), phi=0.0)
        strategy = mzi.Strategy(basis=basis, subset=frozenset({1}))
        povm = mzi.which_path_povm(identity_setup, strategy)
        stats = mzi.strategy_stats(identity_setup, strategy)
        np.testing.assert_allclose(povm.effect(0), stats.eta_s * np.eye(2), atol=1e-12)

    def test_outcome_probabilities_in_range(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            setup = random_setup(rng, 2)
            strategy = mzi.random_strategy(2, rng)
            povm = mzi.which_path_povm(setup, strategy)
            value = np.trace(setup.rho.matrix @ povm.effect(0)).real
            assert -1e-12 <= value <= 1.0 + 1e-12


class TestJointObservable:
    def test_all_subset_empties_second_column(self):
        rng = np.random.default_rng(45)
        setup = random_setup(rng, 3)
        strategy = mzi.Strategy(basis=random_unitary(3, rng), subset=frozenset(range(3)))
        effects = mzi.joint_observable(setup, strategy)
        np.testing.assert_allclose(effects[0, 1], 0, atol=1e-14)
        np.testing.assert_allclose(effects[1, 1], 0, atol=1e-14)

    def test_decoupled_detector_factorizes(self):
        # with U = I and phi = 0 the table is a product of port projectors and
        # subset weights, computable directly
        rng = np.random.default_rng(46)
        setup = mzi.MZISetup(
            rho=random_qubit_state(rng), rho_d=random_detector_state(3, rng), u=np.eye(3), phi=0.0
        )
        strategy = mzi.random_strategy(3, rng)
        stats = mzi.strategy_stats(setup, strategy)
        effects = mzi.joint_observable(setup, strategy)
        ports = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        for i in range(2):
            np.testing.assert_allclose(effects[i, 0], ports[i] * stats.eta_s, atol=1e-12)
            np.testing.assert_allclose(effects[i, 1], ports[i] * stats.eta_sbar, atol=1e-12)

    def test_marginals_completeness_positivity(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            dim = int(rng.integers(2, 5))
            setup = random_setup(rng, dim)
            strategy = mzi.random_strategy(dim, rng)
            effects = mzi.joint_observable(setup, strategy)
            port_povm = mzi.interference_povm(setup)
            guess_povm = mzi.which_path_povm(setup, strategy)
            for i in range(2):
                np.testing.assert_allclose(
                    effects[i, 0] + effects[i, 1], port_povm.effect(i), atol=1e-10
                )
            for j in range(2):
                np.testing.assert_allclose(
                    effects[0, j] + effects[1, j], guess_povm.effect(j), atol=1e-10
                )
            np.testing.assert_allclose(effects.sum(axis=(0, 1)), np.eye(2), atol=1e-10)
            for i in range(2):
                for j in range(2):
                    assert hermitian_eig(effects[i, j]).eigenvalues[0] >= -1e-10

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(48)
        setup = random_setup(rng, 3)
        with pytest.raises(DimensionMismatch):
            mzi.joint_observable(setup, mzi.random_strategy(2, rng))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        phi=st.floats(allow_nan=False, allow_infinity=False),
        kind=st.sampled_from(["random", "empty", "full"]),
    )
    def test_closed_form_matches_full_interferometer(self, dim, seed, phi, kind):
        rng = np.random.default_rng(seed)
        setup = random_setup(rng, dim, phi=phi)
        strategy = mzi.random_strategy(dim, rng)
        if kind != "random":
            subset = frozenset(range(dim)) if kind == "full" else frozenset()
            strategy = mzi.Strategy(basis=strategy.basis, subset=subset)
        effects = mzi.joint_observable(setup, strategy)
        reference = acceptance.reference_joint_observable(setup, strategy)
        assert np.max(np.abs(effects - reference)) <= 1e-12


class TestSampling:
    def test_deterministic_outcomes(self):
        setup = mzi.MZISetup(rho=QubitState(GROUND), rho_d=GROUND, u=np.eye(2), phi=0.0)
        strategy = mzi.Strategy(basis=np.eye(2), subset=frozenset({0, 1}))
        counts = mzi.sample_outcomes(setup, strategy, 5000, seed=2)
        assert np.array_equal(counts, mzi.sample_outcomes(setup, strategy, 5000, seed=2))
        # deterministic physics: quanton exits port 0 and the guess is always S
        assert counts[0, 0] == 5000

    def test_counts_sum_to_shots(self):
        rng = np.random.default_rng(49)
        setup = random_setup(rng, 2)
        strategy = mzi.random_strategy(2, rng)
        assert mzi.sample_outcomes(setup, strategy, 12345, seed=3).sum() == 12345

    def test_binomial_concentration(self):
        rng = np.random.default_rng(50)
        shots = 200_000
        for _ in range(3):
            setup = random_setup(rng, 2)
            strategy = mzi.random_strategy(2, rng)
            probs = mzi.outcome_probabilities(setup, strategy)
            counts = mzi.sample_outcomes(setup, strategy, shots, seed=rng)
            for i in range(2):
                for j in range(2):
                    sigma = np.sqrt(probs[i, j] * (1 - probs[i, j]) / shots)
                    assert abs(counts[i, j] / shots - probs[i, j]) <= max(5 * sigma, 1e-12)

    def test_rejects_zero_shots(self):
        rng = np.random.default_rng(51)
        setup = random_setup(rng, 2)
        with pytest.raises(ValueError):
            mzi.sample_outcomes(setup, mzi.random_strategy(2, rng), 0, seed=0)


class TestTightnessGapAndReport:
    def test_degenerate_stats(self):
        stats = mzi.StrategyStats(eta_s=1.0, eta_sbar=0.0, eta_s_u=1.0, eta_sbar_u=0.0)
        assert mzi.tightness_gap(stats, 0.7, 0.3) == 0.0

    def test_symmetric_cancellation(self):
        stats = mzi.StrategyStats(eta_s=0.3, eta_sbar=0.7, eta_s_u=0.3, eta_sbar_u=0.7)
        assert mzi.tightness_gap(stats, 0.5, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_algebraic_identity(self):
        # D_S^2 + (sqrt(eta_S eta_S^U) + sqrt(eta_Sbar eta_Sbar^U))^2 (1 - P^2)
        # always equals 1 - gap^2
        rng = np.random.default_rng(52)
        for _ in range(10_000):
            eta_s = float(rng.random())
            eta_s_u = float(rng.random())
            w_plus = float(rng.random())
            stats = mzi.StrategyStats(
                eta_s=eta_s, eta_sbar=1.0 - eta_s, eta_s_u=eta_s_u, eta_sbar_u=1.0 - eta_s_u
            )
            d_s = mzi.distinguishability(stats, w_plus, 1.0 - w_plus)
            gap = mzi.tightness_gap(stats, w_plus, 1.0 - w_plus)
            cross = np.sqrt(eta_s * eta_s_u) + np.sqrt((1 - eta_s) * (1 - eta_s_u))
            p = abs(2 * w_plus - 1)
            assert d_s**2 + cross**2 * (1 - p * p) == pytest.approx(1 - gap * gap, abs=1e-12)

    def test_pure_detector_gap_vanishes(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            setup = mzi.MZISetup(
                rho=random_qubit_state(rng),
                rho_d=random_pure_detector_state(dim, rng),
                u=random_unitary(dim, rng),
                phi=0.4,
            )
            stats = mzi.strategy_stats(setup, mzi.optimal_strategy(setup))
            _, w_plus, w_minus = mzi.predictability(setup.rho)
            assert mzi.tightness_gap(stats, w_plus, w_minus) <= 1e-10

    def test_saturation_case(self):
        setup = mzi.MZISetup(
            rho=QubitState.from_bloch([0.3, 0.0, 0.4]),
            rho_d=np.diag([1.0, 0.0]).astype(complex),
            u=np.eye(2),
            phi=0.0,
        )
        report = mzi.duality_report(setup, mzi.optimal_strategy(setup))
        assert report.duality_lhs == pytest.approx(1.0, abs=1e-12)
        assert report.duality_rhs == pytest.approx(1.0, abs=1e-12)

    def test_inequalities_on_random_configurations(self):
        rng = np.random.default_rng(54)
        for trial in range(100):
            dim = int(rng.integers(2, 5))
            setup = random_setup(rng, dim)
            if trial % 2:
                strategy = mzi.random_strategy(dim, rng)
            else:
                strategy = mzi.optimal_strategy(setup)
                report = mzi.duality_report(setup, strategy)
                assert report.jsve_lhs <= 1.0 + 1e-10
            report = mzi.duality_report(setup, strategy)
            assert report.duality_lhs <= report.duality_rhs + 1e-10
            assert -1.0 - 1e-12 <= report.distinguishability <= 1.0 + 1e-12

    def test_visibility_does_not_depend_on_strategy(self):
        rng = np.random.default_rng(55)
        setup = random_setup(rng, 3)
        reports = {
            round(mzi.duality_report(setup, mzi.random_strategy(3, rng)).visibility, 14)
            for _ in range(5)
        }
        assert len(reports) == 1


# The per-setup evaluation the batched kernel replaced, copied from the
# scalar strategy_stats, optimal_strategy, joint_observable and duality_report
# it had before, as the reference the kernel is pinned to.
def reference_stats(setup, basis, subset):
    diag_plain = np.real(np.einsum("ij,jk,ki->i", basis.conj().T, setup.rho_d, basis))
    rotated = setup.u @ setup.rho_d @ setup.u.conj().T
    diag_rot = np.real(np.einsum("ij,jk,ki->i", basis.conj().T, rotated, basis))
    in_s = np.array([k in subset for k in range(len(basis))])
    return (
        float(diag_plain[in_s].sum()),
        float(diag_plain[~in_s].sum()),
        float(diag_rot[in_s].sum()),
        float(diag_rot[~in_s].sum()),
    )


def reference_guess(setup):
    ket_plus, ket_minus = mzi.HADAMARD[:, 0], mzi.HADAMARD[:, 1]
    w_plus = float(np.real(ket_plus.conj() @ setup.rho.matrix @ ket_plus))
    w_minus = float(np.real(ket_minus.conj() @ setup.rho.matrix @ ket_minus))
    guess = w_plus * setup.rho_d - w_minus * (setup.u @ setup.rho_d @ setup.u.conj().T)
    vals, vecs = hermitian_eig(guess)
    return w_plus, w_minus, vals, vecs, frozenset(np.flatnonzero(vals > 1e-12).tolist())


def reference_report(setup, basis, subset):
    ket_plus, ket_minus = mzi.HADAMARD[:, 0], mzi.HADAMARD[:, 1]
    overlap = complex(ket_minus.conj() @ setup.rho.matrix @ ket_plus)
    v0 = 2.0 * abs(overlap)
    phi0 = float(np.angle(overlap)) if v0 >= 1e-12 else 0.0
    w_plus, w_minus, vals, _, _ = reference_guess(setup)
    pred = abs(w_plus - w_minus)
    trace = complex(np.trace(setup.u @ setup.rho_d))
    contrast = abs(trace)
    delta = float(np.angle(np.conj(trace))) if contrast >= 1e-12 else 0.0
    eta_s, eta_sbar, eta_s_u, eta_sbar_u = reference_stats(setup, basis, subset)
    d_s = 2.0 * w_plus * eta_s + 2.0 * w_minus * eta_sbar_u - 1.0
    d_max = float(np.sum(np.abs(vals)))
    left = w_plus * np.sqrt(max(eta_s * eta_sbar, 0.0))
    right = w_minus * np.sqrt(max(eta_s_u * eta_sbar_u, 0.0))
    gap = 2.0 * abs(left - right)
    wave = (1.0 - pred**2) * contrast**2
    return (v0, pred, v0 * contrast, phi0 + 0.0, delta + 0.0, contrast, d_s, d_max, gap,
            d_s**2 + wave, 1.0 - gap**2, d_max**2 + wave)


def reference_joint(setup, basis, subset):
    eta_s, eta_sbar, eta_s_u, eta_sbar_u = reference_stats(setup, basis, subset)
    coherence = setup.u @ setup.rho_d
    overlaps = np.einsum("ij,jk,ki->i", basis.conj().T, coherence, basis)
    xi_s = complex(overlaps[sorted(subset)].sum())
    xi = (xi_s, complex(np.trace(coherence)) - xi_s)
    eta = ((eta_s, eta_s_u), (eta_sbar, eta_sbar_u))
    entry = mzi.phase_shifter(setup.phi) @ mzi.HADAMARD
    effects = np.empty((2, 2, 2, 2), dtype=complex)
    for i, sign in enumerate((1.0, -1.0)):
        for j in range(2):
            middle = [[eta[j][0], sign * xi[j]], [sign * np.conj(xi[j]), eta[j][1]]]
            effects[i, j] = 0.5 * entry.conj().T @ np.array(middle) @ entry
    return effects


@st.composite
def kernel_stacks(draw):
    """(setups, strategies or None): a stack of up to 12 setups of one
    dimension, with Hilbert-Schmidt, pure or degenerate detectors, measured by
    the optimal or by random, empty or full strategies.  Degenerate setups
    put the quanton on the sigma_x axis (V0 = 0, up to rounding) and a pure
    detector state either turned to an orthogonal one (contrast 0, up to
    rounding) or left alone (the guess operator then has d - 1 zero
    eigenvalues, which go to S-bar, and eta products round near 0)."""
    dim = draw(st.integers(2, 8))
    detector = draw(st.sampled_from(["mixed", "pure", "degenerate"]))
    kind = draw(st.sampled_from(["optimal", "random", "empty", "full"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rngs = [np.random.default_rng([seed, k]) for k in range(draw(st.integers(1, 12)))]
    if detector == "degenerate":
        rotate = draw(st.booleans())
        states, unitaries = [], []
        for rng in rngs:
            psi, other = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in "ab")
            psi /= np.linalg.norm(psi)
            other -= (psi.conj() @ other) * psi
            other /= np.linalg.norm(other)
            states.append(np.outer(psi, psi.conj()))
            # a quarter turn taking psi to an orthogonal state, or no coupling
            turn = np.outer(other, psi.conj()) - np.outer(psi, other.conj())
            plane = np.outer(psi, psi.conj()) + np.outer(other, other.conj())
            unitaries.append(np.eye(dim) - plane + turn if rotate else np.eye(dim))
        x = [rng.uniform(-1.0, 1.0) for rng in rngs]
        rho = np.array([QubitState.from_bloch([v, 0.0, 0.0]).matrix for v in x])
        phases = np.array([rng.uniform(0.0, 2.0 * np.pi) for rng in rngs])
        setups = mzi.Setups.validated(rho, np.array(states), np.array(unitaries), phases)
    else:
        state = random_pure_detector_state if detector == "pure" else random_detector_state
        setups = mzi.random_setups(dim, rngs, detector_state=state)
    if kind == "optimal":
        return setups, None
    basis, in_s = mzi.random_strategies(dim, rngs)
    if kind != "random":
        in_s = np.full_like(in_s, kind == "full")
    return setups, mzi.Strategies(basis, in_s)


class TestBatchedKernel:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kernel_stacks())
    def test_kernel_matches_per_setup_reference(self, case):
        setups, strategies = case
        result = mzi.Evaluation(setups, strategies)
        report = np.array(list(vars(result.report).values()))
        stats = np.array(list(vars(result.stats).values()))
        for k in range(len(setups.phi)):
            rho, rho_d, u, phi = setups.rows(k)
            setup = mzi.MZISetup(rho=QubitState(rho), rho_d=rho_d, u=u, phi=phi)
            if strategies is None:
                _, _, _, basis, subset = reference_guess(setup)
                # the optimal guess set, as the projector onto its eigenvectors
                chosen = result.strategies.basis[k][:, result.strategies.in_s[k]]
                wanted = basis[:, sorted(subset)]
                np.testing.assert_allclose(
                    chosen @ chosen.conj().T, wanted @ wanted.conj().T, atol=1e-12
                )
            else:
                basis = strategies.basis[k]
                subset = frozenset(np.flatnonzero(strategies.in_s[k]).tolist())
            got, want = report[:, k].copy(), np.array(reference_report(setup, basis, subset))
            # gamma_S takes square roots of eta products that round to ~1e-17
            # for pure detectors, which turns rounding into ~1e-9; its square,
            # the quantity both sides of the bound read, is well-conditioned
            got[8], want[8] = got[8] ** 2, want[8] ** 2
            np.testing.assert_allclose(got, want, atol=1e-12)
            eta = reference_stats(setup, basis, subset)
            np.testing.assert_allclose(stats[:, k], eta, atol=1e-12)
            joint = reference_joint(setup, basis, subset)
            np.testing.assert_allclose(result.effects[k], joint, atol=1e-12)
            m0, m_vec, n_vec = (part[k] for part in result.pair)
            eta_s, _, eta_s_u, _ = eta
            assert m0 == pytest.approx(0.5 * (eta_s + eta_s_u), abs=1e-12)
            np.testing.assert_allclose(m_vec, [0.5 * (eta_s - eta_s_u), 0.0, 0.0], atol=1e-12)
            _, _, _, _, delta, contrast = reference_report(setup, basis, subset)[:6]
            if contrast >= 1e-12:
                angle = delta + setup.phi
                want = 0.5 * contrast * np.array([0.0, -np.sin(angle), np.cos(angle)])
            else:
                want = np.zeros(3)
            np.testing.assert_allclose(n_vec, want, atol=1e-12)
            min_eig = min(hermitian_eig(e).eigenvalues[0] for e in joint.reshape(4, 2, 2))
            assert result.residuals[0][k] == pytest.approx(min_eig, abs=1e-12)
