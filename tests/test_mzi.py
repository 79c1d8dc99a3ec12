import dataclasses
import json
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzduality.errors import (
    BadDimension,
    DimensionMismatch,
    InvalidArgument,
    MZDualityError,
    NotUnitary,
)
from mzduality.linalg import hermitian_eig
from mzduality import acceptance, mzi
from mzduality.cli import _result_row
from mzduality.jointmeas import JMInstance, build_candidate, instance_from_setup, random_instance
from mzduality.qubit import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    QubitState,
    bloch_to_matrix,
    random_detector_state,
    random_pure_detector_state,
    random_qubit_state,
    random_unitary,
)
from mzduality.qubit_detector import QubitDetectorAnalysis
from mzduality.scenarios import (
    Scenario,
    random_scenario,
    random_scenarios,
    scenario_from_dict,
    scenario_to_dict,
)

GROUND = np.diag([1.0, 0.0]).astype(complex)


def realized_effects(setup, strategy):
    """The port effects and the guess effects, each a (2, 2, 2) pair, of
    the observable pair ``instance_from_setup`` reads."""
    inst = instance_from_setup(setup, strategy)
    ports = bloch_to_matrix(np.stack([inst.n_vec, -inst.n_vec]), 0.5)
    guesses = bloch_to_matrix(np.stack([inst.m_vec, -inst.m_vec]), np.array([inst.m0, 1 - inst.m0]))
    return ports, guesses


def fringes(setup):
    """``(V, delta, contrast)`` of a setup, from its report at the optimum."""
    report = mzi.duality_report(setup, mzi.optimal_strategy(setup))
    return report.visibility, report.delta, report.contrast


def quanton_terms(rho):
    """``(V0, phi0, P)`` of a quanton, read from its report at the optimum."""
    report = mzi.duality_report(mzi.MZISetup(rho, GROUND, np.eye(2)), None)
    return report.a_priori_visibility, report.phi0, report.predictability


def path_weights(rho):
    """``(w+, w-) = ((1 + r_x) / 2, (1 - r_x) / 2)`` from the Bloch vector."""
    r_x = rho.bloch()[0]
    return 0.5 * (1.0 + r_x), 0.5 * (1.0 - r_x)


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

    def test_fields_that_do_not_stack_alike_raise(self):
        setups = mzi.random_setups(2, [np.random.default_rng([56, k]) for k in range(4)])
        rho, rho_d, u, phi = setups.rho.matrix, setups.rho_d, setups.u, setups.phi
        for fields in (
            (rho[:3], rho_d, u, phi[:2]),  # three quantons, four detectors, two phases
            (rho, rho_d, u, phi[:3]),
            (rho[0], rho_d, u, phi),  # one quanton for a stack
            (rho, rho_d, u[:3], phi),
            (rho, rho_d[0], u[0], phi[0]),  # a stack of quantons for one setup
            (rho[None], rho_d[None], u[None], phi[None]),  # two stacking axes
        ):
            with pytest.raises(DimensionMismatch):
                mzi.MZISetup(QubitState(fields[0]), *fields[1:])
        strategies = mzi.random_strategies(3, [np.random.default_rng([57, k]) for k in range(3)])
        for basis, in_s in (
            (strategies.basis, strategies.in_s[0]),
            (strategies.basis[0], strategies.in_s),
            (strategies.basis[None], strategies.in_s[None]),
            (np.array([np.eye(2)] * 3), strategies.in_s),
        ):
            with pytest.raises(DimensionMismatch):
                mzi.Strategy(basis, in_s)
        # the kernel wants one strategy of the setups' dimension per setup
        two = mzi.random_strategies(2, [np.random.default_rng([58, k]) for k in range(4)])
        for given in (two[:3], two[None], strategies[[0, 1, 2, 0]], strategies[0]):
            with pytest.raises(DimensionMismatch):
                mzi.Evaluation(setups, given)
        with pytest.raises(DimensionMismatch):
            mzi.Evaluation(setups[0], two)

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    def test_non_finite_phase_rejected(self, phi):
        with pytest.raises(InvalidArgument):
            mzi.MZISetup(rho=QubitState(GROUND), rho_d=GROUND, u=np.eye(2), phi=phi)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31), st.integers(0, 10**4), st.integers(2, 8), st.booleans())
    def test_random_setup_is_the_sweep_setup(self, seed, index, dim, optimal):
        setup = mzi.random_setups(dim, [np.random.default_rng([seed, index])])[0]
        swept = random_scenario(seed, index, dim, optimal).setup
        np.testing.assert_array_equal(setup.rho.matrix, swept.rho.matrix)
        np.testing.assert_array_equal(setup.rho_d, swept.rho_d)
        np.testing.assert_array_equal(setup.u, swept.u)
        assert setup.phi == swept.phi


def three_setups():
    return mzi.random_setups(2, [np.random.default_rng([61, k]) for k in range(3)])


# types that hold arrays, so the field-by-field equality a dataclass writes
# would ask numpy for the truth of an array
ARRAY_HOLDERS = {
    "StrategyStats": lambda: mzi.Evaluation(three_setups()).stats,
    "DualityReport": lambda: mzi.Evaluation(three_setups()).report,
    "MZISetup": lambda: mzi.random_setups(2, [np.random.default_rng(1)])[0],
    "Strategy": lambda: mzi.random_strategies(2, [np.random.default_rng(1)])[0],
    "QubitState": lambda: random_qubit_state(1),
    "JMInstance": lambda: random_instance(1),
    "JointCandidate": lambda: build_candidate(random_instance(1), 0.0, np.zeros(3)),
    "QubitDetectorAnalysis": lambda: QubitDetectorAnalysis([0.0, 0.0, 0.5], [0.0, 0.5, 0.0], 0.2),
    "Scenario": lambda: random_scenario(1, 0, 2, True),
}


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holders_compare_and_hash_by_identity(name):
    one, twin = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert type(one).__name__ == name
    assert (one == one) is True and (one == twin) is False and (one != twin) is True
    assert len({one, twin, one}) == 2


class TestVisibilityAndPredictability:
    def test_equal_superposition_of_paths(self):
        v0, _, _ = quanton_terms(QubitState(GROUND))
        assert v0 == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed(self):
        v0, phi0, _ = quanton_terms(QubitState(np.eye(2) / 2))
        assert v0 == pytest.approx(0.0, abs=1e-14)
        assert phi0 == 0.0

    def test_grid_search_oracle(self):
        # V0 is the maximum of tr(rho sigma_phi) over the phase
        rng = np.random.default_rng(31)
        phases = np.linspace(0.0, 2 * np.pi, 10_000, endpoint=False)
        for _ in range(10):
            rho = random_qubit_state(rng)
            v0, phi0, _ = quanton_terms(rho)
            # tr(rho sigma_phi), with sigma_phi = cos(phi) sigma_z - sin(phi) sigma_y
            values = [np.trace(rho.matrix @ (np.cos(p) * SIGMA_Z - np.sin(p) * SIGMA_Y)).real
                      for p in phases]
            assert v0 == pytest.approx(max(values), abs=1e-6)
            sharp = np.cos(phi0) * SIGMA_Z - np.sin(phi0) * SIGMA_Y
            assert np.trace(rho.matrix @ sharp).real == pytest.approx(v0, abs=1e-12)

    def test_single_path(self):
        plus = QubitState.from_bloch([1.0, 0.0, 0.0])
        v0, _, p = quanton_terms(plus)
        assert p == pytest.approx(1.0, abs=1e-14)
        assert v0 == pytest.approx(0.0, abs=1e-14)

    def test_no_bias(self):
        assert quanton_terms(QubitState(GROUND))[2] == pytest.approx(0.0, abs=1e-14)

    def test_duality_of_preparation(self):
        rng = np.random.default_rng(32)
        for _ in range(500):
            rho = random_qubit_state(rng)
            v0, _, p = quanton_terms(rho)
            w_plus, w_minus = path_weights(rho)
            assert p == pytest.approx(abs(w_plus - w_minus), abs=1e-12)
            assert p * p + v0 * v0 <= 1.0 + 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3), min_size=1, max_size=8))
    @example([(0.0, 0.0, 0.0), (0.6, 0.0, 0.0), (0.0, 0.0, -1.0), (0.3, 1e-13, 0.0)])
    def test_stack_matches_bloch_closed_forms(self, vectors):
        # V0 = sqrt(r_y^2 + r_z^2), phi0 = atan2(-r_y, r_z) and P = |r_x|
        r = np.array(vectors)
        r /= np.maximum(np.linalg.norm(r, axis=1), 1.0)[:, None]
        n = len(r)
        setups = mzi.MZISetup(
            QubitState.from_bloch(r), np.tile(GROUND, (n, 1, 1)), np.tile(np.eye(2), (n, 1, 1)),
            np.zeros(n),
        )
        report = mzi.Evaluation(setups).report
        v0 = np.hypot(r[:, 1], r[:, 2])
        assert np.abs(report.a_priori_visibility - v0).max() <= 1e-12
        assert np.abs(report.predictability - np.abs(r[:, 0])).max() <= 1e-12
        # the phase as far as V0 resolves it, so atan2's branch cut at pi does not matter
        resolved = v0 >= 1e-12
        phase = v0 * np.exp(1j * report.phi0) - (r[:, 2] - 1j * r[:, 1])
        assert np.abs(phase[resolved]).max(initial=0.0) <= 1e-12
        assert (report.phi0[~resolved] == 0.0).all()


class TestVisibilityWithDetector:
    def test_identity_coupling(self):
        rng = np.random.default_rng(33)
        setup = mzi.MZISetup(
            rho=random_qubit_state(rng), rho_d=random_detector_state(3, rng), u=np.eye(3), phi=0.2
        )
        v, delta, contrast = fringes(setup)
        assert contrast == pytest.approx(1.0, abs=1e-12)
        assert delta == 0.0
        assert v == pytest.approx(np.hypot(*setup.rho.bloch()[1:]), abs=1e-12)

    def test_orthogonal_flip_kills_visibility(self):
        setup = mzi.MZISetup(
            rho=QubitState(GROUND), rho_d=GROUND, u=SIGMA_X, phi=0.0
        )
        v, _, contrast = fringes(setup)
        assert v == contrast == 0.0

    def test_contrast_independent_of_quanton(self):
        rng = np.random.default_rng(34)
        rho_d = random_detector_state(3, rng)
        u = random_unitary(3, rng)
        ratios = set()
        for _ in range(5):
            setup = mzi.MZISetup(rho=random_qubit_state(rng), rho_d=rho_d, u=u, phi=0.1)
            ratios.add(round(fringes(setup)[2], 13))
        assert len(ratios) == 1


class TestStrategiesAndDistinguishability:
    def test_all_and_empty_subsets(self):
        rng = np.random.default_rng(35)
        setup = random_setup(rng, 3)
        basis = random_unitary(3, rng)
        full = mzi.strategy_stats(setup, mzi.Strategy.from_subset(basis, range(3)))
        assert (full.eta_s, full.eta_s_u) == pytest.approx((1.0, 1.0), abs=1e-12)
        empty = mzi.strategy_stats(setup, mzi.Strategy.from_subset(basis, []))
        assert (empty.eta_s, empty.eta_s_u) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_probability_ranges(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            setup = random_setup(rng, int(rng.integers(2, 5)))
            stats = mzi.strategy_stats(setup, mzi.random_strategies(setup.detector_dim, [rng])[0])
            for value in (stats.eta_s, stats.eta_sbar, stats.eta_s_u, stats.eta_sbar_u):
                assert -1e-12 <= value <= 1.0 + 1e-12

    def test_identity_all_subset(self):
        rng = np.random.default_rng(37)
        rho = random_qubit_state(rng)
        setup = mzi.MZISetup(rho=rho, rho_d=random_detector_state(2, rng), u=np.eye(2), phi=0.0)
        w_plus, _ = path_weights(rho)
        stats = mzi.strategy_stats(
            setup, mzi.Strategy.from_subset(np.eye(2), [0, 1])
        )
        assert mzi.distinguishability(stats, w_plus, 1 - w_plus) == pytest.approx(
            2 * w_plus - 1, abs=1e-12
        )

    def test_perfect_which_path_marking(self):
        # unbiased quanton, ground detector flipped to an orthogonal state
        setup = mzi.MZISetup(rho=QubitState(GROUND), rho_d=GROUND, u=SIGMA_X, phi=0.0)
        strategy = mzi.Strategy.from_subset(np.eye(2), [0])
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
                abs(rho.bloch()[0]), abs=1e-10
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
            w_plus, w_minus = path_weights(setup.rho)
            d_max = mzi.max_distinguishability(setup)
            vals, vecs = hermitian_eig(mzi.Evaluation(setup).guess[0][0])
            best = max(
                mzi.distinguishability(
                    mzi.strategy_stats(setup, mzi.Strategy.from_subset(vecs, sub)),
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
                stats = mzi.strategy_stats(setup, mzi.random_strategies(dim, [rng])[0])
                assert mzi.distinguishability(stats, w_plus, w_minus) <= d_max + 1e-10

    def test_stats_do_not_depend_on_phase(self):
        rng = np.random.default_rng(41)
        base = random_setup(rng, 3, phi=0.0)
        strategy = mzi.random_strategies(3, [rng])[0]
        shifted = mzi.MZISetup(rho=base.rho, rho_d=base.rho_d, u=base.u, phi=2.1)
        stats = mzi.strategy_stats(base, strategy), mzi.strategy_stats(shifted, strategy)
        assert vars(stats[0]) == vars(stats[1])


class TestPovms:
    def test_interference_povm_sharp_case(self):
        setup = mzi.MZISetup(
            rho=QubitState(GROUND), rho_d=GROUND, u=np.eye(2), phi=0.0
        )
        ports, _ = realized_effects(setup, mzi.optimal_strategy(setup))
        np.testing.assert_allclose(ports[0], np.diag([1.0, 0.0]), atol=1e-14)

    def test_interference_povm_zero_contrast(self):
        setup = mzi.MZISetup(rho=QubitState(GROUND), rho_d=GROUND, u=SIGMA_X, phi=0.0)
        ports, _ = realized_effects(setup, mzi.optimal_strategy(setup))
        np.testing.assert_allclose(ports[0], np.eye(2) / 2, atol=1e-14)

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
            v, _, _ = fringes(reference)
            assert best == pytest.approx(v, abs=1e-6)
            ports, _ = realized_effects(reference, mzi.optimal_strategy(reference))
            entry = kron(mzi.phase_shifter(1.3) @ mzi.HADAMARD, eye_d)
            born = np.trace(entry @ joint_rho @ entry.conj().T @ port_diff).real
            assert np.trace(rho.matrix @ (ports[0] - ports[1])).real == pytest.approx(
                born, abs=1e-12
            )

    def test_which_path_povm_trivial_cases(self):
        rng = np.random.default_rng(43)
        setup = random_setup(rng, 3)
        basis = random_unitary(3, rng)
        _, all_in = realized_effects(setup, mzi.Strategy.from_subset(basis, range(3)))
        np.testing.assert_allclose(all_in[0], np.eye(2), atol=1e-12)
        identity_setup = mzi.MZISetup(rho=setup.rho, rho_d=setup.rho_d, u=np.eye(3), phi=0.0)
        strategy = mzi.Strategy.from_subset(basis, [1])
        _, guesses = realized_effects(identity_setup, strategy)
        stats = mzi.strategy_stats(identity_setup, strategy)
        np.testing.assert_allclose(guesses[0], stats.eta_s * np.eye(2), atol=1e-12)

    def test_outcome_probabilities_in_range(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            setup = random_setup(rng, 2)
            strategy = mzi.random_strategies(2, [rng])[0]
            _, guesses = realized_effects(setup, strategy)
            value = np.trace(setup.rho.matrix @ guesses[0]).real
            assert -1e-12 <= value <= 1.0 + 1e-12


class TestJointObservable:
    def test_all_subset_empties_second_column(self):
        rng = np.random.default_rng(45)
        setup = random_setup(rng, 3)
        strategy = mzi.Strategy.from_subset(random_unitary(3, rng), range(3))
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
        strategy = mzi.random_strategies(3, [rng])[0]
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
            strategy = mzi.random_strategies(dim, [rng])[0]
            effects = mzi.joint_observable(setup, strategy)
            ports, guesses = realized_effects(setup, strategy)
            for i in range(2):
                np.testing.assert_allclose(effects[i, 0] + effects[i, 1], ports[i], atol=1e-10)
            for j in range(2):
                np.testing.assert_allclose(effects[0, j] + effects[1, j], guesses[j], atol=1e-10)
            np.testing.assert_allclose(effects.sum(axis=(0, 1)), np.eye(2), atol=1e-10)
            for i in range(2):
                for j in range(2):
                    assert hermitian_eig(effects[i, j]).eigenvalues[0] >= -1e-10

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(48)
        setup = random_setup(rng, 3)
        with pytest.raises(DimensionMismatch):
            mzi.joint_observable(setup, mzi.random_strategies(2, [rng])[0])

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
        strategy = mzi.random_strategies(dim, [rng])[0]
        if kind != "random":
            strategy = mzi.Strategy(strategy.basis, np.full(dim, kind == "full"))
        effects = mzi.joint_observable(setup, strategy)
        reference = acceptance.reference_joint_observable(setup[None], strategy[None])[0]
        assert np.max(np.abs(effects - reference)) <= 1e-12


class TestSampling:
    def test_deterministic_outcomes(self):
        setup = mzi.MZISetup(rho=QubitState(GROUND), rho_d=GROUND, u=np.eye(2), phi=0.0)
        strategy = mzi.Strategy.from_subset(np.eye(2), [0, 1])
        probs = mzi.outcome_probabilities(setup, strategy)
        counts = mzi.sample_outcomes(probs, 5000, seed=2)
        assert np.array_equal(counts, mzi.sample_outcomes(probs, 5000, seed=2))
        # deterministic physics: quanton exits port 0 and the guess is always S
        assert counts[0, 0] == 5000

    def test_counts_sum_to_shots(self):
        rng = np.random.default_rng(49)
        setup = random_setup(rng, 2)
        probs = mzi.outcome_probabilities(setup, mzi.random_strategies(2, [rng])[0])
        assert mzi.sample_outcomes(probs, 12345, seed=3).sum() == 12345

    def test_draws_one_multinomial_of_the_table(self):
        rng = np.random.default_rng(52)
        for seed in range(4):
            setup = random_setup(rng, 2 + seed)
            probs = mzi.outcome_probabilities(setup, mzi.random_strategies(2 + seed, [rng])[0])
            expected = np.random.default_rng(seed).multinomial(1000, probs.ravel()).reshape(2, 2)
            assert np.array_equal(mzi.sample_outcomes(probs, 1000, seed), expected)

    def test_binomial_concentration(self):
        rng = np.random.default_rng(50)
        shots = 200_000
        for _ in range(3):
            setup = random_setup(rng, 2)
            strategy = mzi.random_strategies(2, [rng])[0]
            probs = mzi.outcome_probabilities(setup, strategy)
            counts = mzi.sample_outcomes(probs, shots, seed=rng)
            for i in range(2):
                for j in range(2):
                    sigma = np.sqrt(probs[i, j] * (1 - probs[i, j]) / shots)
                    assert abs(counts[i, j] / shots - probs[i, j]) <= max(5 * sigma, 1e-12)

    def test_rejects_zero_shots(self):
        rng = np.random.default_rng(51)
        setup = random_setup(rng, 2)
        probs = mzi.outcome_probabilities(setup, mzi.random_strategies(2, [rng])[0])
        with pytest.raises(ValueError):
            mzi.sample_outcomes(probs, 0, seed=0)

    @pytest.mark.parametrize("shots", [2.7, np.nan, np.inf, "5", True, 0, -3, 10**30, 2**63])
    def test_rejects_shot_counts_that_are_not_counts(self, shots):
        # a float is not truncated, and a count numpy cannot take is refused as invalid input
        probs = np.full((2, 2), 0.25)
        with pytest.raises(InvalidArgument, match=re.escape(str(shots))):
            mzi.sample_outcomes(probs, shots, seed=0)

    def test_takes_any_integer_count_numpy_takes(self):
        probs = np.full((2, 2), 0.25)
        assert mzi.sample_outcomes(probs, np.int64(7), seed=0).sum() == 7
        assert mzi.sample_outcomes(probs, 2**63 - 1, seed=0).sum() == 2**63 - 1


# The per-entry z-score loops that mzi.z_scores replaces, copied from before:
# the table `sample` prints, and criterion 8's worst score.
def loop_z_scores(probs, counts, shots):
    freqs = counts / shots
    z_scores = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            sigma = np.sqrt(max(probs[i, j] * (1.0 - probs[i, j]), 0.0) / shots)
            z_scores[i, j] = (freqs[i, j] - probs[i, j]) / sigma if sigma > 0 else 0.0
    return z_scores


def loop_worst_z(probs, counts, shots):
    freqs = counts / shots
    worst_z = 0.0
    for i in range(2):
        for j in range(2):
            p = probs[i, j]
            sigma = np.sqrt(max(p * (1.0 - p), 0.0) / shots)
            if sigma == 0.0:
                if freqs[i, j] != p:
                    worst_z = np.inf
                continue
            worst_z = max(worst_z, abs(freqs[i, j] - p) / sigma)
    return worst_z


# outcome weights, zeros included, normalized as outcome_probabilities does
weight_tables = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), min_size=4, max_size=4
).filter(any)


def outcome_table(weights):
    probs = np.array(weights).reshape(2, 2)
    return probs / probs.sum()


class TestZScores:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(weight_tables, st.integers(1, 10**15), st.integers(0, 2**32 - 1))
    @example([1.0, 0.0, 0.0, 0.0], 1000, 0)
    @example([0.0, 0.3, 0.0, 0.7], 1, 1)
    @example([0.25, 0.25, 0.25, 0.25], 10**6, 2)
    def test_matches_the_sample_loop_bit_for_bit(self, weights, shots, seed):
        probs = outcome_table(weights)
        counts = np.random.default_rng(seed).multinomial(shots, probs.ravel()).reshape(2, 2)
        scores = mzi.z_scores(probs, counts)
        assert scores.tobytes() == loop_z_scores(probs, counts, shots).tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(weight_tables, st.lists(st.integers(0, 10**9), min_size=4, max_size=4).filter(any))
    @example([1.0, 0.0, 0.0, 0.0], [5, 0, 0, 0])
    @example([1.0, 0.0, 0.0, 0.0], [4, 1, 0, 0])
    @example([0.0, 0.5, 0.5, 0.0], [1, 3, 4, 0])
    def test_worst_score_matches_the_criterion_loop(self, weights, counts):
        # any counts, also ones a sample cannot give: a zero-probability
        # outcome that occurs scores inf
        probs, counts = outcome_table(weights), np.array(counts).reshape(2, 2)
        worst = float(np.max(np.abs(mzi.z_scores(probs, counts))))
        assert worst == loop_worst_z(probs, counts, int(counts.sum()))


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
            w_plus, w_minus = path_weights(setup.rho)
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
                strategy = mzi.random_strategies(dim, [rng])[0]
            else:
                strategy = mzi.optimal_strategy(setup)
                report = mzi.duality_report(setup, strategy)
                assert report.jsve_lhs <= 1.0 + 1e-10
            report = mzi.duality_report(setup, strategy)
            assert report.duality_lhs <= report.duality_rhs + 1e-10
            assert -1.0 - 1e-12 <= report.distinguishability <= 1.0 + 1e-12

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        pure=st.booleans(),
        kind=st.sampled_from(["random", "empty", "full"]),
    )
    def test_strategy_resolved_bound_property(self, dim, seed, pure, kind):
        # D_S^2 + (1 - P^2) C^2 <= 1 - gamma_S^2 for every strategy
        rng = np.random.default_rng(seed)
        setup = random_setup(rng, dim)
        if pure:
            setup = mzi.MZISetup(rho=setup.rho, rho_d=random_pure_detector_state(dim, rng),
                                 u=setup.u, phi=setup.phi)
        strategy = mzi.random_strategies(dim, [rng])[0]
        if kind != "random":
            strategy = mzi.Strategy(strategy.basis, np.full(dim, kind == "full"))
        r = mzi.duality_report(setup, strategy)
        lhs = r.distinguishability**2 + (1.0 - r.predictability**2) * r.contrast**2
        assert lhs <= 1.0 - r.tightness_gap**2 + 1e-10

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), pure=st.booleans())
    def test_classic_bound_at_the_optimum_property(self, dim, seed, pure):
        rng = np.random.default_rng(seed)
        state = random_pure_detector_state if pure else random_detector_state
        setup = mzi.MZISetup(rho=random_qubit_state(rng), rho_d=state(dim, rng),
                             u=random_unitary(dim, rng), phi=float(rng.uniform(0, 2 * np.pi)))
        assert mzi.duality_report(setup, mzi.optimal_strategy(setup)).jsve_lhs <= 1.0 + 1e-10

    def test_visibility_does_not_depend_on_strategy(self):
        rng = np.random.default_rng(55)
        setup = random_setup(rng, 3)
        reports = {
            round(mzi.duality_report(setup, mzi.random_strategies(3, [rng])[0]).visibility, 14)
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
        rho = QubitState(np.array([QubitState.from_bloch([v, 0.0, 0.0]).matrix for v in x]))
        phases = np.array([rng.uniform(0.0, 2.0 * np.pi) for rng in rngs])
        setups = mzi.MZISetup(rho, np.array(states), np.array(unitaries), phases)
    else:
        setups = mzi.random_setups(dim, rngs, pure=detector == "pure")
    if kind == "optimal":
        return setups, None
    strategies = mzi.random_strategies(dim, rngs)
    if kind != "random":
        strategies = mzi.Strategy(strategies.basis, np.full_like(strategies.in_s, kind == "full"))
    return setups, strategies


class TestBatchedKernel:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kernel_stacks())
    def test_kernel_matches_per_setup_reference(self, case):
        setups, strategies = case
        result = mzi.Evaluation(setups, strategies)
        report = np.array(list(vars(result.report).values()))
        stats = np.array(list(vars(result.stats).values()))
        for k in range(len(setups.phi)):
            setup = setups[k]
            if strategies is None:
                _, _, _, basis, subset = reference_guess(setup)
                # the optimal guess set, as the projector onto its eigenvectors
                chosen = result.strategies.basis[k][:, result.strategies.in_s[k]]
                wanted = basis[:, sorted(subset)]
                np.testing.assert_allclose(
                    chosen @ chosen.conj().T, wanted @ wanted.conj().T, atol=1e-12
                )
            else:
                basis, subset = strategies.basis[k], strategies[k].subset
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
            pair = result.pair[k]
            m0, m_vec, n_vec = pair.m0, pair.m_vec, pair.n_vec
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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(kernel_stacks())
    def test_distinguishability_alone_is_the_report_column(self, case):
        setups, strategies = case
        alone = mzi.Evaluation(setups, strategies)
        d_s = alone.distinguishability
        if strategies is not None:
            # given strategies need no eigendecomposition for D_S
            assert "guess" not in alone.__dict__
        report = mzi.Evaluation(setups, strategies).report
        assert d_s.tobytes() == report.distinguishability.tobytes()


def evaluation_columns(result):
    """Every column of an evaluation, as (name, array with leading axis N)."""
    yield "strategies.basis", result.strategies.basis
    yield "strategies.in_s", result.strategies.in_s
    for record in ("report", "stats"):
        for name, column in vars(getattr(result, record)).items():
            yield f"{record}.{name}", column
    for name, column in vars(result.pair).items():
        yield f"pair.{name}", column
    yield "effects", result.effects
    for name, column in zip(("min_eig", "completeness", "marginal"), result.residuals):
        yield f"residuals.{name}", column


# a bad value for one row of one field, and the error that row raises alone
BAD_SETUP_ROWS = {
    "quanton not positive": ("rho", np.array([[0.5, 0.6], [0.6, 0.5]]), "InvalidState"),
    "quanton trace": ("rho", np.diag([0.5, 0.6]), "InvalidState"),
    "quanton entry 1e300": ("rho", np.array([[1e300, 0.0], [0.0, 0.5]]), "InvalidState"),
    "detector not Hermitian": ("rho_d", "upper", "InvalidState"),
    "detector nan": ("rho_d", np.nan, "DimensionMismatch"),
    "unitary scaled": ("u", 0.5, "NotUnitary"),
    "unitary entry 1e300": ("u", 1e300, "NotUnitary"),
    "phase inf": ("phi", np.inf, "InvalidArgument"),
}


def record_validations(monkeypatch):
    """A list that gets the class name of each QubitState, MZISetup and
    Strategy validated from now on."""
    checked = []
    for cls in (QubitState, mzi.MZISetup, mzi.Strategy):
        check = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__",
            lambda self, check=check, name=cls.__name__: checked.append(name) or check(self),
        )
    return checked


# the functions that read one setup through mzi.evaluate_setup, on a setup and a strategy
SINGLE_SETUP_CALLS = {
    "strategy_stats": mzi.strategy_stats,
    "optimal_strategy": lambda setup, strategy: mzi.optimal_strategy(setup),
    "max_distinguishability": lambda setup, strategy: mzi.max_distinguishability(setup),
    "joint_observable": mzi.joint_observable,
    "duality_report": mzi.duality_report,
    "outcome_probabilities": mzi.outcome_probabilities,
    "instance_from_setup": instance_from_setup,
    "joint_observable_residuals": acceptance.joint_observable_residuals,
    "setup_violations": acceptance.setup_violations,
}


def as_bytes(value):
    """A single-setup function's result, bit for bit: records and pairs field
    by field, arrays and floats as their bytes."""
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [as_bytes(item) for item in value]
    if dataclasses.is_dataclass(value):
        return {f.name: as_bytes(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return np.asarray(value).tobytes()


def rebuilt(setup, strategy):
    """A fresh setup and strategy, validated, from the arrays of a row."""
    fresh = mzi.MZISetup(QubitState(setup.rho.matrix), setup.rho_d, setup.u, setup.phi)
    return fresh, None if strategy is None else mzi.Strategy(strategy.basis, strategy.in_s)


def spy_eig(patch):
    """A list that gets the shape of each stack ``mzi`` eigendecomposes from now on."""
    shapes = []
    patch.setattr(mzi, "hermitian_eig", lambda a: shapes.append(a.shape) or hermitian_eig(a))
    return shapes


class TestStacksAndRows:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(kernel_stacks())
    def test_a_stack_is_its_rows_one_by_one(self, case):
        # every column, bit for bit: d = 2..8, optimal, random, empty and full
        # strategies, and degenerate setups
        setups, strategies = case
        stacked = dict(evaluation_columns(mzi.Evaluation(setups, strategies)))
        for k in range(len(setups.phi)):
            alone = mzi.Evaluation(setups[k], None if strategies is None else strategies[k])
            for name, column in evaluation_columns(alone):
                assert column.shape[0] == 1, name
                assert column[0].tobytes() == stacked[name][k].tobytes(), (k, name)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 8),
        size=st.integers(1, 6),
        share=st.floats(0.0, 1.0, exclude_max=True),
        bad=st.sampled_from(sorted(BAD_SETUP_ROWS)),
    )
    def test_a_stack_with_one_bad_row_raises_as_that_row(self, dim, size, share, bad):
        setups = mzi.random_setups(dim, [np.random.default_rng([59, k]) for k in range(size)])
        fields = {"rho": setups.rho.matrix.copy(), "rho_d": setups.rho_d.copy(),
                  "u": setups.u.copy(), "phi": setups.phi.copy()}
        field, value, error = BAD_SETUP_ROWS[bad]
        row = int(share * size)
        if isinstance(value, str):  # one entry above the diagonal changed
            fields[field][row, 0, 1] += 0.1
        elif field in ("rho", "phi"):
            fields[field][row] = value
        else:
            fields[field][row] *= value

        def build(rows):
            return mzi.MZISetup(QubitState(fields["rho"][rows]), *(
                fields[name][rows] for name in ("rho_d", "u", "phi")))

        for rows in (row, slice(None)):
            with pytest.raises(MZDualityError) as caught:
                build(rows)
            assert type(caught.value).__name__ == error

    @pytest.mark.parametrize("row", [0, 2, 4])
    def test_a_strategy_stack_with_one_bad_row_raises_as_that_row(self, row):
        strategies = mzi.random_strategies(3, [np.random.default_rng([60, k]) for k in range(5)])
        basis = strategies.basis.copy()
        basis[row, :, 0] *= 1.5
        for rows in (row, slice(None)):
            with pytest.raises(NotUnitary):
                mzi.Strategy(basis[rows], strategies.in_s[rows])

    @pytest.mark.parametrize("name", sorted(SINGLE_SETUP_CALLS))
    def test_the_single_setup_functions_refuse_a_stack(self, name):
        # rather than read its row 0
        strategies = mzi.random_strategies(2, [np.random.default_rng([62, k]) for k in range(3)])
        with pytest.raises(DimensionMismatch, match="stack of 3 setups.*use Evaluation"):
            SINGLE_SETUP_CALLS[name](three_setups(), strategies)

    def test_taking_rows_does_not_validate(self, monkeypatch):
        checked = record_validations(monkeypatch)
        rngs = [np.random.default_rng([61, k]) for k in range(5)]
        setups, strategies = mzi.random_setups(3, rngs), mzi.random_strategies(3, rngs)
        assert checked == ["QubitState", "MZISetup", "Strategy"]
        for rows in (2, slice(1, 4), np.array([4, 0, 0]), None):
            setup_rows, strategy_rows = setups[rows], strategies[rows]
            np.testing.assert_array_equal(setup_rows.rho.matrix, setups.rho.matrix[rows])
            np.testing.assert_array_equal(setup_rows.u, setups.u[rows])
            np.testing.assert_array_equal(setup_rows.phi, setups.phi[rows])
            np.testing.assert_array_equal(strategy_rows.in_s, strategies.in_s[rows])
        # nor does reading one setup as a stack of one, or a row's report
        one = setups[1]
        mzi.duality_report(one, mzi.optimal_strategy(one))
        mzi.duality_report(one, strategies[1])
        assert checked == ["QubitState", "MZISetup", "Strategy"]

    @pytest.mark.parametrize("optimal", [[True] * 4, [False, True, False, False]])
    def test_a_sweep_chunk_validates_each_stack_once(self, optimal, monkeypatch):
        checked = record_validations(monkeypatch)
        scenarios = random_scenarios(62, range(4), 3, optimal)
        assert checked == ["QubitState", "MZISetup", "Strategy"]
        for scenario in scenarios:
            mzi.duality_report(scenario.setup, scenario.strategy)
        assert len(checked) == 3

    def test_a_sweep_chunk_is_one_kernel_stack(self, monkeypatch):
        # the optimal rows and the drawn-strategy rows share one stack
        shapes = spy_eig(monkeypatch)
        for scenario in random_scenarios(62, range(6), 3, [True, False] * 3):
            mzi.duality_report(scenario.setup, scenario.strategy)
            acceptance.setup_violations(scenario.setup, scenario.strategy)
            instance_from_setup(scenario.setup, scenario.strategy)
        assert shapes == [(6, 3, 3)]

    def test_a_sweep_chunk_validates_its_realized_pairs_as_one_stack(self, monkeypatch):
        # the pairs of the optimal and of the drawn-strategy rows, checked
        # together once: no row's pair is checked again
        checked, check = [], JMInstance.__post_init__
        monkeypatch.setattr(
            JMInstance, "__post_init__", lambda self: checked.append(self) or check(self)
        )
        for scenario in random_scenarios(62, range(6), 3, [True, False] * 3):
            _result_row(scenario)
            acceptance.setup_violations(scenario.setup, scenario.strategy)
        assert [np.shape(inst.m0) for inst in checked] == [(6,)]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        pure=st.booleans(),
        optimal=st.lists(st.booleans(), min_size=1, max_size=8),
    )
    @example(dim=3, seed=64, pure=False, optimal=[True] * 5)
    @example(dim=3, seed=64, pure=False, optimal=[False] * 5)
    def test_a_mixed_stack_is_its_split_stacks(self, dim, seed, pure, optimal):
        # every column sweep reads, bit for bit, against one evaluation of the
        # optimal rows and one of the drawn-strategy rows
        rngs = [np.random.default_rng([seed, k]) for k in range(len(optimal))]
        setups, flags = mzi.random_setups(dim, rngs, pure=pure), np.array(optimal)
        drawn = mzi.random_strategies(dim, [rng for rng, flag in zip(rngs, optimal) if not flag])
        mixed = mzi.Evaluation(setups, drawn, optimal)
        columns = dict(evaluation_columns(mixed))
        for flag, split in ((True, None), (False, drawn)):
            rows = np.flatnonzero(flags == flag)
            if len(rows) == 0:
                continue
            for name, column in evaluation_columns(mzi.Evaluation(setups[rows], split)):
                assert column.shape == columns[name][rows].shape, (flag, name)
                assert column.tobytes() == columns[name][rows].tobytes(), (flag, name)
        if not any(optimal):
            # given strategies alone still need no eigendecomposition
            given = mzi.Evaluation(setups, drawn, optimal)
            for name in ("distinguishability", "stats", "pair", "effects", "residuals"):
                getattr(given, name)
            assert "guess" not in given.__dict__

    @pytest.mark.parametrize("read", [mzi.Evaluation, mzi.evaluated_rows])
    @pytest.mark.parametrize(
        "optimal, strategies, message",
        [
            ([True, False, True], 1, "optimal mask of 3 rows for 4 setups"),
            ([True, False, False, True], 1, "1 strategies of dimension 3 for 2 non-optimal setups"),
        ],
        ids=["mask length", "drawn rows"],
    )
    def test_a_mask_that_does_not_fit_raises(self, read, optimal, strategies, message):
        rngs = [np.random.default_rng([65, k]) for k in range(4)]
        setups = mzi.random_setups(3, rngs)
        drawn = mzi.random_strategies(3, rngs[:strategies])
        with pytest.raises(DimensionMismatch, match=message):
            read(setups, drawn, optimal)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        optimal=st.lists(st.booleans(), min_size=1, max_size=8),
    )
    def test_a_bound_row_reads_what_a_fresh_setup_reads(self, dim, seed, optimal):
        for name, call in SINGLE_SETUP_CALLS.items():
            # a new chunk for each function, so that each reads rows still bound
            for scenario in random_scenarios(seed, range(len(optimal)), dim, optimal):
                fresh = rebuilt(scenario.setup, scenario.strategy)
                got = call(scenario.setup, scenario.strategy)
                assert as_bytes(got) == as_bytes(call(*fresh)), (name, scenario.name)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        optimal=st.lists(st.booleans(), min_size=1, max_size=8),
    )
    def test_a_row_read_under_another_strategy_object_is_evaluated_afresh(
        self, dim, seed, optimal
    ):
        # the binding is keyed by the strategy object, not by its values
        reads = {
            "optimal_strategy": lambda setup, twin: mzi.optimal_strategy(setup),
            "duality_report under None": lambda setup, twin: mzi.duality_report(setup, None),
            "duality_report under an equal strategy": mzi.duality_report,
        }
        for name, read in reads.items():
            scenarios = random_scenarios(seed, range(len(optimal)), dim, optimal)
            drawn = [scenario for scenario in scenarios if scenario.strategy is not None]
            for scenario in drawn:  # the shared stack is eigendecomposed now
                mzi.duality_report(scenario.setup, scenario.strategy)
            with pytest.MonkeyPatch.context() as patch:
                shapes = spy_eig(patch)
                for scenario in drawn:
                    fresh, twin = rebuilt(scenario.setup, scenario.strategy)
                    got = read(scenario.setup, twin)
                    assert as_bytes(got) == as_bytes(read(fresh, twin)), (name, scenario.name)
            # one evaluation of one row for the fresh setup and one for the
            # bound row: the shared stack, already decomposed, is not read
            assert shapes == [(1, dim, dim)] * 2 * len(drawn), name

    def test_a_row_report_checks_its_record_once(self, monkeypatch):
        # as part of its stack: the float row taken from it is not checked again
        checked, check = [], mzi.DualityReport.__post_init__
        monkeypatch.setattr(
            mzi.DualityReport, "__post_init__", lambda self: checked.append(self) or check(self)
        )
        setup = random_setup(np.random.default_rng(63), 3)
        report = mzi.duality_report(setup, None)
        assert len(checked) == 1
        stacked = checked[0]
        assert list(vars(report)) == [field.name for field in dataclasses.fields(report)]
        for name, value in vars(report).items():
            assert type(value) is float and value == getattr(stacked, name)[0], name

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_from_subset_round_trips_through_subset_and_the_scenario_json(self, dim, seed, data):
        subset = data.draw(st.sets(st.integers(0, dim - 1)))
        basis = random_unitary(dim, seed)
        strategy = mzi.Strategy.from_subset(basis, sorted(subset, reverse=True))
        assert strategy.subset == frozenset(subset)
        assert strategy.in_s.tolist() == [k in subset for k in range(dim)]
        scenario = Scenario("round-trip", random_setup(np.random.default_rng(seed), dim),
                            strategy, seed)
        loaded = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(scenario))))
        assert loaded.strategy.subset == frozenset(subset)
        assert loaded.strategy.in_s.tobytes() == strategy.in_s.tobytes()
        assert loaded.strategy.basis.tobytes() == strategy.basis.tobytes()

    @pytest.mark.parametrize("subset", [[3], [-1], [0, 5]])
    def test_from_subset_rejects_outcomes_outside_the_basis(self, subset):
        with pytest.raises(DimensionMismatch, match=r"subset \[.*\] not within 0..2"):
            mzi.Strategy.from_subset(np.eye(3), subset)

    @pytest.mark.parametrize("bad", [0.9, 1.5, 1.0, np.float64(1.0), "1", True, np.True_, None])
    def test_from_subset_refuses_indices_that_are_not_integers(self, bad):
        # rather than truncate 0.9 to outcome 0, or read "1" as outcome 1
        with pytest.raises(InvalidArgument, match=f"outcome index {re.escape(repr(bad))} is not"):
            mzi.Strategy.from_subset(np.eye(2), [bad, 0])

    def test_from_subset_takes_numpy_integers(self):
        assert mzi.Strategy.from_subset(np.eye(3), [np.int64(2), np.uint8(0)]).subset == {0, 2}


def record_fields(record, prefix=""):
    """Every field of a record by dotted name, through the records it holds."""
    found = {}
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if dataclasses.is_dataclass(value):
            found.update(record_fields(value, f"{prefix}{field.name}."))
        else:
            found[prefix + field.name] = value
    return found


def stacked_records():
    """One stack of three rows of each record type that holds one item or a stack."""
    rngs = [np.random.default_rng([64, k]) for k in range(3)]
    setups, strategies = mzi.random_setups(3, rngs), mzi.random_strategies(3, rngs)
    result = mzi.Evaluation(setups, strategies)
    return {"QubitState": setups.rho, "MZISetup": setups, "Strategy": strategies,
            "JMInstance": result.pair, "StrategyStats": result.stats, "DualityReport": result.report}


class TestRowAccessor:
    @pytest.mark.parametrize("name", sorted(stacked_records()))
    def test_every_record_takes_its_rows_one_way(self, name):
        stack = stacked_records()[name]
        assert type(stack).__name__ == name
        columns = record_fields(stack)
        for rows in (0, 1, 2, [2, 0], slice(1, None)):
            taken = stack[rows]
            assert type(taken) is type(stack)
            fields = record_fields(taken)
            assert list(fields) == list(columns)
            for field, value in fields.items():
                expected = columns[field][rows]
                if np.ndim(expected) == 0:  # the one-row read of a column of numbers
                    assert type(value) is float, (rows, field)
                assert np.asarray(value).dtype == expected.dtype, (rows, field)
                assert np.asarray(value).tobytes() == expected.tobytes(), (rows, field)

    @pytest.mark.parametrize("name", sorted(stacked_records()))
    def test_one_item_reads_as_a_stack_of_one(self, name):
        one = stacked_records()[name][1]
        fields = record_fields(one)
        for field, value in record_fields(one[None]).items():
            assert np.shape(value) == (1,) + np.shape(fields[field]), field
            assert np.asarray(value)[0].tobytes() == np.asarray(fields[field]).tobytes(), field

    def test_a_bound_row_reads_as_a_stack_of_one_without_its_binding(self):
        setup, _ = mzi.evaluated_rows(three_setups(), None)[1]
        assert "_evaluation" in vars(setup)
        assert list(vars(setup[None])) == ["rho", "rho_d", "u", "phi"]
        assert mzi.Evaluation(setup).setups.rho_d.shape == (1, 2, 2)
