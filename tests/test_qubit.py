import operator
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mzduality.errors import (
    BadDimension,
    DimensionMismatch,
    InvalidArgument,
    InvalidEffect,
    InvalidInstance,
    InvalidState,
    ScenarioError,
)
from mzduality.jointmeas import JMInstance, build_candidate, feasibility_oracle
from mzduality.linalg import hermitian_eig
from mzduality import mzi, qubit
from mzduality.mzi import (
    MZISetup,
    Strategy,
    build_shifter,
    phase_shifter,
    random_setups,
    random_strategies,
    sample_outcomes,
)
from mzduality.qubit import (
    IDENTITY_2,
    MAX_COUNT,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    QubitState,
    bloch_to_matrix,
    build_effect,
    integer,
    matrix_to_bloch,
    random_detector_state,
    random_pure_detector_state,
    random_qubit_state,
    random_unitary,
    real,
    require_dim,
    stream,
)
from mzduality.qubit_detector import QubitDetectorAnalysis, gap_slope_empirical
from mzduality.scenarios import scenario_from_dict


@st.composite
def valid_effects(draw):
    """(bias, v) with |v| <= min(bias, 1 - bias): bias in [0, 1], v a nonzero
    direction scaled to a fraction of its cap."""
    bias = draw(st.floats(0.0, 1.0))
    direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    assume(np.linalg.norm(direction) > 1e-3)
    fraction = draw(st.floats(0.0, 1.0))
    return bias, direction / np.linalg.norm(direction) * fraction * min(bias, 1.0 - bias)


class TestBlochConversions:
    def test_trivial_coin(self):
        np.testing.assert_allclose(bloch_to_matrix(np.zeros(3), 0.5), IDENTITY_2 / 2)

    def test_sharp_projector(self):
        np.testing.assert_allclose(
            bloch_to_matrix(np.array([0.0, 0.0, 0.5]), 0.5), np.diag([1.0, 0.0])
        )

    def test_round_trip_random(self):
        rng = np.random.default_rng(21)
        matrices, rows = [], []
        for _ in range(500):
            bias = float(rng.uniform(0.0, 1.0))
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            vector = direction * rng.uniform(0.0, min(bias, 1.0 - bias))
            matrices.append(bloch_to_matrix(vector, bias))
            back_bias, back_vector = matrix_to_bloch(matrices[-1])
            assert type(back_bias) is float and back_bias == pytest.approx(bias, abs=1e-12)
            np.testing.assert_allclose(back_vector, vector, atol=1e-12)
            rows.append((back_bias, back_vector))
        # a stack converts as its rows one by one, bit for bit
        stack_bias, stack_vector = matrix_to_bloch(np.array(matrices))
        assert stack_bias.tobytes() == np.array([bias for bias, _ in rows]).tobytes()
        assert stack_vector.tobytes() == np.array([vector for _, vector in rows]).tobytes()

    def test_invalid_effect_rejected(self):
        with pytest.raises(InvalidEffect):
            bloch_to_matrix(np.array([0.6, 0.0, 0.0]), 0.5)
        with pytest.raises(InvalidEffect):
            bloch_to_matrix([np.nan, 0.0, 0.0], 0.5)
        with pytest.raises(InvalidEffect):
            bloch_to_matrix(np.zeros(3), np.inf)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(valid_effects())
    def test_observable_uses_the_bloch_map(self, effect):
        bias, vector = effect
        effects = bloch_to_matrix(np.stack([vector, -vector]), np.array([bias, 1.0 - bias]))
        np.testing.assert_array_equal(effects[0], bloch_to_matrix(vector, bias))
        np.testing.assert_allclose(effects[0] + effects[1], IDENTITY_2, atol=1e-15)
        back_bias, back_vector = matrix_to_bloch(bloch_to_matrix(vector, bias))
        assert back_bias == pytest.approx(bias, abs=1e-15)
        np.testing.assert_allclose(back_vector, vector, atol=1e-15)

    def test_validity_matches_eigenvalue_bounds(self):
        # bloch_to_matrix accepts (bias, v) iff the matrix spectrum sits in [0, 1]
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 10_000:
            bias = float(rng.uniform(-0.2, 1.2))
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            vector = direction * rng.uniform(0.0, 0.8)
            slack = min(bias, 1.0 - bias) - np.linalg.norm(vector)
            if abs(slack) < 1e-9:
                continue
            matrix = bias * IDENTITY_2 + sum(v * s for v, s in zip(vector, (SIGMA_X, SIGMA_Y, SIGMA_Z)))
            vals = hermitian_eig(matrix).eigenvalues
            try:
                bloch_to_matrix(vector, bias)
                accepted = True
            except InvalidEffect:
                accepted = False
            assert accepted == (vals[0] >= 0.0 and vals[-1] <= 1.0)
            checked += 1


class TestPauliPhi:
    # the sharp interference observable at phase phi: cos(phi) sigma_z - sin(phi) sigma_y
    def test_zero_phase(self):
        np.testing.assert_allclose(np.cos(0.0) * SIGMA_Z - np.sin(0.0) * SIGMA_Y, SIGMA_Z)

    def test_quarter_phase(self):
        quarter = np.cos(np.pi / 2) * SIGMA_Z - np.sin(np.pi / 2) * SIGMA_Y
        np.testing.assert_allclose(quarter, -SIGMA_Y, atol=1e-15)

    def test_unit_spectrum_and_involution(self):
        for phi in np.linspace(-2 * np.pi, 2 * np.pi, 17):
            sharp = np.cos(phi) * SIGMA_Z - np.sin(phi) * SIGMA_Y
            np.testing.assert_allclose(hermitian_eig(sharp).eigenvalues, [-1.0, 1.0], atol=1e-12)
            np.testing.assert_allclose(sharp @ sharp, IDENTITY_2, atol=1e-15)


class TestCheckedBuilders:
    """``build_effect`` and ``build_shifter`` are ``bloch_to_matrix`` and ``phase_shifter``
    without the checks, bit for bit, and the callers of checked values build with them."""

    def test_the_effect_builder_is_the_checked_conversion(self):
        rng = np.random.default_rng(34)
        bias = rng.random((6, 2))
        direction = rng.standard_normal((6, 2, 3))
        length = rng.random((6, 2)) * np.minimum(bias, 1.0 - bias)
        v = direction / np.linalg.norm(direction, axis=-1, keepdims=True) * length[..., None]
        pair = mzi.Evaluation(random_setups(3, [stream(34, k) for k in range(6)])).pair
        cases = [(v, bias), (v[0, 0], float(bias[0, 0])), (v / 2.0, 0.5), (np.zeros(3), 0.5),
                 (np.stack([pair.n_vec, -pair.n_vec], 1), 0.5),
                 (np.stack([pair.m_vec, -pair.m_vec], 1), np.stack([pair.m0, 1.0 - pair.m0], 1))]
        for vector, b in cases:
            built, checked = build_effect(vector, b), bloch_to_matrix(vector, b)
            assert built.shape == checked.shape and built.tobytes() == checked.tobytes()

    def test_the_shifter_builder_is_the_checked_shifter(self):
        phi = np.random.default_rng(35).uniform(-10.0, 10.0, 8)
        setups = random_setups(2, [stream(35)])
        for phase in (phi, phi.reshape(2, 4), float(phi[0]), 0.0, setups.phi):
            built, checked = build_shifter(phase), phase_shifter(phase)
            assert built.shape == checked.shape and built.tobytes() == checked.tobytes()

    def test_checked_values_are_built_without_a_second_check(self, monkeypatch):
        setups = random_setups(3, [stream(36, k) for k in range(4)])
        want = [np.asarray(part).tobytes() for part in mzi.Evaluation(setups).residuals]
        for module, name in ((qubit, "bloch_to_matrix"), (mzi, "phase_shifter")):
            monkeypatch.setattr(module, name, lambda *args: pytest.fail("checked again"))
        got = [np.asarray(part).tobytes() for part in mzi.Evaluation(setups).residuals]
        assert got == want
        assert QubitState.from_bloch([0.6, 0.0, 0.8]).matrix.tobytes() == (
            build_effect(np.array([0.3, 0.0, 0.4]), 0.5).tobytes())


class TestQubitState:
    def test_from_bloch_and_back(self):
        state = QubitState.from_bloch([0.2, -0.3, 0.4])
        np.testing.assert_allclose(state.bloch(), [0.2, -0.3, 0.4], atol=1e-14)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidState):
            QubitState(np.diag([0.9, 0.3]))

    def test_rejects_long_bloch_vector(self):
        with pytest.raises(InvalidState):
            QubitState.from_bloch([1.0, 0.5, 0.0])

    @pytest.mark.parametrize("component", [1e300, -1e300, np.inf, 1.5])
    def test_rejects_a_large_component_as_given(self, component):
        # an infinity is refused by the real-number rule, ahead of the component bound
        message = (f"Bloch component {component:.6g} exceeds 1 in absolute value"
                   if np.isfinite(component) else f"Bloch vector must be finite, got {component}")
        with pytest.raises(InvalidState, match=f"^{re.escape(message)}$"):
            QubitState.from_bloch([0.0, component, 0.0])

    def test_rejects_non_finite_bloch_vector(self):
        with pytest.raises(InvalidState):
            QubitState.from_bloch([np.nan, 0.0, 0.0])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_a_bloch_stack_is_its_rows_one_by_one(self, seed, size):
        rng = np.random.default_rng(seed)
        vectors = rng.uniform(-1.0, 1.0, (size, 3))
        vectors /= np.maximum(np.linalg.norm(vectors, axis=1), 1.0)[:, None]
        state = QubitState.from_bloch(vectors)
        back = state.bloch()
        np.testing.assert_allclose(back, vectors, atol=1e-14)
        for k, vector in enumerate(vectors):
            assert state.matrix[k].tobytes() == QubitState.from_bloch(vector).matrix.tobytes()
            assert back[k].tobytes() == state[k].bloch().tobytes()

    @pytest.mark.parametrize("bad", [[1.0, 0.5, 0.0], [0.0, 1e300, 0.0], [np.nan, 0.0, 0.0]])
    @pytest.mark.parametrize("row", [0, 2])
    def test_a_bloch_stack_with_one_bad_row_raises_as_that_row(self, bad, row):
        vectors = np.zeros((3, 3))
        vectors[row] = bad
        with pytest.raises(InvalidState) as alone:
            QubitState.from_bloch(bad)
        with pytest.raises(InvalidState, match=re.escape(str(alone.value))):
            QubitState.from_bloch(vectors)


class TestBinaryQubitObservable:
    # the two effects {b I + v.sigma, (1 - b) I - v.sigma} of a binary
    # unsharp observable, as bloch_to_matrix builds them
    def test_effects_sum_to_identity(self):
        vector = np.array([0.1, 0.2, 0.1])
        effects = bloch_to_matrix(np.stack([vector, -vector]), np.array([0.6, 0.4]))
        np.testing.assert_allclose(effects[0] + effects[1], IDENTITY_2, atol=1e-15)

    def test_invalid_vector_rejected(self):
        # |v| = 0.2 exceeds 1 - b = 0.1, for one effect or in a stack
        with pytest.raises(InvalidEffect, match="exceeds min"):
            bloch_to_matrix(np.array([0.2, 0.0, 0.0]), 0.9)
        with pytest.raises(InvalidEffect, match="exceeds min"):
            bloch_to_matrix(np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0]]), np.array([0.5, 0.9]))
        # and a vector of two components is no Bloch vector
        with pytest.raises(InvalidEffect, match=re.escape("shape (3,), got (2,)")):
            bloch_to_matrix(np.zeros(2), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidEffect, match="finite"):
            bloch_to_matrix(np.zeros(3), bad)
        with pytest.raises(InvalidEffect, match="finite"):
            bloch_to_matrix(np.array([0.0, bad, 0.0]), 0.5)


class TestRandomGenerators:
    def test_states_pass_validators(self):
        # constructing a QubitState runs the full validity check
        for seed in range(10_000):
            random_qubit_state(seed)

    def test_unitaries_are_unitary(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            u = random_unitary(d, rng)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-10

    def test_detector_states_are_densities(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            rho = random_detector_state(d, rng)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho)[0] >= -1e-12

    def test_pure_states_have_unit_purity(self):
        rng = np.random.default_rng(25)
        for d in (2, 3, 8):
            rho = random_pure_detector_state(d, rng)
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_seed_determinism(self):
        assert np.array_equal(random_unitary(4, 9), random_unitary(4, 9))
        assert np.array_equal(
            random_qubit_state(7).matrix, random_qubit_state(7).matrix
        )

    @pytest.mark.parametrize("dim", [0, 1, 9, 12])
    def test_bad_dimension(self, dim):
        with pytest.raises(BadDimension):
            random_unitary(dim, 0)
        with pytest.raises(BadDimension):
            random_detector_state(dim, 0)


SCENARIO = {"quanton": {"bloch": [0.3, 0.0, 0.4]},
            "detector": {"dim": 2, "state": "maximally-mixed", "unitary": "identity"}}
EYE_2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def only(items):
    (item,) = items
    return item


# Every caller of the one integer rule: what it returns of an accepted value, its
# range, and the error it raises for a value that is not an integer and for one
# outside its range.
INTEGER_CALLERS = {
    "integer": (lambda v: integer(v, "count"), 0, MAX_COUNT, InvalidArgument, InvalidArgument),
    "require_dim": (require_dim, 2, 8, BadDimension, BadDimension),
    "random_setups": (lambda v: random_setups(v, [stream(3)]).detector_dim,
                      2, 8, BadDimension, BadDimension),
    "random_strategies": (lambda v: random_strategies(v, [stream(3)]).dim,
                          2, 8, BadDimension, BadDimension),
    "Strategy.from_subset": (lambda v: only(Strategy.from_subset(np.eye(3), [v]).subset),
                             0, 2, InvalidArgument, DimensionMismatch),
    "sample_outcomes": (lambda v: sample_outcomes(np.full((2, 2), 0.25), v, 0).sum(),
                        1, MAX_COUNT, InvalidArgument, InvalidArgument),
    "scenario dim": (lambda v: scenario_from_dict(
        {**SCENARIO, "detector": {**SCENARIO["detector"], "dim": v}}).setup.detector_dim,
        2, 8, ScenarioError, ScenarioError),
    "scenario seed": (lambda v: scenario_from_dict({**SCENARIO, "seed": v}).seed,
                      None, None, ScenarioError, ScenarioError),
    "scenario subset": (lambda v: only(scenario_from_dict(
        {**SCENARIO, "strategy": {"basis": EYE_2, "subset": [v]}}).strategy.subset),
        0, 1, ScenarioError, ScenarioError),
}
NUMPY_INTEGERS = (np.int8, np.int64, np.uint8, np.uint64)
INTEGER_ARGUMENTS = st.one_of(
    st.booleans(),
    st.sampled_from([np.True_, np.False_, None]),
    st.integers(-3, 12),
    st.integers(-(2**70), 2**70),
    st.sampled_from([MAX_COUNT, MAX_COUNT + 1]),
    st.tuples(st.sampled_from(NUMPY_INTEGERS), st.integers(0, 12)).map(lambda t: t[0](t[1])),
    st.integers(-3, 12).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 12).map(str),
    st.sampled_from(["2.0", " 3", "1e3"]),
)


class TestIntegerRule:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(INTEGER_ARGUMENTS)
    def test_every_caller_takes_integers_and_refuses_the_rest(self, value):
        is_integer = not isinstance(value, (bool, np.bool_)) and isinstance(
            value, (int, np.integer))
        for name, (call, low, high, not_integer, out_of_range) in INTEGER_CALLERS.items():
            inside = is_integer and (low is None or low <= value) and (high is None or value <= high)
            if inside:
                taken = call(value)
                assert taken == value, name
                if name in ("integer", "require_dim", "scenario seed"):
                    assert type(taken) is int, name
                continue
            error, named = (out_of_range, str(operator.index(value))) if is_integer else (
                not_integer, repr(value))
            with pytest.raises(error) as caught:
                call(value)
            assert named in str(caught.value), (name, str(caught.value))

    @pytest.mark.parametrize("value", [2.7, "3", 3.0, True, np.True_, None])
    def test_a_dimension_is_never_truncated_or_parsed(self, value):
        with pytest.raises(BadDimension, match="detector dimension must be an integer"):
            require_dim(value)
        with pytest.raises(BadDimension):
            random_setups(value, [stream(3)])

    def test_open_ends_and_wordings(self):
        assert integer(-(2**80), "index", None, None) == -(2**80)
        with pytest.raises(InvalidArgument, match=r"^--seed must lie in \[0, inf\], got -1$"):
            integer(-1, "--seed", high=None)
        with pytest.raises(InvalidArgument, match=r"^k must lie in \[-inf, 2\], got 3$"):
            integer(np.int64(3), "k", None, 2)
        with pytest.raises(ScenarioError, match=r"^seed must be an integer, got 1\.5$"):
            integer(1.5, "seed", None, None, ScenarioError)


GROUND = np.diag([1.0, 0.0])
PAIR = JMInstance(0.5, [0.1, 0.0, 0.0], [0.0, 0.0, 0.1])
# Every caller of the one real-number rule: a call that puts its argument where a real
# number belongs, at a place where 0 is valid, and the error it raises for anything else.
REAL_CALLERS = {
    "real": (lambda v: real(v, "value"), InvalidArgument),
    "MZISetup phi": (lambda v: MZISetup(QubitState(GROUND), GROUND, np.eye(2), v),
                     InvalidArgument),
    "phase_shifter": (phase_shifter, InvalidArgument),
    "QubitState.from_bloch": (lambda v: QubitState.from_bloch([0.0, v, 0.0]), InvalidState),
    "bloch_to_matrix vector": (lambda v: bloch_to_matrix([v, 0.0, 0.0], 0.5), InvalidEffect),
    "bloch_to_matrix bias": (lambda v: bloch_to_matrix(np.zeros(3), v), InvalidEffect),
    "JMInstance m0": (lambda v: JMInstance(v, np.zeros(3), [0.0, 0.0, 0.1]), InvalidInstance),
    "JMInstance m_vec": (lambda v: JMInstance(0.5, [v, 0.0, 0.0], [0.0, 0.0, 0.1]),
                         InvalidInstance),
    "JMInstance n_vec": (lambda v: JMInstance(0.5, [0.1, 0.0, 0.0], [0.0, 0.0, v]),
                         InvalidInstance),
    "build_candidate x": (lambda v: build_candidate(PAIR, v, np.zeros(3)), InvalidInstance),
    "build_candidate y_vec": (lambda v: build_candidate(PAIR, 0.0, [0.0, v, 0.0]),
                              InvalidInstance),
    "QubitDetectorAnalysis alpha": (lambda v: QubitDetectorAnalysis([v, 0.0, 0.0], np.zeros(3),
                                                                    0.0), InvalidInstance),
    "QubitDetectorAnalysis beta": (lambda v: QubitDetectorAnalysis(np.zeros(3), [0.0, 0.0, v],
                                                                   0.0), InvalidInstance),
    "QubitDetectorAnalysis p": (lambda v: QubitDetectorAnalysis(np.zeros(3), np.zeros(3), v),
                                InvalidInstance),
    "sample_outcomes table": (lambda v: sample_outcomes([[v, 0.5], [0.5, 0.0]], 10, 0),
                              InvalidArgument),
}
ZEROS = (0, 0.0, -0.0, np.int64(0), np.uint8(0), np.float32(0.0), np.float16(0.0))
NOT_REAL = st.one_of(
    st.booleans(),
    st.sampled_from([np.True_, np.False_, None, float("nan"), float("inf"), float("-inf")]),
    st.floats(-1.0, 1.0).map(str),
    st.sampled_from(["0", " 1", "1e3", "nan", "a"]),
    st.complex_numbers(max_magnitude=1.0),
    st.sampled_from([np.complex128(0.5j), 1j]),
    # ragged: rows of two lengths
    st.lists(st.floats(0.0, 0.1), min_size=1, max_size=3).map(lambda row: [row, row + [0.0]]),
)

# the real arguments with a range, which they name a NaN or infinity as outside of
RANGED_CALLERS = {
    "resolution": (lambda v: feasibility_oracle(PAIR, resolution=v),
                   "resolution must lie in [0.001, 0.05], got "),
    "p_step": (lambda v: gap_slope_empirical(np.diag([0.75, 0.25]), SIGMA_X, v),
               "p_step must lie in [1e-6, 1e-2], got "),
}


class TestRealRule:
    @pytest.mark.parametrize("zero", ZEROS, ids=repr)
    def test_every_caller_takes_numpy_and_python_integers_and_floats(self, zero):
        for call, _ in REAL_CALLERS.values():
            call(zero)
        assert type(real(zero, "zero")) is float and real(zero, "zero") == 0.0
        taken = real([np.int64(1), 2, np.float32(0.5)], "row")
        assert taken.dtype == np.float64 and taken.tolist() == [1.0, 2.0, 0.5]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(NOT_REAL)
    def test_every_caller_refuses_the_rest_and_names_it(self, value):
        for name, (call, error) in REAL_CALLERS.items():
            with pytest.raises(error) as caught:
                call(value)
            assert str(value) in str(caught.value), (name, str(caught.value))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, "0.3", True, None, 1j])
    @pytest.mark.parametrize("row", [0, 2])
    def test_a_bad_phase_in_a_stack_raises_as_that_row(self, bad, row):
        setups = random_setups(2, [stream(5, k) for k in range(3)])
        phases = [0.1, 0.2, 0.3]
        phases[row] = bad
        with pytest.raises(InvalidArgument) as alone:
            MZISetup(setups[row].rho, setups[row].rho_d, setups[row].u, bad)
        with pytest.raises(InvalidArgument) as stacked:
            MZISetup(setups.rho, setups.rho_d, setups.u, phases)
        assert str(stacked.value) == str(alone.value)

    def test_wordings(self):
        with pytest.raises(InvalidArgument, match=r"^phase phi must be real, got '0\.3'$"):
            real("0.3", "phase phi")
        with pytest.raises(InvalidArgument, match=r"^x must be finite, got -inf$"):
            real(np.array([[0.0, 1.0], [-np.inf, np.nan]]), "x")
        # a bool among numbers in a list, which numpy would read as 1
        with pytest.raises(InvalidState, match=r"^v must be real, got True$"):
            real([0.5, [np.True_, 0.0]], "v", InvalidState)
        with pytest.raises(InvalidArgument, match=re.escape("got [[0.0], [0.0, 0.0]]")):
            real([[0.0], [0.0, 0.0]], "ragged")

    @pytest.mark.parametrize("name", sorted(RANGED_CALLERS))
    @pytest.mark.parametrize("bad", ["0.01", "nan", True, np.False_, None, 0.01j,
                                     np.array([0.001, 0.002]), [0.001]], ids=repr)
    def test_ranged_callers_refuse_what_is_not_one_real_number(self, name, bad):
        call, _ = RANGED_CALLERS[name]
        with pytest.raises(InvalidArgument) as caught:
            call(bad)
        assert str(bad) in str(caught.value)

    @pytest.mark.parametrize("name", sorted(RANGED_CALLERS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, 1.0, np.float64(np.nan)])
    def test_ranged_callers_name_a_nan_or_infinity_as_out_of_range(self, name, bad):
        call, wording = RANGED_CALLERS[name]
        with pytest.raises(InvalidArgument, match=f"^{re.escape(wording + str(bad))}$"):
            call(bad)

    @pytest.mark.parametrize("name", sorted(RANGED_CALLERS))
    def test_ranged_callers_take_numpy_scalars_and_0d_arrays(self, name):
        call, _ = RANGED_CALLERS[name]
        for step in (0.002, np.float64(0.002), np.float32(0.002), np.array(0.002)):
            call(step)
