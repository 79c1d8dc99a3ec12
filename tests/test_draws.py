"""The bulk random draws against the per-stream draws they replace.

Each reference below is copied from the draw as it ran one stream at a time,
one generator call per array; the bulk draws must give the same values bit
for bit and leave every stream at the same point.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzduality import jointmeas, mzi
from mzduality.errors import DimensionMismatch
from mzduality.qubit import SeedWords, bloch_to_matrix, haar_unitary, stream, streams
from mzduality.scenarios import random_scenario, random_scenarios


def ref_complex_gaussian(d, rng):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def ref_random_bloch(rng):
    radius = rng.random() ** (1.0 / 3.0)
    direction = rng.standard_normal(3)
    while np.linalg.norm(direction) < 1e-12:
        direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    return radius * direction


def ref_detector_state(d, rng):
    g = ref_complex_gaussian(d, rng)
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    return (rho + rho.conj().T) / 2.0


def ref_pure_detector_state(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def ref_draw_setup(d, rng, detector_state):
    bloch, rho_d = ref_random_bloch(rng), detector_state(d, rng)
    return bloch, rho_d, ref_complex_gaussian(d, rng), float(rng.uniform(0.0, 2.0 * np.pi))


def ref_draw_strategy(d, rng):
    return ref_complex_gaussian(d, rng), rng.random(d) < 0.5


def ref_draw_instance(rng):
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
    return m0, m_len * e1, n_len * e2


class ScriptedGenerator:
    """A generator whose first standard normals are scripted values, and
    whose every other draw comes from the stream ``default_rng(seed)``."""

    def __init__(self, seed, normals=()):
        self.rng = np.random.default_rng(seed)
        self.script = list(normals)
        self.normal_calls = 0

    def random(self, size=None, out=None):
        return self.rng.random(size, out=out)

    def uniform(self, low, high):
        return self.rng.uniform(low, high)

    def standard_normal(self, size=None, out=None):
        self.normal_calls += 1
        if out is None:
            out = np.empty(() if size is None else size)
        flat = out.reshape(-1)
        taken, self.script = self.script[: flat.size], self.script[flat.size :]
        flat[: len(taken)] = taken
        flat[len(taken) :] = self.rng.standard_normal(flat.size - len(taken))
        return out if out.ndim else float(out)


# a zero Bloch direction, drawn again; a second direction parallel to the first
BLOCH_REDRAW = [0.0, 0.0, 0.0]
PARALLEL_PAIR = [0.3, -1.2, 0.5, 0.6, -2.4, 1.0]


def generator_pairs(seed, scripted, script):
    """Two generators per stream, one for the bulk draw and one for the
    reference, each scripted when its flag in ``scripted`` is set."""
    return [
        [ScriptedGenerator([seed, k], script if flag else ()) for _ in "ab"]
        for k, flag in enumerate(scripted)
    ]


def assert_same_streams(pairs):
    for bulk, reference in pairs:
        assert bulk.random() == reference.random()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    dim=st.integers(2, 8),
    pure=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    scripted=st.lists(st.booleans(), min_size=1, max_size=8),
)
def test_setups_match_per_stream_draws(dim, pure, seed, scripted):
    pairs = generator_pairs(seed, scripted, BLOCH_REDRAW)
    setups = mzi.random_setups(dim, [bulk for bulk, _ in pairs], pure=pure)
    state = ref_pure_detector_state if pure else ref_detector_state
    draws = [ref_draw_setup(dim, reference, state) for _, reference in pairs]
    bloch, rho_d, gaussian, phi = map(np.array, zip(*draws))
    assert np.array_equal(setups.rho.matrix, bloch_to_matrix(bloch / 2.0, 0.5))
    assert np.array_equal(setups.rho_d, rho_d)
    assert np.array_equal(setups.u, haar_unitary(gaussian))
    assert np.array_equal(setups.phi, phi)
    assert_same_streams(pairs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    dim=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    repeats=st.lists(st.integers(1, 4), min_size=1, max_size=6),
)
def test_strategies_match_per_stream_draws(dim, seed, repeats):
    # a generator may repeat: its strategies are drawn in turn
    pairs = generator_pairs(seed, [False] * len(repeats), ())
    order = [k for k, times in enumerate(repeats) for _ in range(times)]
    strategies = mzi.random_strategies(dim, [pairs[k][0] for k in order])
    gaussian, want = map(np.array, zip(*(ref_draw_strategy(dim, pairs[k][1]) for k in order)))
    assert np.array_equal(strategies.basis, haar_unitary(gaussian))
    assert np.array_equal(strategies.in_s, want)
    assert_same_streams(pairs)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    scripted=st.lists(st.booleans(), min_size=1, max_size=12),
)
def test_instances_match_per_stream_draws(seed, scripted):
    pairs = generator_pairs(seed, scripted, PARALLEL_PAIR)
    m0, m_vec, n_vec = jointmeas.draw_instances([bulk for bulk, _ in pairs])
    want = [ref_draw_instance(reference) for _, reference in pairs]
    assert np.array_equal(m0, [m for m, _, _ in want])
    assert np.array_equal(m_vec, [m for _, m, _ in want])
    assert np.array_equal(n_vec, [n for _, _, n in want])
    assert_same_streams(pairs)


def test_scripts_force_the_redraws():
    # each script costs its stream one more standard-normal call, the redraw
    for script, draw in (
        (BLOCH_REDRAW, lambda rngs: mzi.random_setups(3, rngs)),
        (PARALLEL_PAIR, jointmeas.draw_instances),
    ):
        plain, scripted = ScriptedGenerator(7), ScriptedGenerator(7, script)
        draw([plain, scripted])
        assert scripted.normal_calls == plain.normal_calls + 1


def test_single_draws_are_batches_of_one():
    for dim in (2, 5, 8):
        setup = mzi.random_setup(dim, stream(11, dim))
        setups = mzi.random_setups(dim, [stream(11, dim)])
        assert np.array_equal(setup.rho.matrix, setups.rho.matrix[0])
        assert np.array_equal(setup.rho_d, setups.rho_d[0])
        assert np.array_equal(setup.u, setups.u[0])
        assert setup.phi == setups.phi[0]
        strategy = mzi.random_strategy(dim, stream(12, dim))
        strategies = mzi.random_strategies(dim, [stream(12, dim)])
        assert np.array_equal(strategy.basis, strategies.basis[0])
        assert np.array_equal(strategy.in_s, strategies.in_s[0])
    inst = jointmeas.random_instance(stream(13))
    want_m0, want_m, want_n = ref_draw_instance(np.random.default_rng([13]))
    assert inst.m0 == want_m0
    assert np.array_equal(inst.m_vec, want_m) and np.array_equal(inst.n_vec, want_n)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    dim=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    start=st.integers(0, 2**40),
    optimal=st.lists(st.booleans(), min_size=1, max_size=8),
)
@example(dim=3, seed=2**64 + 5, start=2**32 - 2, optimal=[True, False, False, True])
def test_bulk_scenarios_are_the_scenarios_one_by_one(dim, seed, start, optimal):
    # each stream draws its setup, then its strategy when it is not optimal
    indices = range(start, start + len(optimal))
    bulk = random_scenarios(seed, indices, dim, optimal)
    assert len(bulk) == len(optimal)
    for index, flag, got in zip(indices, optimal, bulk):
        one = random_scenario(seed, index, dim, flag)
        reference = np.random.default_rng([seed, index])
        bloch, rho_d, gaussian, phi = ref_draw_setup(dim, reference, ref_detector_state)
        for scenario in (got, one):
            assert (scenario.name, scenario.seed) == (f"sweep-{seed}-{index}", seed)
            assert np.array_equal(scenario.setup.rho.matrix, bloch_to_matrix(bloch / 2.0, 0.5))
            assert np.array_equal(scenario.setup.rho_d, rho_d)
            assert np.array_equal(scenario.setup.u, haar_unitary(gaussian))
            assert scenario.setup.phi == phi
        if flag:
            assert got.strategy is one.strategy is None
            continue
        basis, in_s = ref_draw_strategy(dim, reference)
        for scenario in (got, one):
            assert np.array_equal(scenario.strategy.basis, haar_unitary(basis))
            assert scenario.strategy.subset == frozenset(np.flatnonzero(in_s).tolist())


@pytest.mark.parametrize(
    "indices, optimal", [(range(3), [True]), (range(2), []), (range(1), [True, False])]
)
def test_bulk_scenarios_refuse_flags_that_do_not_match_the_indices(indices, optimal):
    message = f"^{len(optimal)} strategy flags for {len(indices)} indices$"
    with pytest.raises(DimensionMismatch, match=message):
        random_scenarios(1, indices, 2, optimal)


EDGE_PARTS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 20260810)
EDGE_KEYS = (
    [(part,) for part in EDGE_PARTS]
    + list(itertools.product(EDGE_PARTS[:5], repeat=2))
    + [(20260810, 1, 11068), (2**63 - 1, 60, 2**32), (2**64 + 5, 0, 3)]
)


def assert_draws_what_default_rng_draws(ours, key):
    numpy_s = np.random.default_rng(list(key))
    assert ours.bit_generator.state == numpy_s.bit_generator.state
    assert np.array_equal(ours.random(8), numpy_s.random(8))


@pytest.mark.parametrize("key", EDGE_KEYS)
def test_stream_key_draws_what_default_rng_of_the_list_draws(key):
    assert_draws_what_default_rng_draws(stream(*key), key)


def test_streams_of_one_batch_draw_what_default_rng_of_each_list_draws():
    # uint32 keys and keys through the list branch, interleaved in one batch
    rngs = list(streams(EDGE_KEYS))
    assert len(rngs) == len(EDGE_KEYS)
    for rng, key in zip(rngs, EDGE_KEYS):
        assert_draws_what_default_rng_draws(rng, key)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    keys=st.lists(
        st.lists(st.integers(0, 2**70), min_size=1, max_size=5).map(tuple), max_size=40
    )
)
def test_streams_draw_what_default_rng_of_each_list_draws(keys):
    rngs = list(streams(keys))
    assert len(rngs) == len(keys)
    for rng, key in zip(rngs, keys):
        assert_draws_what_default_rng_draws(rng, key)


def test_stream_key_rejects_what_default_rng_rejects():
    for key, error in (((3, -1), ValueError), ((np.int64(-1),), ValueError), ((1.5, 2), TypeError)):
        with pytest.raises(error):
            np.random.default_rng(list(key))
        with pytest.raises(error):
            stream(*key)
        # at the call, not when the bad key's generator is reached
        with pytest.raises(error):
            streams([(1, 2), key, (3, 4)])
    assert stream(np.int64(5), 2).random() == np.random.default_rng([5, 2]).random()


def test_streams_seed_words_serve_only_the_pcg64_request():
    # the seed sequence the generator holds (numpy 1.25 on also names it seed_seq)
    words = next(streams([(20260810, 4, 7)])).bit_generator._seed_seq
    assert isinstance(words, SeedWords)
    assert isinstance(words, np.random.bit_generator.ISeedSequence)
    assert words.generate_state(4, np.uint64) is words.words
    for n_words, dtype in ((8, np.uint32), (4, np.uint32), (2, np.uint64)):
        with pytest.raises(ValueError, match="^seed words serve 4 uint64 words, not "):
            words.generate_state(n_words, dtype)


@pytest.mark.skipif(
    int(np.__version__.split(".")[0]) < 2, reason="numpy 1.x imports numpy.random with numpy"
)
def test_importing_the_cli_leaves_numpy_random_unloaded():
    # streams load numpy.random on first use, so setting up the CLI does not pay for it
    src = Path(mzi.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, mzduality.cli; print('numpy.random' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")
