"""The compiled tape fill over every numpy bit generator.

``fill_tape`` steps a :class:`numpy.random.PCG64` itself, with the
generator state in registers, once
:func:`repro.core._native.pcg64_layout_matches` has read the state
through ``bit_generator.ctypes.state_address`` and found it equal to
``bit_generator.state``; every other bit generator is drawn through its
``bitgen_t`` function pointers.  This file checks that each source
replays numpy's own ``integers``/``random`` calls and leaves the
generator where they leave it:

* MT19937, Philox, SFC64 and PCG64DXSM, which take the function pointers;
* a PCG64 holding a buffered 32-bit half-word (an odd number of 32-bit
  draws came first), which the inlined ``next_uint32`` must hand out
  before it steps the state;
* the layout check itself over 50 seeds, buffered half-word or not, and
  a PCG64 it refuses, which takes the function pointers;
* a whole chain on an MT19937 generator against the reference engine.

``pytest --native-library PATH`` runs it against another build of
``chain_loops.c`` (a sanitizer build, say).
"""

import operator

import numpy as np
import pytest

from repro.core import _native
from repro.core.fast_chain import FastCompressionChain
from repro.core.markov_chain import CompressionMarkovChain
from repro.lattice.shapes import random_connected
from repro.rng import BatchedActivationDraws, BatchedMoveDraws

OTHER_BIT_GENERATORS = (np.random.MT19937, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM)


@pytest.fixture
def library(native_build):
    library = _native.load_library()
    if library is None:
        pytest.skip("chain_loops.c did not build: there is no compiled fill to test")
    return library


def twins(bit_generator, seed):
    """Two generators over equally seeded bit generators."""
    return np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))


def state(generator):
    """``bit_generator.state`` with its arrays as lists, so that ``==`` compares it."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(generator.bit_generator.state)


def assert_tape_replays_numpy(tape, twin, n, lanes, refills=5):
    block = tape.block
    allocated = tape.indices, tape.directions, tape.uniforms, tape.uniforms2
    for _ in range(refills):
        tape.refill()
        expected = [
            twin.integers(0, n, size=block),
            twin.integers(0, 6, size=block),
            twin.random(block),
        ] + ([twin.random(block)] if lanes == 2 else [])
        drawn = [tape.indices, tape.directions, tape.uniforms, tape.uniforms2]
        for lane, want in zip(drawn, expected):
            np.testing.assert_array_equal(lane, want)
        assert state(tape._rng) == state(twin)
        assert all(map(operator.is_, drawn, allocated)), "a refill reallocated"


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("n", [1, 7, 200_467, 2**31 + 1, 2**32])
@pytest.mark.parametrize("bit_generator", OTHER_BIT_GENERATORS, ids=lambda kind: kind.__name__)
def test_other_bit_generators_take_the_function_pointers(library, bit_generator, n, lanes):
    for seed in (0, 1):
        rng, twin = twins(bit_generator, seed)
        tape = BatchedMoveDraws(rng, n=n, block=257, lanes=lanes)
        assert tape._fill.tape.source == _native.BITGEN
        assert_tape_replays_numpy(tape, twin, n, lanes)


@pytest.mark.parametrize("bit_generator", OTHER_BIT_GENERATORS, ids=lambda kind: kind.__name__)
def test_activation_tapes_over_other_bit_generators(library, bit_generator):
    rng, twin = twins(bit_generator, 5)
    tape = BatchedActivationDraws(rng, block=300)
    assert tape._fill.tape.source == _native.BITGEN
    for _ in range(3):
        tape.refill()
        np.testing.assert_array_equal(tape.directions, twin.integers(0, 6, size=300))
        np.testing.assert_array_equal(tape.uniforms, twin.random(300))
        assert state(rng) == state(twin)


@pytest.mark.parametrize("n", [7, 200_467, 2**32])
@pytest.mark.parametrize("draws", [1, 3, 1001])
def test_pcg64_with_a_buffered_half_word_replays_numpy(library, draws, n):
    for seed in range(4):
        rng, twin = twins(np.random.PCG64, seed)
        for generator in (rng, twin):
            generator.integers(0, 2**32, size=draws, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        tape = BatchedMoveDraws(rng, n=n, block=33, lanes=2)
        assert tape._fill.tape.source == _native.PCG64
        assert_tape_replays_numpy(tape, twin, n, lanes=2)
        # The half-word a fill leaves buffered is numpy's too.
        assert rng.integers(0, 2**32, dtype=np.uint32) == twin.integers(0, 2**32, dtype=np.uint32)


def test_pcg64_takes_the_function_pointers_when_the_layout_check_fails(library, monkeypatch):
    monkeypatch.setattr(_native, "pcg64_layout_matches", lambda bit_generator: False)
    rng, twin = twins(np.random.PCG64, 8)
    tape = BatchedMoveDraws(rng, n=1000, block=64, lanes=2)
    assert tape._fill.tape.source == _native.BITGEN
    assert_tape_replays_numpy(tape, twin, 1000, lanes=2)


def test_the_layout_check_agrees_with_numpy_state_over_50_seeds():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        assert _native.pcg64_layout_matches(rng.bit_generator), seed
        rng.integers(0, 2**32, dtype=np.uint32)  # buffer a half-word
        assert _native.pcg64_layout_matches(rng.bit_generator), seed


def test_the_layout_check_refuses_other_bit_generators():
    class Derived(np.random.PCG64):
        pass

    for bit_generator in (*OTHER_BIT_GENERATORS, Derived):
        assert not _native.pcg64_layout_matches(bit_generator(0)), bit_generator.__name__


def test_a_chain_on_mt19937_matches_the_reference_engine(library):
    initial = random_connected(25, seed=6)
    reference = CompressionMarkovChain(initial, lam=4.0, seed=np.random.Generator(np.random.MT19937(9)))
    fast = FastCompressionChain(initial, lam=4.0, seed=np.random.Generator(np.random.MT19937(9)))
    assert fast._library is not None and fast._draws._fill.tape.source == _native.BITGEN
    for chunk in (1, 7, 1016, 1025, 2000):
        fast.run(chunk)
        for _ in range(chunk):
            reference.step()
        assert fast.occupied == reference.occupied, chunk
        assert fast.edge_count == reference.edge_count, chunk
        assert fast.rejection_counts == reference.rejection_counts, chunk
        assert state(fast._rng) == state(reference._rng), chunk
    for iteration in range(500):
        assert fast.step() == reference.step(), iteration
