"""The draw tapes against numpy's own calls on a twin generator.

:class:`repro.rng.BatchedMoveDraws` and
:class:`repro.rng.BatchedActivationDraws` fill their blocks with the
compiled ``fill_tape`` of ``chain_loops.c``, which draws through the
generator's ``bitgen_t`` with numpy's bounded-integer (Lemire) and uniform
algorithms.  Here every fill is compared, lane for lane, with the
``Generator.integers``/``Generator.random`` calls it replaces, made on an
equally seeded twin, and the two generators must be in the same state
after every fill.

The particle counts cover the edges of numpy's 32-bit path: one value
(``n = 1``, nothing is drawn), powers of two and their neighbours,
``n = 2**31 + 1`` (Lemire's method rejects about half its draws there,
so the redraw loop runs), the full 32-bit range (``n = 2**32``, where
numpy returns ``next_uint32`` as is) and ``n = 2**32 + 1``, which takes
numpy's 64-bit path and so stays on numpy.  Every case runs on the
compiled build (``--native-library`` if given, so a sanitizer build can
be tested) and on the no-compiler fallback, reached by patching
:func:`repro.core._native.find_compiler` as a machine without a compiler
would.
"""

import numpy as np
import pytest

from repro.core import _native
from repro.rng import BatchedActivationDraws, BatchedMoveDraws

PARTICLE_COUNTS = (
    1, 2, 3, 7, 30, 1000, 200_467, 10**6, 2**31 - 1, 2**31 + 1, 2**32 - 5, 2**32,
    2**32 + 1,
)
BLOCKS = (1, 3, 4, 1024)
SEEDS = (0, 1, 2, 3, 4)
#: ``refill(blocks=k)`` in this order: every k of {1, 3, 16}, a repeated
#: width (the lanes are refilled in place) and shrinking widths (the
#: lanes are reallocated).
REFILLS = (1, 3, 16, 16, 3, 1, 1)


@pytest.fixture(params=["compiled", "fallback"])
def build(request, monkeypatch):
    """Which build fills the tapes: the compiled ``fill_tape`` or numpy."""
    if request.param == "compiled":
        request.getfixturevalue("native_build")
        if _native.load_library() is None:
            pytest.skip("chain_loops.c did not build: the fallback case covers this")
        yield request.param
        return
    _native.load_library.cache_clear()
    monkeypatch.setattr(_native, "find_compiler", lambda: None)
    yield request.param
    _native.load_library.cache_clear()


def numpy_blocks(twin, n, block, blocks, lanes):
    """The lanes of ``blocks`` refills, drawn by numpy's calls in tape order."""
    parts = []
    for _ in range(blocks):
        lane_parts = [
            twin.integers(0, n, size=block),
            twin.integers(0, 6, size=block),
            twin.random(block),
        ]
        if lanes == 2:
            lane_parts.append(twin.random(block))
        parts.append(lane_parts)
    return [np.concatenate(lane) for lane in zip(*parts)]


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("n", PARTICLE_COUNTS)
def test_move_tape_replays_numpy(build, n, block, lanes):
    for seed in SEEDS:
        tape = BatchedMoveDraws(np.random.default_rng(seed), n=n, block=block, lanes=lanes)
        assert (tape._fill is not None) == (build == "compiled" and n <= 2**32)
        twin = np.random.default_rng(seed)
        previous_width = None
        for blocks in REFILLS:
            lanes_before = tape.indices
            tape.refill(blocks=blocks)
            expected = numpy_blocks(twin, n, block, blocks, lanes)
            drawn = [tape.indices, tape.directions, tape.uniforms]
            if lanes == 2:
                drawn.append(tape.uniforms2)
            for lane, want in zip(drawn, expected):
                assert lane.dtype == want.dtype and lane.flags.c_contiguous
                np.testing.assert_array_equal(lane, want, err_msg=f"seed {seed}, blocks {blocks}")
            assert tape._rng.bit_generator.state == twin.bit_generator.state
            assert tape.size == blocks * block and tape.cursor == 0
            if blocks == previous_width:
                assert tape.indices is lanes_before, "an equal-width refill reallocated"
            previous_width = blocks


@pytest.mark.parametrize("block", (*BLOCKS, 4096))
def test_activation_tape_replays_numpy(build, block):
    for seed in SEEDS:
        tape = BatchedActivationDraws(np.random.default_rng(seed), block=block)
        assert (tape._fill is not None) == (build == "compiled")
        twin = np.random.default_rng(seed)
        directions = tape.directions
        for _ in range(4):
            tape.refill()
            np.testing.assert_array_equal(tape.directions, twin.integers(0, 6, size=block))
            np.testing.assert_array_equal(tape.uniforms, twin.random(block))
            assert tape._rng.bit_generator.state == twin.bit_generator.state
            assert tape.directions is directions, "the activation tape reallocated"


def test_draws_replay_numpy_across_mixed_consumers(build):
    """Draws interleaved with wide refills and direct generator calls stay
    on numpy's stream: the tape holds no generator state of its own."""
    rng = np.random.default_rng(11)
    twin = np.random.default_rng(11)
    tape = BatchedMoveDraws(rng, n=97, block=5, lanes=2)
    for blocks in (1, 4, 2):
        tape.refill(blocks=blocks)
        expected = numpy_blocks(twin, 97, 5, blocks, 2)
        assert [tape.draw2() for _ in range(5 * blocks)] == list(
            zip(*(lane.tolist() for lane in expected))
        )
        assert rng.integers(0, 1000, size=3).tolist() == twin.integers(0, 1000, size=3).tolist()
