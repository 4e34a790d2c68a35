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

import operator

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
#: Refills per seed: every one must draw into the lanes allocated at
#: construction.
REFILLS = 41


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


def numpy_block(twin, n, block, lanes):
    """The lanes of one refill, drawn by numpy's calls in tape order."""
    lanes_drawn = [
        twin.integers(0, n, size=block),
        twin.integers(0, 6, size=block),
        twin.random(block),
    ]
    if lanes == 2:
        lanes_drawn.append(twin.random(block))
    return lanes_drawn


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("n", PARTICLE_COUNTS)
def test_move_tape_replays_numpy(build, n, block, lanes):
    for seed in SEEDS:
        tape = BatchedMoveDraws(np.random.default_rng(seed), n=n, block=block, lanes=lanes)
        assert (tape._fill is not None) == (build == "compiled" and n <= 2**32)
        twin = np.random.default_rng(seed)
        allocated = tape.indices, tape.directions, tape.uniforms, tape.uniforms2
        for refill in range(REFILLS):
            tape.refill()
            expected = numpy_block(twin, n, block, lanes)
            drawn = [tape.indices, tape.directions, tape.uniforms]
            if lanes == 2:
                drawn.append(tape.uniforms2)
            for lane, want in zip(drawn, expected):
                assert lane.dtype == want.dtype and lane.flags.c_contiguous
                np.testing.assert_array_equal(lane, want, err_msg=f"seed {seed}, refill {refill}")
            assert tape._rng.bit_generator.state == twin.bit_generator.state
            assert tape.size == block and tape.cursor == 0
            lanes_now = tape.indices, tape.directions, tape.uniforms, tape.uniforms2
            assert all(map(operator.is_, lanes_now, allocated)), "a refill reallocated"


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
    """Draws interleaved with refills and direct generator calls stay on
    numpy's stream: the tape holds no generator state of its own."""
    rng = np.random.default_rng(11)
    twin = np.random.default_rng(11)
    tape = BatchedMoveDraws(rng, n=97, block=5, lanes=2)
    for refills in (1, 4, 2):
        for _ in range(refills):
            tape.refill()
            expected = numpy_block(twin, 97, 5, 2)
            assert [tape.draw2() for _ in range(5)] == list(
                zip(*(lane.tolist() for lane in expected))
            )
        assert rng.integers(0, 1000, size=3).tolist() == twin.integers(0, 1000, size=3).tolist()
