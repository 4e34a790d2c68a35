"""The deferred uniform lane of a PCG64 tape against numpy's own calls.

When ``run_chain`` refills a tape over :class:`numpy.random.PCG64`, it
draws the index and direction lanes, saves the generator state the
uniform lane starts from, jumps the generator past the lane and draws a
uniform only when a proposal reads it, from a private copy of the lane
state jumped on from the last uniform read.  Reading
:attr:`repro.rng.BatchedMoveDraws.uniforms` (and so ``lists()`` and
``draw()``) draws the whole lane from the saved state; the engine's
``step()`` is one pass of ``run_chain`` and reads no lane from Python.  Here, after ``run(k)``, the lane, its list view and the
next step must equal what a twin generator's ``random(block)`` calls
give, the generator must stand where the twin stands, and the
trajectory must be the reference engine's:

* reads at gaps of 1, 16, 17 and ``block - 1``, and at the first and
  last position of a block, on a three-particle separation chain whose
  tape is rewritten so that exactly the chosen positions read a
  uniform;
* a run that stops mid-block and resumes in a later ``run()`` call;
* a guard-band reallocation mid-block;
* the two-lane tape, whose lane 2 is drawn after the jump;
* ``bit_generator.state`` reassigned between ``run()`` and ``step()``:
  the rest of the block comes from the saved state and increment;
* block sizes whose jump past the lane takes every power-of-two step;
* an MT19937 tape, which is never deferred.

``pytest --native-library PATH`` runs it against another build of
``chain_loops.c`` (a sanitizer build, say).  A build without 128-bit
integers never defers the lane: when such a build is passed with
``--native-library``, every test of a deferred lane is skipped and the
MT19937 test still runs.  The cached build must defer it; there, a tape
that never defers fails every test of a deferred lane.
"""

from array import array

import numpy as np
import pytest

from repro.core.fast_chain import GUARD_BAND, FastCompressionChain, OccupancyGrid
from repro.core.kernels import CompressionKernel, SeparationKernel
from repro.core.markov_chain import CompressionMarkovChain
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.shapes import random_connected

pytestmark = pytest.mark.usefixtures("native_build")


@pytest.fixture
def deferring_build(native_build):
    """The build under test, probed on a two-particle engine after one
    ``run``: a test of a deferred lane skips without a compiled build or
    on a ``--native-library`` build that never defers the lane, and
    fails on a cached build that never defers it."""
    probe = FastCompressionChain(ParticleConfiguration([(0, 0), (1, 0)]), lam=4.0, seed=0)
    if probe._library is None:
        pytest.skip("chain_loops.c did not build: there is no deferred lane to test")
    probe.run(1)
    if probe._draws._fill.tape.deferred:
        return
    if native_build is None:
        pytest.fail("the cached build of chain_loops.c never defers a PCG64 tape's uniform lane")
    pytest.skip(f"{native_build} never defers the lane (a build without 128-bit integers)")


def engines(initial, kernel, seed, block=1024):
    """(reference, compiled) engines, seeded alike."""
    reference = CompressionMarkovChain(initial, seed=seed, kernel=kernel, draw_block=block)
    compiled = FastCompressionChain(initial, seed=seed, kernel=kernel, draw_block=block)
    return reference, compiled


def numpy_block(twin, n, block, lanes):
    """One block of tape lanes, drawn by numpy's calls in tape order."""
    indices = twin.integers(0, n, size=block)
    directions = twin.integers(0, 6, size=block)
    uniforms = twin.random(block)
    uniforms2 = twin.random(block) if lanes == 2 else None
    return indices, directions, uniforms, uniforms2


def numpy_tape(seed, n, block, lanes, blocks):
    """The block a tape holds after ``blocks`` refills, and the twin
    generator that drew it."""
    twin = np.random.default_rng(seed)
    for _ in range(blocks):
        drawn = numpy_block(twin, n, block, lanes)
    return drawn, twin


def blocks_drawn(positions, block):
    """How many blocks a tape has drawn once it has consumed ``positions``."""
    return -(-positions // block)


def assert_lane_replays(reference, compiled, expected, twin, first_read, context):
    """The compiled tape's deferred lane against ``expected``: read first
    through ``first_read``, then through every other view; the generator
    against ``twin``; and the next step against the reference engine."""
    draws = compiled._draws
    assert draws._fill.tape.deferred, context
    assert compiled._rng.bit_generator.state == twin.bit_generator.state, context
    if first_read == "step":
        assert compiled.step() == reference.step(), context
        # step() is one pass of run_chain: Python reads no lane.
        assert draws._fill.tape.deferred, context
    else:
        if first_read == "uniforms":
            np.testing.assert_array_equal(draws.uniforms, expected[2], err_msg=context)
        else:
            assert draws.lists()[2] == expected[2].tolist(), context
        assert not draws._fill.tape.deferred, context
    np.testing.assert_array_equal(draws.uniforms, expected[2], err_msg=context)
    assert draws.lists()[2] == expected[2].tolist(), context
    np.testing.assert_array_equal(draws.indices, expected[0], err_msg=context)
    np.testing.assert_array_equal(draws.directions, expected[1], err_msg=context)
    if expected[3] is not None:
        np.testing.assert_array_equal(draws.uniforms2, expected[3], err_msg=context)
    assert compiled._rng.bit_generator.state == twin.bit_generator.state, context
    if first_read != "step":
        assert compiled.step() == reference.step(), context


# --------------------------------------------------------------------- #
# Reads at chosen gaps
# --------------------------------------------------------------------- #
#: Three particles in a row, colored 0, 1, 1.  With every proposal a swap
#: attempt, particle 0 proposing east reads a uniform whatever the colors
#: (the two colors of its swap always differ), and particle 2 proposing
#: east finds an empty target and reads none.
ROW_COLORS = {(0, 0): 0, (1, 0): 1, (2, 0): 1}
READ, SKIP = (0, 0), (2, 0)
BLOCK = 1024

#: Tape positions, past the first, at which a uniform is read.
GAPS = {
    "gap 1": list(range(1, 200)),
    "gap 16": list(range(16, BLOCK, 16)),
    "gap 17": list(range(17, BLOCK, 17)),
    "gap block - 1": [BLOCK - 1],
    "every gap up to 44": [sum(range(1, gap + 1)) for gap in range(1, 45)],
}


def row_chains(seed):
    initial = ParticleConfiguration(list(ROW_COLORS))
    kernel = SeparationKernel(4.0, 3.0, ROW_COLORS, swap_probability=1.0)
    return engines(initial, kernel, seed, BLOCK)


def seeds_reading_first():
    """Seeds whose first proposal reads a uniform: particle 0 east, or
    particle 1 west (the start's colors differ there too)."""
    for seed in range(1000):
        twin = np.random.default_rng(seed)
        index, direction = twin.integers(0, 3, size=BLOCK)[0], twin.integers(0, 6, size=BLOCK)[0]
        if (index, direction) in ((0, 0), (1, 3)):
            yield seed


def rewrite_block(chain, reads):
    """Make positions 1.. of the current block read a uniform exactly at
    ``reads``; both engines read the lanes (or their list views) in place."""
    draws = chain._draws
    for position in range(1, draws.size):
        draws.indices[position], draws.directions[position] = READ if position in reads else SKIP
    if draws._lists is not None:
        indices, directions, _ = draws._lists
        indices[:] = draws.indices.tolist()
        directions[:] = draws.directions.tolist()


def assert_same_chain(reference, compiled, context):
    assert compiled.color_map() == reference.color_map(), context
    assert compiled.accepted_swaps == reference.accepted_swaps, context
    assert compiled.rejection_counts == reference.rejection_counts, context


@pytest.mark.parametrize("gaps", sorted(GAPS))
@pytest.mark.usefixtures("deferring_build")
def test_reads_at_chosen_gaps_match_the_reference(gaps):
    """Each read decides a swap with probability 1/3 or 1, so a wrong
    uniform shows in the colors or the counters; twelve seeds make a
    wrong jump all but certain to show."""
    reads = set(GAPS[gaps])
    seeds = seeds_reading_first()
    for _ in range(12):
        seed = next(seeds)
        reference, compiled = row_chains(seed)
        for chain in (reference, compiled):
            chain.run(1)  # the block's first position, a read
            rewrite_block(chain, reads)
        # Stop mid-block, between two reads, and resume in a second call.
        middle = (min(reads) + max(reads)) // 2 if len(reads) > 1 else BLOCK // 2
        for stop in (middle, BLOCK):
            for chain in (reference, compiled):
                chain.run(stop - chain.iterations)
            assert_same_chain(reference, compiled, f"{gaps}, seed {seed}, run to {stop}")
        assert compiled.rejection_counts["swap_target_empty"] == BLOCK - 1 - len(reads)
        expected, twin = numpy_tape(seed, 3, BLOCK, 2, 1)
        # The rewritten lanes are the tape's now; the uniforms are numpy's.
        expected = (compiled._draws.indices.copy(), compiled._draws.directions.copy(), *expected[2:])
        assert_lane_replays(reference, compiled, expected, twin, "uniforms", f"{gaps}, seed {seed}")


# --------------------------------------------------------------------- #
# Runs of every length, and every way of reading the lane first
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("first_read", ["uniforms", "lists", "step"])
@pytest.mark.parametrize("block", [1, 16, 17, 1023, 1024])
@pytest.mark.usefixtures("deferring_build")
def test_the_lane_replays_numpy_after_runs_of_every_length(block, first_read):
    """The jump past a lane of 1023 takes 15 steps from the short-gap
    table and every power of two from 16 to 512, and the generator state
    after it must still be numpy's."""
    initial = random_connected(20, seed=4)
    reference, compiled = engines(initial, CompressionKernel(4.0), 11, block)
    for length in (1, max(1, block - 1), block, block + 1, 3 * block + 5):
        for chain in (reference, compiled):
            chain.run(length)
        context = f"block {block}, after a run({length}), read first through {first_read}"
        assert compiled.occupied == reference.occupied, context
        assert compiled.rejection_counts == reference.rejection_counts, context
        consumed = compiled.iterations  # the steps of earlier checks included
        expected, twin = numpy_tape(11, 20, block, 1, blocks_drawn(consumed, block))
        assert compiled._rng.bit_generator.state == twin.bit_generator.state, context
        if consumed % block == 0:
            continue  # no unread position: the next step draws a new block
        assert_lane_replays(reference, compiled, expected, twin, first_read, context)


# --------------------------------------------------------------------- #
# A guard-band reallocation mid-block
# --------------------------------------------------------------------- #
def tighten_window(chain):
    """Re-window a fresh compression engine so that its guard band lies
    two cells beyond the start's bounding box."""
    positions = np.frombuffer(chain._pos, dtype=np.int64)
    xs, ys = chain._grid.coordinates(positions)
    chain._grid = OccupancyGrid.from_coordinates(xs, ys, margin=GUARD_BAND + 1)
    chain._pos = array("q", chain._grid.flat_indices(xs, ys).tolist())
    chain._bind_grid()


@pytest.mark.usefixtures("deferring_build")
def test_a_reallocation_mid_block_keeps_the_lane():
    initial = random_connected(12, seed=2)
    reference, compiled = engines(initial, CompressionKernel(4.0), 5)
    tighten_window(compiled)
    cursors = []
    original = compiled._reallocate

    def spy():
        cursors.append(compiled._draws.cursor)
        original()

    compiled._reallocate = spy
    for chain in (reference, compiled):
        chain.run(2 * 1024 + 300)
    assert any(0 < cursor < 1024 for cursor in cursors), cursors
    assert compiled.occupied == reference.occupied
    assert compiled.rejection_counts == reference.rejection_counts
    expected, twin = numpy_tape(5, 12, 1024, 1, 3)
    assert_lane_replays(reference, compiled, expected, twin, "step", f"reallocations at {cursors}")


# --------------------------------------------------------------------- #
# The two-lane tape
# --------------------------------------------------------------------- #
@pytest.mark.usefixtures("deferring_build")
def test_lane_2_is_drawn_after_the_jump():
    initial = random_connected(30, seed=3)
    colors = {node: index % 3 for index, node in enumerate(sorted(initial.nodes))}
    kernel = SeparationKernel(4.0, 3.0, colors, swap_probability=0.4)
    reference, compiled = engines(initial, kernel, 17)
    for length in (700, 1024, 2000):
        for chain in (reference, compiled):
            chain.run(length)
        consumed = compiled.iterations
        assert compiled.color_map() == reference.color_map(), consumed
        expected, twin = numpy_tape(17, 30, 1024, 2, blocks_drawn(consumed, 1024))
        # Lane 2 is read on every proposal, so it is drawn eagerly.
        np.testing.assert_array_equal(compiled._draws.uniforms2, expected[3])
        assert_lane_replays(reference, compiled, expected, twin, "uniforms", f"after {consumed}")


# --------------------------------------------------------------------- #
# The generator's state reassigned mid-block
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("then", ["step", "run"])
@pytest.mark.usefixtures("deferring_build")
def test_a_reassigned_state_leaves_the_deferred_block_alone(then):
    """The rest of the deferred block comes from the state and increment
    saved when it was drawn, and the next block from the new state."""
    initial = random_connected(20, seed=8)
    reference, compiled = engines(initial, CompressionKernel(4.0), 21)
    for chain in (reference, compiled):
        chain.run(500)
    assert compiled._draws._fill.tape.deferred
    other = np.random.PCG64(99).state
    assert other["state"]["inc"] != compiled._rng.bit_generator.state["state"]["inc"]
    for chain in (reference, compiled):
        chain._rng.bit_generator.state = other
    expected, _ = numpy_tape(21, 20, 1024, 1, 1)
    # To the end of the block.
    if then == "step":
        for iteration in range(524):
            assert compiled.step() == reference.step(), iteration
    else:
        for chain in (reference, compiled):
            chain.run(300)
        np.testing.assert_array_equal(compiled._draws.uniforms, expected[2])
        for chain in (reference, compiled):
            chain.run(224)
    assert compiled.occupied == reference.occupied
    assert compiled.rejection_counts == reference.rejection_counts
    for chain in (reference, compiled):
        chain.run(100)  # into a block the run loop draws from the new state
    twin = np.random.Generator(np.random.PCG64())
    twin.bit_generator.state = other
    expected = numpy_block(twin, 20, 1024, 1)
    assert_lane_replays(reference, compiled, expected, twin, "uniforms", "the block after")


# --------------------------------------------------------------------- #
# Other bit generators
# --------------------------------------------------------------------- #
def test_an_mt19937_tape_is_never_deferred():
    initial = random_connected(20, seed=6)
    compiled = FastCompressionChain(
        initial, lam=4.0, seed=np.random.Generator(np.random.MT19937(9))
    )
    if compiled._library is None:
        pytest.skip("chain_loops.c did not build: there is no deferred lane to test")
    twin = np.random.Generator(np.random.MT19937(9))
    for length in (1, 1023, 1024, 3000):
        compiled.run(length)
        assert not compiled._draws._fill.tape.deferred, length
    for _ in range(blocks_drawn(compiled.iterations, 1024)):
        expected = numpy_block(twin, 20, 1024, 1)
    np.testing.assert_array_equal(compiled._draws._uniforms, expected[2])
