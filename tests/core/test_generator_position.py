"""Where ``run()`` leaves the random generator: the same place on every engine.

The compiled ``run_chain`` refills the draw tape itself, one block when
its cursor reaches the end, so after ``run(k)`` the bit generator has
drawn exactly the blocks that the ``k`` consumed positions lie in —
what the Python loop and the reference engine, which refill one block
at a time as they read, have drawn.  Here the three engines, seeded
alike, must hold equal ``bit_generator.state`` (and equal trajectories)
after runs that end inside a block, exactly at its end, one past it and
several blocks on, for every kernel mode, and across a run that crosses
a guard-band reallocation of the grid.

``pytest --native-library PATH`` runs this file against another build of
``chain_loops.c`` (a sanitizer build, say) instead of the cached one.
"""

import pytest

from repro.core.fast_chain import FastCompressionChain
from repro.core.markov_chain import CompressionMarkovChain
from repro.lattice.shapes import random_connected
from test_native_loops import KERNELS, NEAR_BAND, move_to_window, record_reallocations

#: ``run()`` lengths around the 1024-position draw block.
RUN_LENGTHS = (1, 799, 1024, 1025, 3 * 1024 + 5)

pytestmark = pytest.mark.usefixtures("native_build")


def three_engines(initial, kernel, seed, python_loops):
    """(reference, Python loop, compiled loop) engines, seeded alike."""
    reference = CompressionMarkovChain(initial, seed=seed, kernel=kernel)
    with python_loops():
        python = FastCompressionChain(initial, seed=seed, kernel=kernel)
    compiled = FastCompressionChain(initial, seed=seed, kernel=kernel)
    if compiled._library is None:
        pytest.skip("no compiled loop to compare: chain_loops.c did not build")
    return reference, python, compiled


def assert_same_position(engines, context):
    reference, python, compiled = engines
    state = reference._rng.bit_generator.state
    assert python._rng.bit_generator.state == state, f"Python loop, {context}"
    assert compiled._rng.bit_generator.state == state, f"compiled loop, {context}"
    assert compiled._draws.cursor == python._draws.cursor == reference._draws.cursor, context
    for engine in (python, compiled):
        assert engine.occupied == reference.occupied, context
        assert engine.edge_count == reference.edge_count, context
        assert engine.rejection_counts == reference.rejection_counts, context


@pytest.mark.parametrize("mode", sorted(KERNELS))
@pytest.mark.parametrize("length", RUN_LENGTHS)
def test_one_run_leaves_the_generator_where_the_other_engines_do(mode, length, python_loops):
    initial = random_connected(30, seed=3)
    engines = three_engines(initial, KERNELS[mode](initial), 41, python_loops)
    for engine in engines:
        engine.run(length)
    assert_same_position(engines, f"{mode} after run({length})")


@pytest.mark.parametrize("mode", sorted(KERNELS))
def test_successive_runs_keep_the_generators_together(mode, python_loops):
    initial = random_connected(30, seed=4)
    engines = three_engines(initial, KERNELS[mode](initial), 43, python_loops)
    for length in RUN_LENGTHS:
        for engine in engines:
            engine.run(length)
        assert_same_position(engines, f"{mode} after a further run({length})")


@pytest.mark.parametrize("mode", sorted(KERNELS))
def test_a_run_across_a_reallocation_keeps_the_generators_together(mode, python_loops):
    initial = random_connected(12, seed=2)
    engines = three_engines(initial, KERNELS[mode](initial), 0, python_loops)
    reference, python, compiled = engines
    for engine in (python, compiled):
        move_to_window(engine, initial, NEAR_BAND["resize"])
    reallocations = record_reallocations(compiled)
    for engine in engines:
        engine.run(3 * 1024 + 5)
    assert reallocations, "the start next to the guard band never reached it"
    assert_same_position(engines, f"{mode} after {len(reallocations)} reallocations")
