"""Differential fuzz: the compiled loops against the Python loops.

``FastCompressionChain.run()`` hands whole tape spans to the C loops in
``repro/core/_native/chain_loops.c``; built with
:func:`repro.core._native.load_library` patched to return ``None`` (the
``python_loops`` fixture), the same class runs the Python loops they
port.  For every kernel mode this file runs the two builds side by side
under mixed ``run()`` chunkings and asserts they end in the same state —
occupied set, edge count, acceptance and rejection counters, the
kernel's site count or color map, the tape position, the generator
state, the unread uniforms and the perimeter — from three kinds of
start:

* random connected starts with holes;
* starts placed one cell outside the grid's guard band, so the first
  accepted outward move lands in the band and forces a reallocation,
  through both the in-place path and the resize path of
  ``FastCompressionChain._reallocate``;
* the separation kernel's two-lane tape (movements and color swaps).

The last tests check which starting configurations the engine keeps
referenced after construction, and that both engine keys and both class
names reach the same engine.

``pytest --native-library PATH`` runs this file against another build of
``chain_loops.c`` (for instance a sanitizer build) instead of the cached
one.
"""

from array import array

import numpy as np
import pytest

from repro.algorithms.separation import ColoredConfiguration
from repro.algorithms.shortcut_bridging import v_shaped_terrain
from repro.core import ENGINES
from repro.core.fast_chain import DEFAULT_GRID_MARGIN, GUARD_BAND, FastCompressionChain, OccupancyGrid
from repro.core.kernels import BridgingKernel, CompressionKernel, SeparationKernel
from repro.core.markov_chain import CompressionMarkovChain
from repro.core.vector_chain import VectorCompressionChain
from repro.lattice.shapes import random_connected, spiral

#: ``run()`` chunk sizes, applied in order: single steps, sizes that end
#: mid-block, and spans of many 1024-position blocks, which the compiled
#: loop refills one at a time inside one call.
CHUNKINGS = (1, 7, 1000, 33333, 5, 2048)


pytestmark = pytest.mark.usefixtures("native_build")


def compression(initial, lam=4.0):
    return CompressionKernel(lam)


def bridging(initial, lam=4.0, gamma=2.0, arm=6):
    return BridgingKernel(lam, gamma, v_shaped_terrain(arm).land)


def separation(initial, lam=4.0, gamma=3.0, swap_probability=0.5, seed=0):
    colored = ColoredConfiguration.random_colors(initial, num_colors=3, seed=seed)
    return SeparationKernel(lam, gamma, colored.colors, swap_probability)


KERNELS = {"edge": compression, "edge_site": bridging, "edge_color": separation}


def holey_start(n, seed):
    initial = random_connected(n, seed=seed)
    assert initial.holes, "the fuzz start must contain holes"
    return initial


def twins(initial, kernel, seed, python_loops):
    """The (Python loops, compiled loops) pair, seeded identically."""
    with python_loops():
        python = FastCompressionChain(initial, seed=seed, kernel=kernel)
    compiled = FastCompressionChain(initial, seed=seed, kernel=kernel)
    assert python._library is None
    if compiled._library is None:
        pytest.skip("no compiled loops to compare: chain_loops.c did not build")
    return python, compiled


def assert_same_state(python, compiled, context):
    assert compiled.occupied == python.occupied, context
    assert compiled.edge_count == python.edge_count, context
    assert compiled.accepted_moves == python.accepted_moves, context
    assert compiled.accepted_swaps == python.accepted_swaps, context
    assert compiled.rejection_counts == python.rejection_counts, context
    assert compiled.iterations == python.iterations, context
    mode = python.kernel.mode
    if mode == "edge_site":
        assert compiled.site_count == python.site_count, context
    elif mode == "edge_color":
        assert compiled.color_map() == python.color_map(), context
    # Every build refills one block when its cursor reaches the end, so
    # the tapes and the generators stand at the same place.
    expected, drawn = python._draws, compiled._draws
    assert drawn.cursor == expected.cursor, context
    assert drawn.size == expected.size, context
    assert compiled._rng.bit_generator.state == python._rng.bit_generator.state, context
    # Reading the unread uniforms draws a deferred lane of the compiled tape.
    unread = slice(expected.cursor, expected.size)
    np.testing.assert_array_equal(drawn.uniforms[unread], expected.uniforms[unread], err_msg=context)
    assert compiled.perimeter() == python.perimeter(), context


def drive(python, compiled, context):
    for chunk in CHUNKINGS:
        python.run(chunk)
        compiled.run(chunk)
        assert_same_state(python, compiled, f"{context} after run({chunk})")
    # Both tapes are aligned: the next proposal resolves identically.
    assert compiled.step() == python.step(), context


@pytest.mark.parametrize("mode", sorted(KERNELS))
@pytest.mark.parametrize("n, seed", [(40, 2), (60, 5), (90, 12)])
def test_holey_random_starts_match_fast(mode, n, seed, python_loops):
    initial = holey_start(n, seed)
    kernel = KERNELS[mode](initial)
    python, compiled = twins(initial, kernel, seed=100 + seed, python_loops=python_loops)
    drive(python, compiled, f"{mode} n={n} seed={seed}")


# --------------------------------------------------------------------- #
# Starts one cell outside the guard band
# --------------------------------------------------------------------- #
def windowed_grid(nodes, left, right, below, above):
    """An occupancy grid with exactly the given free cells beside the
    bounding box of ``nodes``.  ``from_coordinates`` leaves the same
    margin of more than :data:`GUARD_BAND` cells on every side, so the
    window is built around two corner nodes that margin inside it, and
    then painted with ``nodes`` alone."""
    xs, ys = np.array(nodes, dtype=np.int64).T
    margin = GUARD_BAND + 1
    corner_xs = np.array([xs.min() - left + margin, xs.max() + right - margin])
    corner_ys = np.array([ys.min() - below + margin, ys.max() + above - margin])
    assert corner_xs[0] <= corner_xs[1] and corner_ys[0] <= corner_ys[1], "window too small"
    grid = OccupancyGrid.from_coordinates(corner_xs, corner_ys, margin=margin)
    grid.array.fill(0)
    grid.array.reshape(-1)[grid.flat_indices(xs, ys)] = 1
    return grid


def move_to_window(chain, initial, margins):
    """Re-window a freshly built engine (before any draw) onto ``margins``."""
    ordered = sorted(initial.nodes)
    grid = windowed_grid(ordered, *margins)
    positions = [grid.flat_index(node) for node in ordered]
    chain._grid = grid
    chain._pos = array("q", positions)
    kernel = chain.kernel
    if kernel.mode == "edge_site":
        chain._site_plane = kernel.build_site_plane(grid)
    elif kernel.mode == "edge_color":
        chain._color_plane = kernel.build_color_plane(grid, positions)
    if chain._library is not None:
        chain._bind_grid()


def record_reallocations(compiled):
    """Log each reallocation of ``compiled`` as ``"in_place"`` or ``"resize"``."""
    paths = []
    original = compiled._reallocate

    def spy():
        before = compiled.grid
        original()
        paths.append("in_place" if compiled.grid is before else "resize")

    compiled._reallocate = spy
    return paths


#: Free cells left, right, below and above the start's bounding box.  Four
#: free cells put the outermost particles one cell outside the band.
#: ``resize``: band-adjacent on every side, so any reallocation changes the
#: window's size.  ``in_place``: band-adjacent on the right, and one cell
#: wider than the re-centered window in x, so a reallocation that grows the
#: bounding box by one column keeps the window's size.
NEAR_BAND = {
    "resize": (GUARD_BAND,) * 4,
    "in_place": (
        2 * DEFAULT_GRID_MARGIN + 1 - GUARD_BAND,
        GUARD_BAND,
        DEFAULT_GRID_MARGIN,
        DEFAULT_GRID_MARGIN,
    ),
}

@pytest.mark.parametrize("path", sorted(NEAR_BAND))
@pytest.mark.parametrize("mode", sorted(KERNELS))
def test_guard_band_starts_reallocate_and_match_fast(mode, path, python_loops):
    initial = random_connected(12, seed=2)
    kernel = KERNELS[mode](initial)
    python, compiled = twins(initial, kernel, seed=2, python_loops=python_loops)
    for chain in (python, compiled):
        move_to_window(chain, initial, NEAR_BAND[path])
    paths = record_reallocations(compiled)
    drive(python, compiled, f"{mode} {path}")
    assert paths, "the start must force a reallocation"
    assert paths[0] == path, paths


@pytest.mark.parametrize("path", sorted(NEAR_BAND))
@pytest.mark.parametrize("mode", sorted(KERNELS))
def test_guard_band_starts_reallocate_and_match_reference(mode, path):
    """Both builds share ``_reallocate``, so the grid-free reference engine
    is the oracle for the state carried across a re-center: positions,
    colors and the terrain plane."""
    initial = random_connected(12, seed=2)
    kernel = KERNELS[mode](initial)
    reference = CompressionMarkovChain(initial, seed=2, kernel=kernel)
    compiled = FastCompressionChain(initial, seed=2, kernel=kernel)
    move_to_window(compiled, initial, NEAR_BAND[path])
    paths = record_reallocations(compiled)
    for chunk in (1, 7, 1000, 2048):
        reference.run(chunk)
        compiled.run(chunk)
        assert_same_state(reference, compiled, f"{mode} {path} after run({chunk})")
    assert paths, "the start must force a reallocation"
    assert paths[0] == path, paths


# --------------------------------------------------------------------- #
# The two-lane separation tape
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("swap_probability", [0.0, 0.3, 0.8, 1.0])
def test_two_lane_separation_tape_matches_fast(swap_probability, python_loops):
    initial = spiral(50)
    kernel = separation(initial, swap_probability=swap_probability, seed=7)
    python, compiled = twins(initial, kernel, seed=41, python_loops=python_loops)
    drive(python, compiled, f"swap_probability={swap_probability}")
    if swap_probability:
        assert compiled.accepted_swaps > 0
    if swap_probability < 1.0:
        assert compiled.accepted_moves > 0


# --------------------------------------------------------------------- #
# The starting configuration
# --------------------------------------------------------------------- #
def test_only_a_holey_start_stays_referenced():
    """A hole-free start is dropped at construction (its snapshot is
    rebuilt on demand); a holey one is kept, because the perimeter is
    read from it until the holes die out."""
    hole_free = spiral(50)
    chain = FastCompressionChain(hole_free, lam=4.0, seed=3)
    assert chain._configuration_cache is None
    assert chain.configuration == hole_free
    assert chain.perimeter() == hole_free.perimeter
    holey = holey_start(40, 2)
    chain = FastCompressionChain(holey, lam=4.0, seed=3)
    assert chain._configuration_cache is holey
    assert chain.perimeter() == holey.perimeter


# --------------------------------------------------------------------- #
# The engine keys
# --------------------------------------------------------------------- #
def test_fast_and_vector_keys_build_the_same_class():
    assert ENGINES["vector"] is ENGINES["fast"] is FastCompressionChain
    initial = spiral(30)
    chains = [ENGINES[key](initial, lam=4.0, seed=5) for key in ("fast", "vector")]
    assert [type(chain) for chain in chains] == [FastCompressionChain] * 2
    for chain in chains:
        chain.run(5000)
    assert chains[0].occupied == chains[1].occupied
    assert issubclass(VectorCompressionChain, FastCompressionChain)


def test_wrapping_both_class_names_wraps_each_call_once(monkeypatch):
    """A wrapper on ``FastCompressionChain`` and one on
    ``VectorCompressionChain`` (as the benchmark tracer installs) never
    nest: each construction and each ``run()`` passes exactly one."""
    calls = []
    for cls in (FastCompressionChain, VectorCompressionChain):
        for attribute in ("__init__", "run"):
            original = getattr(cls, attribute)

            def wrapped(*args, _original=original, _name=f"{cls.__name__}.{attribute}", **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(cls, attribute, wrapped)
    VectorCompressionChain(spiral(10), lam=4.0, seed=0).run(100)
    FastCompressionChain(spiral(10), lam=4.0, seed=0).run(100)
    assert calls == [
        "VectorCompressionChain.__init__",
        "VectorCompressionChain.run",
        "FastCompressionChain.__init__",
        "FastCompressionChain.run",
    ]
