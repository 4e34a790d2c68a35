"""Differential fuzz: the vector engine's compiled loops against ``fast``.

``VectorCompressionChain.run()`` hands whole tape spans to the C loops in
``repro/core/_native/chain_loops.c``; ``FastCompressionChain.run()`` is
the Python loop they port.  For every kernel mode this file runs the two
side by side under mixed ``run()`` chunkings and asserts they end in the
same state — occupied set, edge count, acceptance and rejection
counters, the kernel's site count or color map, the tape position and
the perimeter — from three kinds of start:

* random connected starts with holes;
* starts placed one cell outside the grid's guard band, so the first
  accepted outward move lands in the band and forces a reallocation,
  through both the in-place path and the resize path of
  ``VectorCompressionChain._reallocate``;
* the separation kernel's two-lane tape (movements and color swaps).

A last test checks which starting configurations the vector engine keeps
referenced after construction.

``pytest --native-library PATH`` runs this file against another build of
``chain_loops.c`` (for instance a sanitizer build) instead of the cached
one.
"""

import numpy as np
import pytest

from repro.algorithms.separation import ColoredConfiguration
from repro.algorithms.shortcut_bridging import v_shaped_terrain
from repro.core import _native
from repro.core.fast_chain import DEFAULT_GRID_MARGIN, GUARD_BAND, FastCompressionChain, OccupancyGrid
from repro.core.kernels import BridgingKernel, CompressionKernel, SeparationKernel
from repro.core.moves import RING_OFFSETS
from repro.core.vector_chain import VectorCompressionChain
from repro.lattice.shapes import random_connected, spiral
from repro.lattice.triangular import DIRECTIONS

#: ``run()`` chunk sizes, applied in order: single steps, sizes that end
#: mid-block, and spans longer than one prefetch (16 blocks of 1024).
CHUNKINGS = (1, 7, 1000, 33333, 5, 2048)


@pytest.fixture(autouse=True)
def native_build(request, monkeypatch):
    """The build under test: ``--native-library`` if given, else the cache."""
    path = request.config.getoption("--native-library")
    if path is not None:
        library = _native.open_library(path)
        monkeypatch.setattr(_native, "load_library", lambda: library)


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


def twins(initial, kernel, seed):
    return (
        FastCompressionChain(initial, seed=seed, kernel=kernel),
        VectorCompressionChain(initial, seed=seed, kernel=kernel),
    )


def assert_same_state(fast, vector, context):
    assert vector.occupied == fast.occupied, context
    assert vector.edge_count == fast.edge_count, context
    assert vector.accepted_moves == fast.accepted_moves, context
    assert vector.accepted_swaps == fast.accepted_swaps, context
    assert vector.rejection_counts == fast.rejection_counts, context
    assert vector.iterations == fast.iterations, context
    mode = fast.kernel.mode
    if mode == "edge_site":
        assert vector.site_count == fast.site_count, context
    elif mode == "edge_color":
        assert vector.color_map() == fast.color_map(), context
    # Prefetching changes how many blocks the tape holds, never where in
    # the stream it stands.
    block = fast._draws.block
    assert vector._draws.cursor % block == fast._draws.cursor % block, context
    assert vector.perimeter() == fast.perimeter(), context


def drive(fast, vector, context):
    for chunk in CHUNKINGS:
        fast.run(chunk)
        vector.run(chunk)
        assert_same_state(fast, vector, f"{context} after run({chunk})")
    # Both tapes are aligned: the next proposal resolves identically.
    assert vector.step() == fast.step(), context


@pytest.mark.parametrize("mode", sorted(KERNELS))
@pytest.mark.parametrize("n, seed", [(40, 2), (60, 5), (90, 12)])
def test_holey_random_starts_match_fast(mode, n, seed):
    initial = holey_start(n, seed)
    kernel = KERNELS[mode](initial)
    fast, vector = twins(initial, kernel, seed=100 + seed)
    drive(fast, vector, f"{mode} n={n} seed={seed}")


# --------------------------------------------------------------------- #
# Starts one cell outside the guard band
# --------------------------------------------------------------------- #
def windowed_grid(nodes, left, right, below, above):
    """An occupancy grid with exactly the given free cells beside the
    bounding box of ``nodes`` (the constructor always leaves a uniform
    margin)."""
    grid = OccupancyGrid(nodes)
    xs = [x for x, _ in nodes]
    ys = [y for _, y in nodes]
    width = max(xs) - min(xs) + 1 + left + right
    height = max(ys) - min(ys) + 1 + below + above
    grid.origin_x = min(xs) - left
    grid.origin_y = min(ys) - below
    grid.width = width
    grid.height = height
    grid.cells = bytearray(width * height)
    grid.array = np.frombuffer(grid.cells, dtype=np.int8).reshape(height, width)
    grid.direction_offsets = tuple(dy * width + dx for dx, dy in DIRECTIONS)
    grid.ring_offsets = tuple(
        tuple(dy * width + dx for dx, dy in ring) for ring in RING_OFFSETS
    )
    for node in nodes:
        grid.cells[grid.flat_index(node)] = 1
    return grid


def move_to_window(chain, initial, margins):
    """Re-window a freshly built engine (before any draw) onto ``margins``."""
    ordered = sorted(initial.nodes)
    grid = windowed_grid(ordered, *margins)
    positions = [grid.flat_index(node) for node in ordered]
    chain._grid = grid
    vector = isinstance(chain, VectorCompressionChain)
    chain._pos = np.array(positions, dtype=np.int64) if vector else positions
    kernel = chain.kernel
    if kernel.mode == "edge_site":
        chain._site_plane = kernel.build_site_plane(grid)
    elif kernel.mode == "edge_color":
        chain._color_plane = kernel.build_color_plane(grid, positions)
    if vector:
        chain._bind_grid()


def record_reallocations(vector):
    """Log each reallocation of ``vector`` as ``"in_place"`` or ``"resize"``."""
    paths = []
    original = vector._reallocate

    def spy():
        before = vector.grid
        original()
        paths.append("in_place" if vector.grid is before else "resize")

    vector._reallocate = spy
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
def test_guard_band_starts_reallocate_and_match_fast(mode, path):
    initial = random_connected(12, seed=2)
    kernel = KERNELS[mode](initial)
    fast, vector = twins(initial, kernel, seed=2)
    for chain in (fast, vector):
        move_to_window(chain, initial, NEAR_BAND[path])
    paths = record_reallocations(vector)
    drive(fast, vector, f"{mode} {path}")
    assert paths, "the start must force a reallocation"
    assert paths[0] == path, paths


# --------------------------------------------------------------------- #
# The two-lane separation tape
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("swap_probability", [0.0, 0.3, 0.8, 1.0])
def test_two_lane_separation_tape_matches_fast(swap_probability):
    initial = spiral(50)
    kernel = separation(initial, swap_probability=swap_probability, seed=7)
    fast, vector = twins(initial, kernel, seed=41)
    drive(fast, vector, f"swap_probability={swap_probability}")
    if swap_probability:
        assert vector.accepted_swaps > 0
    if swap_probability < 1.0:
        assert vector.accepted_moves > 0


# --------------------------------------------------------------------- #
# The starting configuration
# --------------------------------------------------------------------- #
def test_only_a_holey_start_stays_referenced():
    """A hole-free start is dropped at construction (its snapshot is
    rebuilt on demand); a holey one is kept, because the perimeter is
    read from it until the holes die out."""
    hole_free = spiral(50)
    vector = VectorCompressionChain(hole_free, lam=4.0, seed=3)
    assert vector._configuration_cache is None
    assert vector.configuration == hole_free
    assert vector.perimeter() == hole_free.perimeter
    holey = holey_start(40, 2)
    vector = VectorCompressionChain(holey, lam=4.0, seed=3)
    assert vector._configuration_cache is holey
    assert vector.perimeter() == holey.perimeter
