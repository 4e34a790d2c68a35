"""The fast engine's own machinery: its occupancy grid, its constructor
checks (shared with the other engines) and the perimeter/hole fallback of
holey starts.  The engine contract (bit-identical trajectories on every
engine) is ``test_engine_contract.py``."""

import numpy as np
import pytest

from repro.core.fast_chain import FastCompressionChain, OccupancyGrid
from repro.core.markov_chain import CompressionMarkovChain
from repro.core.vector_chain import VectorCompressionChain
from repro.errors import ConfigurationError
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.shapes import line, random_connected, spiral


def test_constructor_error_parity():
    disconnected = ParticleConfiguration([(0, 0), (5, 5)])
    for engine in (
        CompressionMarkovChain,
        FastCompressionChain,
        VectorCompressionChain,
    ):
        with pytest.raises(ConfigurationError):
            engine(disconnected, lam=4.0)
        with pytest.raises(ConfigurationError):
            engine(line(5), lam=0.0)
        with pytest.raises(ConfigurationError):
            engine(line(5), lam=4.0).run(-1)


@pytest.mark.parametrize("loops", ["compiled", "python"])
def test_holey_start_fallback_then_euler_lock_in(loops, python_loops):
    """The fast engine's perimeter/hole fallback path for holey starts.

    A start with holes must report *exact* ``perimeter()`` and
    ``hole_count()`` (from full recomputation, since ``p = 3n - 3 - e``
    only holds hole-free) until the holes vanish; once they do, the
    engine must lock into the O(1) Euler-identity path permanently and
    keep agreeing with recomputation.
    """
    start = random_connected(28, seed=104)  # chosen seed: starts with holes
    assert not start.is_hole_free, "fixture must exercise the holey fallback"
    with python_loops(loops == "python"):
        chain = FastCompressionChain(start, lam=5.0, seed=9)
    assert chain._hole_free is False
    saw_holey_phase = False
    locked_at = None
    for block in range(60):
        exact = chain.configuration
        # Exactness of the fallback (and, later, of the O(1) path).
        assert chain.perimeter() == exact.perimeter, f"block {block}"
        assert chain.hole_count() == len(exact.holes), f"block {block}"
        if not chain._hole_free:
            saw_holey_phase = saw_holey_phase or len(exact.holes) > 0
        if chain._hole_free:
            # Lock-in: the flag never clears, and the Euler identity holds.
            locked_at = block if locked_at is None else locked_at
            assert chain.perimeter() == 3 * chain.n - 3 - chain.edge_count
        chain.run(600)
    assert saw_holey_phase, "test never exercised the exact fallback"
    assert locked_at is not None, "holes never vanished; raise the block budget"
    assert chain._hole_free, "lock-in must be permanent (Lemma 3.2)"


@pytest.mark.slow
def test_holes_never_reappear_once_eliminated():
    """Once a holey start reaches the hole-free space it stays there (Lemma 3.2)."""
    for seed in (0, 1, 2):
        start = random_connected(30, seed=100 + seed)
        chain = FastCompressionChain(start, lam=5.0, seed=seed)
        was_hole_free = False
        for _ in range(25):
            chain.run(1000)
            # Recompute from scratch rather than trusting the engine's own
            # hole bookkeeping (which is itself under test here).
            hole_free_now = chain.configuration.is_hole_free
            if was_hole_free:
                assert hole_free_now, f"seed={seed}: a hole reappeared"
            was_hole_free = was_hole_free or hole_free_now


def grid_of(nodes, reuse=None):
    """An :class:`OccupancyGrid` occupied at ``nodes``, built as the engines build it."""
    xs, ys = np.array(nodes, dtype=np.int64).reshape(-1, 2).T
    return OccupancyGrid.from_coordinates(xs, ys, reuse=reuse)


def occupied_nodes(grid):
    """The occupied nodes of a grid, decoded off its plane, sorted."""
    xs, ys = grid.coordinates(np.flatnonzero(grid.array.reshape(-1)))
    return sorted(zip(xs.tolist(), ys.tolist()))


class TestOccupancyGrid:
    def test_roundtrip_and_membership(self):
        nodes = sorted(spiral(19).nodes)
        grid = grid_of(nodes)
        for node in nodes:
            assert grid.contains(node)
            assert grid.node_at(grid.flat_index(node)) == node
            assert grid.cells[grid.flat_index(node)] == 1
        assert not grid.contains((100, 100))  # outside the window
        assert occupied_nodes(grid) == nodes

    def test_array_view_shares_memory(self):
        grid = grid_of([(0, 0), (1, 0)])
        assert grid.array.sum() == 2
        grid.cells[grid.flat_index((0, 0))] = 0
        assert grid.array.sum() == 1
        grid.array.reshape(-1)[grid.flat_index((2, 0))] = 1
        assert grid.cells[grid.flat_index((2, 0))] == 1

    def test_far_apart_nodes_share_one_window(self):
        grid = grid_of([(0, 0), (500, -300)])
        assert grid.contains((0, 0)) and grid.contains((500, -300))
        assert occupied_nodes(grid) == [(0, 0), (500, -300)]

    def test_window_is_the_bounding_box_plus_margin(self):
        """Every node sits ``margin`` cells inside the window, clear of the
        guard band, so offset reads from it need no bounds checks."""
        from repro.core.fast_chain import DEFAULT_GRID_MARGIN, GUARD_BAND

        nodes = [(0, 0), (4, 0), (2, 10)]
        grid = grid_of(nodes)
        margin = DEFAULT_GRID_MARGIN
        assert (grid.origin_x, grid.origin_y) == (-margin, -margin)
        assert (grid.width, grid.height) == (5 + 2 * margin, 11 + 2 * margin)
        assert margin > GUARD_BAND
        for node in nodes:
            assert not grid.in_guard_band(grid.flat_index(node))

    def test_reuse_with_the_same_nodes_keeps_the_grid(self):
        nodes = sorted(random_connected(25, seed=2).nodes)
        grid = grid_of(nodes)
        origin = grid.origin_x, grid.origin_y
        assert grid_of(nodes, reuse=grid) is grid
        assert (grid.origin_x, grid.origin_y) == origin
        assert occupied_nodes(grid) == nodes

    def test_from_coordinates_validation(self):
        from repro.core.fast_chain import GUARD_BAND

        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ConfigurationError, match="at least one occupied node"):
            OccupancyGrid.from_coordinates(empty, empty)
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(ConfigurationError, match="guard band"):
            OccupancyGrid.from_coordinates(one, one, margin=GUARD_BAND)

    def test_reuse_repaints_in_place_when_dims_unchanged(self):
        """A pure drift (same bounding box size) must not reallocate: the
        reused grid's planes are repainted in place and its origin moves."""
        nodes = sorted(line(20).nodes)
        grid = grid_of(nodes)
        cells_before, array_before = grid.cells, grid.array
        origin_before = grid.origin_x, grid.origin_y
        shifted = [(x + 7, y - 3) for x, y in nodes]
        assert grid_of(shifted, reuse=grid) is grid
        assert grid.cells is cells_before
        assert grid.array is array_before
        assert (grid.origin_x, grid.origin_y) == (origin_before[0] + 7, origin_before[1] - 3)
        assert occupied_nodes(grid) == sorted(shifted)

    def test_reuse_builds_a_fresh_grid_when_dims_change(self):
        nodes = sorted(line(10).nodes)
        grid = grid_of(nodes)
        cells_before = bytes(grid.cells)
        fresh = grid_of(nodes + [(0, 30)], reuse=grid)  # grows the bounding box
        assert fresh is not grid
        assert fresh.array is not grid.array
        assert occupied_nodes(fresh) == sorted(nodes + [(0, 30)])
        assert bytes(grid.cells) == cells_before  # the old grid is left as it was

    def test_guard_band_membership_is_the_border(self):
        """in_guard_band (divmod arithmetic) marks exactly the border cells."""
        from repro.core.fast_chain import GUARD_BAND

        grid = grid_of([(0, 0), (3, 2)])
        for y in range(grid.height):
            for x in range(grid.width):
                expected = (
                    x < GUARD_BAND
                    or x >= grid.width - GUARD_BAND
                    or y < GUARD_BAND
                    or y >= grid.height - GUARD_BAND
                )
                assert grid.in_guard_band(y * grid.width + x) == expected, (x, y)
