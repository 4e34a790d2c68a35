"""Differential-testing harness: the optimized engines against the reference.

The contract under test is the one documented in :mod:`repro.core`:
seeded identically (same seed, same draw block), the grid-based
:class:`~repro.core.fast_chain.FastCompressionChain` — on its compiled
loops and on its Python loops alike — and the hash-map
:class:`~repro.core.markov_chain.CompressionMarkovChain` must produce
bit-identical trajectories — the same proposal every iteration, resolved
the same way (identical move, rejection reason and edge delta), with
identical running edge counts, perimeters and rejection tallies.
``step()`` is one pass of the build's own loop (``run_chain`` or
``_run_python``), so the lockstep cases test each loop proposal by
proposal; the batched ``run()`` path is additionally tested against the
Python loops' ``run()`` across every case.

Lockstep runs cover the paper's standard line start, maximally compressed
spirals, and random connected starts (with and without holes), across
compressing (``lambda > 3.42``), neutral (``lambda = 1``) and expanding
(``lambda < 2.17``) regimes.

``pytest --native-library PATH`` runs it against another build of
``chain_loops.c`` (a sanitizer build, say): ``step()`` enters and leaves
the compiled loop once per proposal.
"""

import numpy as np
import pytest

from repro.core.fast_chain import FastCompressionChain, OccupancyGrid
from repro.core.markov_chain import CompressionMarkovChain
from repro.core.moves import MOVE_TABLE_BYTES, RING_OFFSETS, move_tables
from repro.core.properties import satisfies_either_property
from repro.core.vector_chain import VectorCompressionChain
from repro.errors import ConfigurationError
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.shapes import line, random_connected, ring, spiral
from repro.lattice.triangular import DIRECTIONS, neighbors

pytestmark = pytest.mark.usefixtures("native_build")

#: name -> (start configuration, lambda, lockstep iterations)
LOCKSTEP_CASES = {
    "line20_compressing": (line(20), 4.0, 2500),
    "line35_strong_bias": (line(35), 6.0, 2500),
    "spiral25_compressing": (spiral(25), 4.0, 2000),
    "spiral40_expanding": (spiral(40), 1.5, 2000),
    "random24_with_holes": (random_connected(24, seed=11), 4.0, 2000),
    "random30_compact": (random_connected(30, seed=23, compactness=0.6), 2.0, 2000),
    "ring2_hole_elimination": (ring(2), 4.0, 2000),
    "unbiased_random_walk": (line(15), 1.0, 2000),
}

#: The builds measured against the reference implementation: the fast
#: engine on its compiled loops ("fast") and on its Python loops ("python").
CANDIDATES = ("fast", "python")


def engine_pair(initial, lam, seed, candidate, python_loops):
    """A (reference, candidate) pair seeded identically."""
    reference = CompressionMarkovChain(initial, lam=lam, seed=seed)
    with python_loops(candidate == "python"):
        return reference, FastCompressionChain(initial, lam=lam, seed=seed)


def assert_same_final_state(candidate, reference, context=""):
    assert candidate.occupied == reference.occupied, context
    assert candidate.edge_count == reference.edge_count, context
    assert candidate.accepted_moves == reference.accepted_moves, context
    assert candidate.rejection_counts == reference.rejection_counts, context
    assert candidate.perimeter() == reference.perimeter(), context
    assert candidate.hole_count() == reference.hole_count(), context


@pytest.mark.slow
@pytest.mark.parametrize("candidate", CANDIDATES)
@pytest.mark.parametrize("name", sorted(LOCKSTEP_CASES))
def test_lockstep_trajectories_are_identical(name, candidate, python_loops):
    initial, lam, iterations = LOCKSTEP_CASES[name]
    reference, engine = engine_pair(initial, lam, 7, candidate, python_loops)
    for iteration in range(iterations):
        expected = reference.step()
        actual = engine.step()
        assert actual == expected, (
            f"{name}: trajectories diverged at iteration {iteration}: "
            f"reference={expected}, {candidate}={actual}"
        )
        assert engine.edge_count == reference.edge_count, f"{name}@{iteration}"
        if iteration % 250 == 0:
            assert engine.perimeter() == reference.perimeter(), f"{name}@{iteration}"
    assert_same_final_state(engine, reference)
    assert engine.configuration == reference.configuration


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(LOCKSTEP_CASES))
def test_vector_run_matches_fast_run(name, python_loops):
    """The compiled run() must equal the Python loops' run()."""
    initial, lam, iterations = LOCKSTEP_CASES[name]
    with python_loops():
        fast = FastCompressionChain(initial, lam=lam, seed=19)
    vector = VectorCompressionChain(initial, lam=lam, seed=19)
    # Uneven chunks straddle draw blocks and multi-block refills.
    for chunk in (1, 37, 700, 1024, 2500, iterations):
        fast.run(chunk)
        vector.run(chunk)
        assert vector.edge_count == fast.edge_count, f"{name} after chunk {chunk}"
    assert_same_final_state(vector, fast, name)


@pytest.mark.slow
@pytest.mark.parametrize("candidate", CANDIDATES)
def test_block_runs_match_lockstep_runs(candidate, python_loops):
    """run(k) must consume the tape exactly like k step() calls."""
    initial = line(40)
    with python_loops(candidate == "python"):
        stepped = FastCompressionChain(initial, lam=4.0, seed=3)
        blocked = FastCompressionChain(initial, lam=4.0, seed=3)
    for _ in range(3000):
        stepped.step()
    for block in (1, 7, 500, 992, 1500):  # straddles draw-block boundaries
        blocked.run(block)
    assert blocked.iterations == stepped.iterations == 3000
    assert blocked.occupied == stepped.occupied
    assert blocked.edge_count == stepped.edge_count
    assert blocked.rejection_counts == stepped.rejection_counts


@pytest.mark.slow
@pytest.mark.parametrize("candidate", CANDIDATES)
def test_long_run_with_grid_reallocation_matches_reference(candidate, python_loops):
    """An unbiased blob drifts far enough to force several grid re-centers."""
    initial = line(30)
    reference, engine = engine_pair(initial, 1.0, 13, candidate, python_loops)
    reference.run(150_000)
    engine.run(150_000)
    assert_same_final_state(engine, reference)


@pytest.mark.parametrize("candidate", CANDIDATES)
def test_callback_interface_matches_reference(candidate, python_loops):
    seen_reference, seen_candidate = [], []
    reference, engine = engine_pair(line(12), 4.0, 5, candidate, python_loops)
    reference.run(200, callback=lambda i, r: seen_reference.append((i, r)))
    engine.run(200, callback=lambda i, r: seen_candidate.append((i, r)))
    assert seen_candidate == seen_reference


def test_mixed_step_and_run_keeps_vector_engine_aligned(python_loops):
    """Interleaving scalar step() with compiled run() shares one tape."""
    with python_loops():
        fast = FastCompressionChain(line(25), lam=4.0, seed=2)
    vector = VectorCompressionChain(line(25), lam=4.0, seed=2)
    for _ in range(40):
        fast.step()
        vector.step()
    for chunk in (900, 200, 2048):
        fast.run(chunk)
        vector.run(chunk)
    for _ in range(40):
        assert vector.step() == fast.step()
    assert_same_final_state(vector, fast)


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


class TestMoveTables:
    def test_the_literals_are_the_reference_derivation(self):
        """The shipped tables, regenerated for the East edge from the
        reference properties and neighbor sets, mask by mask."""
        ring = RING_OFFSETS[0]
        source, target = (0, 0), DIRECTIONS[0]
        derived = ([], [], [])
        for mask in range(256):
            occupied = {source}
            occupied.update(ring[k] for k in range(8) if mask >> k & 1)
            derived[0].append(sum(node in occupied for node in neighbors(source)))
            derived[1].append(sum(node in occupied - {source} for node in neighbors(target)))
            derived[2].append(satisfies_either_property(occupied, source, target))
        assert move_tables() == derived
        assert MOVE_TABLE_BYTES == tuple(bytes(table) for table in derived)
        assert all(type(ok) is bool for ok in move_tables()[2])

    def test_engines_share_one_copy_of_the_tables(self):
        chains = [FastCompressionChain(line(5), lam=4.0, seed=seed) for seed in range(2)]
        assert chains[0]._nb_before is chains[1]._nb_before is move_tables()[0]
        if chains[0]._library is not None:
            pointers = [
                (chain._grid_struct.nb_before, chain._grid_struct.property_ok) for chain in chains
            ]
            assert pointers[0] == pointers[1]

    def test_property_table_matches_reference_in_every_direction(self):
        """One table serves all six directions (rotation invariance)."""
        _, _, property_ok = move_tables()
        for direction, delta in enumerate(DIRECTIONS):
            ring = RING_OFFSETS[direction]
            for mask in range(256):
                occupied = {(0, 0)}
                occupied.update(ring[k] for k in range(8) if mask >> k & 1)
                assert property_ok[mask] == satisfies_either_property(
                    occupied, (0, 0), delta
                ), f"direction {direction}, mask {mask:#010b}"

    def test_neighbor_tables_count_ring_bits(self):
        neighbors_before, neighbors_after, _ = move_tables()
        ring = RING_OFFSETS[0]
        source, target = (0, 0), DIRECTIONS[0]
        for mask in range(256):
            occupied = {ring[k] for k in range(8) if mask >> k & 1}
            assert neighbors_before[mask] == sum(
                1 for node in neighbors(source) if node in occupied
            )
            assert neighbors_after[mask] == sum(
                1 for node in neighbors(target) if node in occupied
            )


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
