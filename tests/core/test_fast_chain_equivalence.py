"""Differential-testing harness: the optimized engines against the reference.

The contract under test is the one documented in :mod:`repro.core`:
seeded identically (same seed, same draw block), the grid-based
:class:`~repro.core.fast_chain.FastCompressionChain` — on its compiled
loops and on its Python loops alike — and the hash-map
:class:`~repro.core.markov_chain.CompressionMarkovChain` must produce
bit-identical trajectories — the same proposal every iteration, resolved
the same way (identical move, rejection reason and edge delta), with
identical running edge counts, perimeters and rejection tallies.  The
batched ``run()`` path (the compiled C loop) is additionally tested
against the Python loops' ``run()`` across every case, since ``step()``
resolves proposals in Python either way.

Lockstep runs cover the paper's standard line start, maximally compressed
spirals, and random connected starts (with and without holes), across
compressing (``lambda > 3.42``), neutral (``lambda = 1``) and expanding
(``lambda < 2.17``) regimes.
"""

import pytest

from repro.core.fast_chain import FastCompressionChain, OccupancyGrid
from repro.core.markov_chain import CompressionMarkovChain
from repro.core.moves import RING_OFFSETS, move_tables, move_tables_array
from repro.core.properties import satisfies_either_property
from repro.core.vector_chain import VectorCompressionChain
from repro.errors import ConfigurationError
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.shapes import line, random_connected, ring, spiral
from repro.lattice.triangular import DIRECTIONS, neighbors

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

    def test_array_form_matches_list_form(self):
        """move_tables_array() is the same data as move_tables(), column-wise."""
        neighbors_before, neighbors_after, property_ok = move_tables()
        array = move_tables_array()
        assert array.shape == (256, 3)
        assert not array.flags.writeable
        assert array[:, 0].tolist() == neighbors_before
        assert array[:, 1].tolist() == neighbors_after
        assert array[:, 2].tolist() == [int(ok) for ok in property_ok]

    def test_array_form_is_memoized(self):
        assert move_tables_array() is move_tables_array()


class TestOccupancyGrid:
    def test_roundtrip_and_membership(self):
        nodes = sorted(spiral(19).nodes)
        grid = OccupancyGrid(nodes)
        for node in nodes:
            assert grid.node_at(grid.flat_index(node)) == node
            assert grid.is_occupied(node)
        assert not grid.is_occupied((100, 100))  # outside the window
        assert sorted(grid.occupied_nodes()) == nodes
        assert grid.occupied_count() == 19

    def test_array_view_shares_memory(self):
        grid = OccupancyGrid([(0, 0)])
        assert grid.array.sum() == 1
        grid.add((1, 0))
        assert grid.array.sum() == 2
        grid.remove((0, 0))
        assert grid.array.sum() == 1

    def test_add_far_outside_window_recenters(self):
        grid = OccupancyGrid([(0, 0)])
        grid.add((500, -300))
        assert grid.is_occupied((0, 0))
        assert grid.is_occupied((500, -300))
        assert grid.occupied_count() == 2

    def test_recenter_preserves_occupancy(self):
        nodes = sorted(random_connected(25, seed=2).nodes)
        grid = OccupancyGrid(nodes)
        grid.recenter()
        assert sorted(grid.occupied_nodes()) == nodes

    def test_recenter_reuses_buffers_when_dims_unchanged(self):
        """A pure drift (same bounding box size) must not reallocate: the
        fast path repaints the existing planes in place."""
        nodes = sorted(line(20).nodes)
        grid = OccupancyGrid(nodes)
        cells_before, array_before = grid.cells, grid.array
        # Translate the window by recentering around shifted extra nodes:
        # same bbox dims, different origin.
        shifted = [(x + 7, y - 3) for x, y in nodes]
        for node in nodes:
            grid.remove(node)
        for node in shifted:
            grid.add(node)
        grid.recenter()
        assert grid.cells is cells_before
        assert grid.array is array_before
        assert sorted(grid.occupied_nodes()) == sorted(shifted)

    def test_recenter_reallocates_when_dims_change(self):
        nodes = sorted(line(10).nodes)
        grid = OccupancyGrid(nodes)
        array_before = grid.array
        grid.add((0, 30))  # grows the bounding box: fast path must not fire
        grid.recenter()
        assert grid.array is not array_before
        assert sorted(grid.occupied_nodes()) == sorted(nodes + [(0, 30)])

    def test_recenter_includes_extra_nodes_in_bbox(self):
        """extra nodes widen the recenter bbox even when unoccupied."""
        grid = OccupancyGrid([(0, 0), (4, 0)])
        grid.recenter(extra=[(2, 10)])
        assert grid.is_occupied((0, 0)) and grid.is_occupied((4, 0))
        assert not grid.is_occupied((2, 10))
        # The extra node must now sit inside the window (no recenter needed
        # to add it).
        flat = grid.flat_index((2, 10))
        assert 0 <= flat < grid.width * grid.height

    def test_guard_band_membership_is_the_border(self):
        """in_guard_band (divmod arithmetic) marks exactly the border cells."""
        from repro.core.fast_chain import GUARD_BAND

        grid = OccupancyGrid([(0, 0), (3, 2)])
        for y in range(grid.height):
            for x in range(grid.width):
                expected = (
                    x < GUARD_BAND
                    or x >= grid.width - GUARD_BAND
                    or y < GUARD_BAND
                    or y >= grid.height - GUARD_BAND
                )
                assert grid.in_guard_band(y * grid.width + x) == expected, (x, y)
