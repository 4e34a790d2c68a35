"""Tests for Properties 1 and 2 and the move-legality layer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fast_chain import FastCompressionChain
from repro.core.moves import (
    MOVE_TABLE_BYTES,
    RING_OFFSETS,
    Move,
    apply_move,
    classify_move,
    enumerate_moves_by_property,
    enumerate_valid_moves,
    is_valid_move,
    move_edge_delta,
    move_tables,
    neighbor_count,
)
from repro.core.properties import (
    common_occupied_neighbors,
    joint_neighborhood,
    satisfies_either_property,
    satisfies_property_1,
    satisfies_property_2,
)
from repro.errors import InvalidMoveError, LatticeError
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.shapes import hexagon, line, property2_witness, random_hole_free, ring
from repro.lattice.triangular import DIRECTIONS, are_adjacent, neighbors


class TestJointNeighborhood:
    def test_eight_nodes_in_ring_order(self):
        ring_nodes = joint_neighborhood((0, 0), (1, 0))
        assert len(ring_nodes) == 8
        assert len(set(ring_nodes)) == 8
        # Consecutive ring nodes are lattice-adjacent (cyclically).
        for i, node in enumerate(ring_nodes):
            assert are_adjacent(node, ring_nodes[(i + 1) % 8])
        # The ring is exactly the union of the two neighborhoods minus the endpoints.
        expected = (set(neighbors((0, 0))) | set(neighbors((1, 0)))) - {(0, 0), (1, 0)}
        assert set(ring_nodes) == expected

    def test_requires_adjacency(self):
        with pytest.raises(LatticeError):
            joint_neighborhood((0, 0), (2, 0))

    def test_common_occupied_neighbors(self):
        occupied = {(0, 0), (1, 0), (0, 1)}
        assert set(common_occupied_neighbors(occupied, (0, 0), (1, 0))) == {(0, 1)}
        assert common_occupied_neighbors({(0, 0), (1, 0)}, (0, 0), (1, 0)) == ()


class TestProperty1:
    def test_sliding_along_a_cluster_satisfies_property_1(self, triangle):
        # The particle at (0, 1) sliding to (1, 1) keeps contact through (1, 0).
        occupied = triangle.nodes
        assert satisfies_property_1(occupied, (0, 1), (1, 1))
        assert satisfies_either_property(occupied, (0, 1), (1, 1))

    def test_line_interior_particle_fails_both_properties(self):
        occupied = line(5).nodes
        # The interior particle at (2, 0) moving up has neighbors on both
        # sides that are not connected within the joint neighborhood.
        assert not satisfies_property_1(occupied, (2, 0), (2, 1))
        assert not satisfies_property_2(occupied, (2, 0), (2, 1))

    def test_line_endpoint_has_property_1_move(self):
        occupied = line(5).nodes
        assert satisfies_property_1(occupied, (0, 0), (1, -1))

    def test_symmetry_in_source_and_target(self, random_configs):
        """Both properties are symmetric in l and l' (needed for reversibility)."""
        for configuration in random_configs:
            occupied = configuration.nodes
            for move in enumerate_valid_moves(occupied)[:20]:
                after = apply_move(occupied, move)
                assert satisfies_property_1(occupied, move.source, move.target) == \
                    satisfies_property_1(after, move.target, move.source)
                assert satisfies_property_2(occupied, move.source, move.target) == \
                    satisfies_property_2(after, move.target, move.source)


class TestProperty2:
    def test_witness_move_is_property_2_only(self):
        configuration, source, target = property2_witness()
        occupied = configuration.nodes
        assert satisfies_property_2(occupied, source, target)
        assert not satisfies_property_1(occupied, source, target)
        assert is_valid_move(occupied, Move(source, target))
        assert classify_move(occupied, Move(source, target)) == "property2"

    def test_properties_are_mutually_exclusive(self, random_configs):
        """Property 1 needs |S| >= 1 while Property 2 needs |S| = 0."""
        for configuration in random_configs:
            occupied = configuration.nodes
            grouped = enumerate_moves_by_property(occupied)
            assert not (set(grouped["property1"]) & set(grouped["property2"]))

    def test_isolated_sides_fail_property_2(self):
        # Two particles with an empty target whose far side has no neighbors.
        occupied = {(0, 0), (0, 1)}
        assert not satisfies_property_2(occupied, (0, 1), (1, 1))


class TestMoveLegality:
    def test_five_neighbor_particles_cannot_move(self):
        # Remove one outer particle of the flower: the center then has 5 neighbors.
        config = hexagon(1).remove((1, 0))
        occupied = config.nodes
        assert neighbor_count(occupied, (0, 0), exclude=((0, 0),)) == 5
        assert not is_valid_move(occupied, Move((0, 0), (1, 0)))
        # And enumerate_valid_moves never proposes it.
        assert all(move.source != (0, 0) for move in enumerate_valid_moves(occupied))

    def test_occupied_target_is_invalid(self, flower):
        assert not is_valid_move(flower.nodes, Move((1, 0), (0, 0)))

    def test_missing_source_raises(self, flower):
        with pytest.raises(InvalidMoveError):
            is_valid_move(flower.nodes, Move((9, 9), (9, 10)))

    def test_move_edge_delta_matches_configuration_recount(self, random_configs):
        for configuration in random_configs:
            occupied = configuration.nodes
            for move in enumerate_valid_moves(occupied)[:15]:
                delta = move_edge_delta(occupied, move)
                after = ParticleConfiguration(apply_move(occupied, move))
                assert after.edge_count - configuration.edge_count == delta

    def test_apply_move_validation(self, flower):
        with pytest.raises(InvalidMoveError):
            apply_move(flower.nodes, Move((9, 9), (9, 10)))
        with pytest.raises(InvalidMoveError):
            apply_move(flower.nodes, Move((1, 0), (0, 0)))

    def test_valid_moves_preserve_connectivity_and_hole_freeness(self):
        """The structural content of Lemmas 3.1 and 3.2 checked exhaustively."""
        for seed in range(6):
            configuration = random_hole_free(14, seed=seed)
            occupied = configuration.nodes
            for move in enumerate_valid_moves(occupied):
                after = ParticleConfiguration(apply_move(occupied, move))
                assert after.is_connected
                assert after.is_hole_free

    def test_valid_moves_from_holey_configuration_preserve_connectivity(self, hex_ring):
        occupied = hex_ring.nodes
        for move in enumerate_valid_moves(occupied):
            after = ParticleConfiguration(apply_move(occupied, move))
            assert after.is_connected

    def test_reverse_move_is_also_valid(self, random_configs):
        """Lemma 3.9: valid moves between hole-free states are reversible."""
        for configuration in random_configs:
            if configuration.has_holes:
                continue
            occupied = configuration.nodes
            for move in enumerate_valid_moves(occupied)[:15]:
                after = apply_move(occupied, move)
                assert is_valid_move(after, move.reversed())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(4, 18))
def test_property_checks_only_depend_on_local_neighborhood(seed, n):
    """Adding particles far away never changes the outcome of the property checks."""
    configuration = random_hole_free(n, seed=seed)
    occupied = set(configuration.nodes)
    moves = enumerate_valid_moves(occupied)
    far_particle = (1000, 1000)
    augmented = occupied | {far_particle}
    for move in moves[:10]:
        assert satisfies_property_1(occupied, move.source, move.target) == \
            satisfies_property_1(augmented, move.source, move.target)
        assert satisfies_property_2(occupied, move.source, move.target) == \
            satisfies_property_2(augmented, move.source, move.target)


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
