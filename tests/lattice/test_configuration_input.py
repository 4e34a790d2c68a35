"""What a ParticleConfiguration makes of its input, and what occupy() reads.

The constructor reads its nodes once into a tuple, in the given order.
When every node is an exact ``tuple`` of two exact ``int`` values it keeps
those tuples as they are (the fast path); any other input goes through
the normalizing comprehension ``(int(x), int(y))``, which is the
specification.  :func:`repro.core.fast_chain.occupy` reads coordinates off
that ordered tuple, and must give the same grid and particle order
whatever order or form the nodes came in.
"""

import collections
import pickle
import random

import numpy as np
import pytest

from repro.core.fast_chain import occupy
from repro.errors import ConfigurationError
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.shapes import hexagon, line, ring, spiral

Point = collections.namedtuple("Point", "x y")

#: Exact-int tuples, including negative coordinates and a hole.
NODES = sorted(ring(3).nodes | {(0, 0), (5, -2), (4, -1)})

#: Each input form of the same nodes; every one but the first takes the
#: normalizing path or (the generator and the frozenset) arrives in
#: another order.
FORMS = {
    "exact_int_tuples": lambda: list(NODES),
    "lists": lambda: [[x, y] for x, y in NODES],
    "numpy_int64_pairs": lambda: [tuple(np.array(node, dtype=np.int64)) for node in NODES],
    "numpy_rows": lambda: np.array(NODES, dtype=np.int64),
    "floats": lambda: [(float(x), float(y)) for x, y in NODES],
    "namedtuples": lambda: [Point(x, y) for x, y in NODES],
    "generator": lambda: ((x, y) for x, y in NODES),
    "frozenset": lambda: frozenset(NODES),
    "mixed": lambda: [(x, y) if i % 2 else (np.int32(x), float(y)) for i, (x, y) in enumerate(NODES)],
}


def compact_disc_nodes(n):
    """The nodes of ``benchmarks/_starts.compact_disc(n)``, in its order."""
    radius = 0
    while 1 + 3 * (radius + 1) * (radius + 2) <= n:
        radius += 1
    nodes = list(hexagon(radius).nodes)
    nodes.extend(sorted(ring(radius + 1).nodes)[: n - len(nodes)])
    return nodes


def assert_same_occupancy(left, right):
    left_grid, left_pos = occupy(left)
    right_grid, right_pos = occupy(right)
    assert (left_grid.origin_x, left_grid.origin_y) == (right_grid.origin_x, right_grid.origin_y)
    assert left_grid.array.shape == right_grid.array.shape
    assert np.array_equal(left_grid.array, right_grid.array)
    assert np.array_equal(left_pos, right_pos)


class TestInputForms:
    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_every_form_gives_the_same_configuration(self, form):
        reference = ParticleConfiguration(NODES)
        built = ParticleConfiguration(FORMS[form]())
        spec = frozenset((int(x), int(y)) for x, y in FORMS[form]())
        assert built.nodes == spec == reference.nodes
        assert built == reference
        assert hash(built) == hash(reference)
        assert repr(built) == repr(reference)
        assert_same_occupancy(built, reference)

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_nodes_are_exact_int_tuples(self, form):
        built = ParticleConfiguration(FORMS[form]())
        for node in built.nodes:
            assert type(node) is tuple
            assert [type(value) for value in node] == [int, int]

    def test_bools_are_ints(self):
        built = ParticleConfiguration([(False, False), (True, False), (False, True)])
        assert built == ParticleConfiguration([(0, 0), (1, 0), (0, 1)])
        assert_same_occupancy(built, ParticleConfiguration([(0, 0), (1, 0), (0, 1)]))
        assert all(type(value) is int for node in built.nodes for value in node)

    def test_floats_truncate_as_int_does(self):
        built = ParticleConfiguration([(0.9, 0.0), (1.5, -0.5)])
        assert built.nodes == {(0, 0), (1, 0)}

    def test_exact_int_tuples_are_kept_as_given(self):
        nodes = [(x, y) for x, y in NODES]
        built = ParticleConfiguration(nodes)
        assert all(kept is given for kept, given in zip(built._ordered, nodes))

    def test_tuples_of_other_lengths_still_fail_to_unpack(self):
        with pytest.raises(ValueError):
            ParticleConfiguration([(0, 0), (1, 0, 0)])


class TestRejections:
    @pytest.mark.parametrize("empty", [[], (), iter([]), frozenset(), (n for n in ())])
    def test_empty_input(self, empty):
        with pytest.raises(ConfigurationError):
            ParticleConfiguration(empty)

    @pytest.mark.parametrize(
        "nodes",
        [
            [(0, 0), (0, 0)],
            [(0, 0), (1, 0), (0, 0)],
            [(1, 0), (1.0, 0)],
            [(1, 0), (True, 0)],
            [(1, 0), [1, 0]],
            [(1, 0), (np.int64(1), np.int64(0))],
            [(1, 0), Point(1, 0)],
            [(1.0, 0), (1.2, 0.7)],
        ],
    )
    def test_duplicates_after_normalization(self, nodes):
        with pytest.raises(ConfigurationError, match="duplicate"):
            ParticleConfiguration(nodes)


class TestOccupyOrder:
    def test_sorted_reversed_and_shuffled_discs_occupy_alike(self):
        nodes = compact_disc_nodes(5000)
        shuffled = list(nodes)
        random.Random(0).shuffle(shuffled)
        orders = [nodes, sorted(nodes), sorted(nodes, reverse=True), shuffled]
        configurations = [ParticleConfiguration(order) for order in orders]
        for other in configurations[1:]:
            assert_same_occupancy(configurations[0], other)

    def test_particles_come_in_sorted_node_order(self):
        nodes = compact_disc_nodes(5000)
        random.Random(1).shuffle(nodes)
        grid, pos = occupy(ParticleConfiguration(nodes))
        assert [grid.node_at(int(flat)) for flat in pos] == sorted(nodes)


class TestPickle:
    # Protocol-4 pickle sizes of the same configurations when the pickle
    # carried the frozenset through the default slot state.
    PREVIOUS_BYTES = {"line": 690, "spiral": 966}

    @pytest.mark.parametrize("shape", sorted(PREVIOUS_BYTES))
    def test_round_trip_is_equal_and_no_larger(self, shape):
        configuration = {"line": line, "spiral": spiral}[shape](100)
        configuration.edge_count  # a cached property does not travel
        data = pickle.dumps(configuration, protocol=4)
        restored = pickle.loads(data)
        assert restored == configuration
        assert hash(restored) == hash(configuration)
        assert restored.nodes == configuration.nodes
        assert restored._ordered == configuration._ordered
        assert restored.edge_count == configuration.edge_count
        assert len(data) <= self.PREVIOUS_BYTES[shape]
        # The nodes travel once: the configuration's pickle is the node
        # tuple's plus a constant for the class and the call.
        assert len(data) - len(pickle.dumps(configuration._ordered, protocol=4)) < 100

    def test_every_protocol_round_trips(self):
        configuration = ParticleConfiguration(FORMS["floats"]())
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(configuration, protocol=protocol))
            assert restored == configuration
            assert_same_occupancy(restored, configuration)
