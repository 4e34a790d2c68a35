"""Tests for geometric identities and configuration generators."""

import math

import pytest

from repro.constants import pmax
from repro.errors import ConfigurationError
from repro.lattice.geometry import (
    alpha_compression_threshold,
    beta_expansion_threshold,
    edges_from_perimeter,
    max_perimeter,
    min_perimeter,
    min_perimeter_bounds,
    min_perimeter_hexagon,
    perimeter_from_edges,
    perimeter_from_triangles,
    triangles_from_perimeter,
)
from repro.lattice.shapes import (
    hexagon,
    line,
    parallelogram,
    property2_witness,
    random_connected,
    random_hole_free,
    ring,
    spiral,
    staircase,
)
from repro.lattice.triangular import hex_distance, neighbors


def greedy_spiral_order(limit):
    """The first ``limit`` nodes of the greedy spiral, one full frontier scan each.

    This is the original O(n^2) construction of ``spiral``, kept as the
    oracle of the incremental one: every step rescans the whole frontier
    for the most occupied neighbors, then the smallest distance to the
    origin, then the smallest ``y``, then the smallest ``x``.  The
    construction never looks at ``n``, so ``spiral(n)`` must be exactly
    the first ``n`` nodes of this order.
    """
    occupied = {(0, 0)}
    order = [(0, 0)]
    while len(order) < limit:
        frontier = {nb for node in occupied for nb in neighbors(node) if nb not in occupied}
        best = max(
            frontier,
            key=lambda c: (
                sum(1 for nb in neighbors(c) if nb in occupied),
                -hex_distance((0, 0), c),
                -c[1],
                -c[0],
            ),
        )
        occupied.add(best)
        order.append(best)
    return order


class TestSpiralOracle:
    """``spiral`` returns the greedy oracle's node set for every ``n``."""

    @staticmethod
    def check_up_to(limit):
        order = greedy_spiral_order(limit)
        for n in range(1, limit + 1):
            assert spiral(n).nodes == frozenset(order[:n]), n

    def test_every_n_up_to_300(self):
        self.check_up_to(300)

    @pytest.mark.slow
    def test_every_n_up_to_2000(self):
        self.check_up_to(2000)


class TestGeometryIdentities:
    @pytest.mark.parametrize("n", [2, 3, 5, 10, 40, 100])
    def test_perimeter_edge_triangle_roundtrips(self, n):
        for perimeter in range(int(math.isqrt(n)), 2 * n - 1):
            assert perimeter_from_edges(n, edges_from_perimeter(n, perimeter)) == perimeter
            assert perimeter_from_triangles(n, triangles_from_perimeter(n, perimeter)) == perimeter

    def test_max_perimeter(self):
        assert max_perimeter(1) == 0
        assert max_perimeter(2) == 2
        assert max_perimeter(10) == 18
        assert max_perimeter(10) == pmax(10)

    def test_min_perimeter_small_values(self):
        assert min_perimeter(1) == 0
        assert min_perimeter(2) == 2
        assert min_perimeter(3) == 3
        assert min_perimeter(4) == 4
        assert min_perimeter(7) == 6
        assert min_perimeter(19) == 12  # hexagon(2)

    def test_min_perimeter_between_paper_bounds(self):
        for n in range(2, 300):
            lower, upper = min_perimeter_bounds(n)
            assert lower <= min_perimeter(n) <= upper

    def test_min_perimeter_matches_full_hexagons(self):
        for radius in range(0, 6):
            configuration = hexagon(radius)
            assert min_perimeter(configuration.n) == configuration.perimeter

    def test_min_perimeter_matches_exhaustive_enumeration(self):
        from repro.lattice.enumeration import enumerate_configurations

        for n in range(2, 8):
            best = min(
                configuration.perimeter
                for configuration in enumerate_configurations(n, hole_free_only=True)
            )
            assert best == min_perimeter(n)

    def test_spiral_attains_minimum_perimeter(self):
        for n in [1, 2, 5, 9, 13, 22, 30, 47, 61, 90]:
            assert spiral(n).perimeter == min_perimeter(n)
            assert min_perimeter_hexagon(n) == min_perimeter(n)

    def test_thresholds_validate_inputs(self):
        with pytest.raises(ConfigurationError):
            alpha_compression_threshold(10, alpha=1.0)
        with pytest.raises(ConfigurationError):
            beta_expansion_threshold(10, beta=1.5)
        assert alpha_compression_threshold(10, 2.0) == 2 * min_perimeter(10)
        assert beta_expansion_threshold(10, 0.5) == 0.5 * max_perimeter(10)

    def test_invalid_n_rejected(self):
        with pytest.raises(ConfigurationError):
            min_perimeter(0)
        with pytest.raises(ConfigurationError):
            perimeter_from_edges(0, 0)


class TestShapes:
    def test_line(self):
        configuration = line(12)
        assert configuration.n == 12
        assert configuration.perimeter == 22
        assert configuration.edge_count == 11
        assert line(1).n == 1

    def test_line_other_directions(self):
        for direction in range(6):
            configuration = line(5, direction=direction)
            assert configuration.n == 5
            assert configuration.perimeter == 8

    def test_staircase_attains_max_perimeter(self):
        for n in [2, 5, 9, 14]:
            configuration = staircase(n)
            assert configuration.perimeter == max_perimeter(n)
            assert configuration.triangle_count == 0

    def test_staircase_custom_steps(self):
        configuration = staircase(6, steps=[1, 1, 0, 0, 1])
        assert configuration.n == 6
        assert configuration.perimeter == 10
        with pytest.raises(ConfigurationError):
            staircase(4, steps=[0])

    def test_hexagon_sizes(self):
        for radius, expected in [(0, 1), (1, 7), (2, 19), (3, 37)]:
            assert hexagon(radius).n == expected

    def test_ring_sizes_and_holes(self):
        for radius in [1, 2, 3]:
            configuration = ring(radius)
            assert configuration.n == 6 * radius
            assert configuration.has_holes

    def test_parallelogram(self):
        configuration = parallelogram(3, 4)
        assert configuration.n == 12
        assert configuration.is_connected
        assert not configuration.has_holes

    def test_random_connected_is_connected_and_reproducible(self):
        a = random_connected(25, seed=7)
        b = random_connected(25, seed=7)
        c = random_connected(25, seed=8)
        assert a == b
        assert a != c
        assert a.is_connected

    def test_random_connected_compactness_reduces_perimeter(self):
        stringy = random_connected(40, seed=3, compactness=0.0)
        compact = random_connected(40, seed=3, compactness=0.95)
        assert compact.perimeter < stringy.perimeter

    def test_random_hole_free(self):
        for seed in range(5):
            configuration = random_hole_free(22, seed=seed)
            assert configuration.is_connected
            assert configuration.is_hole_free

    def test_property2_witness_structure(self):
        configuration, source, target = property2_witness()
        assert configuration.is_connected
        assert configuration.is_hole_free
        assert source in configuration
        assert target not in configuration

    def test_generators_reject_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            line(0)
        with pytest.raises(ConfigurationError):
            spiral(0)
        with pytest.raises(ConfigurationError):
            ring(0)
        with pytest.raises(ConfigurationError):
            parallelogram(0, 3)
