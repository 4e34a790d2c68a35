"""Tests for the extension algorithms and baselines."""

import pytest

from repro.algorithms.expansion import ExpansionSimulation
from repro.algorithms.hexagon_formation import hexagon_formation
from repro.algorithms.line_formation import moves_to_line
from repro.algorithms.separation import ColoredConfiguration, SeparationMarkovChain
from repro.algorithms.shortcut_bridging import (
    BridgingMarkovChain,
    initial_bridge_configuration,
    v_shaped_terrain,
)
from repro.core.moves import is_valid_move, Move
from repro.errors import AlgorithmError, ConfigurationError
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.geometry import min_perimeter
from repro.lattice.shapes import line, random_connected, ring, spiral


class TestExpansionSimulation:
    def test_rejects_compression_lambdas(self):
        with pytest.raises(ConfigurationError, match="proven expansion regime"):
            ExpansionSimulation.from_line(10, lam=4.0)

    def test_low_lambda_system_stays_expanded(self):
        simulation = ExpansionSimulation.from_line(30, lam=1.2, seed=0)
        simulation.run(40_000, record_every=40_000)
        assert simulation.expansion_ratio() > 0.5
        assert not simulation.is_alpha_compressed(1.5)

    def test_run_until_expanded(self):
        simulation = ExpansionSimulation.from_line(20, lam=1.0, seed=1)
        iterations = simulation.run_until_expanded(beta=0.6, max_iterations=50_000)
        assert iterations is not None
        with pytest.raises(ConfigurationError):
            simulation.run_until_expanded(beta=1.5, max_iterations=10)


class TestLineFormation:
    @pytest.mark.parametrize(
        "configuration",
        [spiral(7), ring(1), random_connected(8, seed=3), random_connected(9, seed=5)],
        ids=["spiral7", "ring6", "random8", "random9"],
    )
    def test_witness_transforms_configuration_into_line(self, configuration):
        """A machine-checked instance of Lemma 3.7 (and 3.8 when holes are present)."""
        result = moves_to_line(configuration)
        assert result.configurations[0] == configuration
        final = result.configurations[-1]
        assert final.perimeter == 2 * final.n - 2
        assert final.triangle_count == 0
        # Every intermediate move is a valid chain move applied to the
        # preceding configuration.
        for index, move in enumerate(result.moves):
            before = result.configurations[index]
            after = result.configurations[index + 1]
            assert is_valid_move(before.nodes, move)
            assert before.move(move.source, move.target) == after
            assert after.is_connected

    def test_line_input_needs_no_moves(self):
        result = moves_to_line(line(6))
        assert result.length == 0

    def test_disconnected_input_rejected(self):
        with pytest.raises(AlgorithmError):
            moves_to_line(ParticleConfiguration([(0, 0), (5, 5)]))

    def test_budget_exhaustion_raises(self):
        with pytest.raises(AlgorithmError):
            moves_to_line(spiral(12), max_states=5)


class TestHexagonFormationBaseline:
    def test_target_is_minimum_perimeter(self):
        for n in [10, 20, 35]:
            result = hexagon_formation(line(n))
            assert result.target.n == n
            assert result.target.perimeter == min_perimeter(n)
            assert result.target.is_connected

    def test_already_compressed_configuration_needs_fewer_moves_than_a_line(self):
        compressed = hexagon_formation(spiral(19))
        stretched = hexagon_formation(line(19))
        assert compressed.total_moves < stretched.total_moves

    def test_leader_is_preserved_in_target(self):
        result = hexagon_formation(line(12))
        assert result.leader in result.target.nodes

    def test_moves_scale_roughly_linearly(self):
        small = hexagon_formation(line(10)).total_moves
        large = hexagon_formation(line(40)).total_moves
        assert large < 30 * small

    def test_disconnected_input_rejected(self):
        with pytest.raises(AlgorithmError):
            hexagon_formation(ParticleConfiguration([(0, 0), (9, 9)]))


class TestSeparation:
    def test_colored_configuration_counts(self):
        colored = ColoredConfiguration.halves(line(10))
        assert colored.color_counts() == {0: 5, 1: 5}
        assert colored.homogeneous_edges() + colored.heterogeneous_edges() == 9

    def test_random_coloring_reproducible(self):
        a = ColoredConfiguration.random_colors(spiral(20), seed=1)
        b = ColoredConfiguration.random_colors(spiral(20), seed=1)
        assert a.colors == b.colors

    def test_segregation_bias_increases_homogeneous_edges(self):
        colored = ColoredConfiguration.random_colors(spiral(36), seed=2)
        chain = SeparationMarkovChain(colored, lam=4.0, gamma=4.0, seed=3)
        start = chain.state.homogeneous_edges()
        chain.run(25_000)
        assert chain.state.homogeneous_edges() > start
        assert chain.state.configuration.is_connected

    def test_color_counts_are_conserved(self):
        colored = ColoredConfiguration.halves(spiral(20))
        chain = SeparationMarkovChain(colored, lam=4.0, gamma=2.0, seed=4)
        chain.run(10_000)
        assert chain.state.color_counts() == colored.color_counts()

    def test_parameter_validation(self):
        colored = ColoredConfiguration.halves(line(6))
        with pytest.raises(AlgorithmError):
            SeparationMarkovChain(colored, lam=-1, gamma=2)
        with pytest.raises(AlgorithmError):
            SeparationMarkovChain(colored, lam=2, gamma=2, swap_probability=1.5)


class TestShortcutBridging:
    def test_terrain_construction(self):
        terrain = v_shaped_terrain(6)
        assert terrain.anchors[0] in terrain.land
        assert terrain.anchors[1] in terrain.land
        assert terrain.is_gap((1000, 1000))

    def test_initial_configuration_is_on_land(self):
        terrain = v_shaped_terrain(6)
        initial = initial_bridge_configuration(terrain, 30)
        assert initial.n == 30
        assert initial.is_connected
        assert terrain.gap_occupancy(initial) == 0

    def test_gap_aversion_limits_bridge_size(self):
        terrain = v_shaped_terrain(5)
        initial = initial_bridge_configuration(terrain, 25)
        tolerant = BridgingMarkovChain(initial, terrain, lam=4.0, gamma=1.0, seed=5)
        averse = BridgingMarkovChain(initial, terrain, lam=4.0, gamma=6.0, seed=5)
        tolerant.run(20_000)
        averse.run(20_000)
        assert averse.gap_occupancy() <= tolerant.gap_occupancy()
        assert averse.configuration.is_connected
        assert tolerant.configuration.is_connected

    def test_terrain_validation(self):
        with pytest.raises(AlgorithmError):
            v_shaped_terrain(1)
        terrain = v_shaped_terrain(4)
        with pytest.raises(AlgorithmError):
            initial_bridge_configuration(terrain, 10_000)

