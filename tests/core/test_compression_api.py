"""Tests for the high-level CompressionSimulation API."""

import pytest

from repro.algorithms.separation import ColoredConfiguration, SeparationMarkovChain
from repro.algorithms.shortcut_bridging import (
    BridgingMarkovChain,
    initial_bridge_configuration,
    v_shaped_terrain,
)
from repro.core.compression import CompressionSimulation, CompressionTrace, TracePoint
from repro.errors import ConfigurationError
from repro.lattice.geometry import max_perimeter, min_perimeter
from repro.lattice.shapes import line, spiral


def bridging_front_end(engine):
    terrain = v_shaped_terrain(4)
    initial = initial_bridge_configuration(terrain, 15)
    return BridgingMarkovChain(initial, terrain, 4.0, 2.0, engine=engine)


#: front end -> a builder of it over a small start, given the engine key.
FRONT_ENDS = {
    "compression": lambda engine: CompressionSimulation.from_line(10, 4.0, seed=0, engine=engine),
    "separation": lambda engine: SeparationMarkovChain(
        ColoredConfiguration.halves(line(8)), 4.0, 2.0, engine=engine
    ),
    "bridging": bridging_front_end,
}


class TestSetupAndMetrics:
    def test_from_line_matches_shape_generator(self):
        simulation = CompressionSimulation.from_line(12, lam=4.0, seed=0)
        assert simulation.configuration == line(12)
        assert simulation.min_possible_perimeter == min_perimeter(12)
        assert simulation.max_possible_perimeter == max_perimeter(12)

    def test_initial_trace_point_recorded(self):
        simulation = CompressionSimulation.from_line(10, lam=4.0, seed=0)
        assert len(simulation.trace.points) == 1
        first = simulation.trace.points[0]
        assert first.iteration == 0
        assert first.perimeter == 18
        assert first.holes == 0

    def test_ratios_for_perfectly_compressed_start(self):
        simulation = CompressionSimulation(spiral(19), lam=4.0, seed=0)
        assert simulation.compression_ratio() == pytest.approx(1.0)
        assert simulation.is_alpha_compressed(1.001)
        assert not simulation.is_beta_expanded(0.9)

    def test_ratios_for_line_start(self):
        simulation = CompressionSimulation.from_line(20, lam=4.0, seed=0)
        assert simulation.expansion_ratio() == pytest.approx(1.0)
        assert simulation.is_beta_expanded(0.99)
        assert not simulation.is_alpha_compressed(1.5)

    def test_metric_validation(self):
        simulation = CompressionSimulation.from_line(10, lam=4.0, seed=0)
        with pytest.raises(ConfigurationError):
            simulation.is_alpha_compressed(0.9)
        with pytest.raises(ConfigurationError):
            simulation.is_beta_expanded(1.5)

    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_engine_selection_and_unknown_engine(self, front_end):
        """Every front end selects its engine by one lookup, with one error."""
        build = FRONT_ENDS[front_end]
        assert build(engine="fast").engine == "fast"
        assert build(engine="vector").engine == "vector"
        for engine in ("warp", "sharded"):
            with pytest.raises(
                ConfigurationError,
                match=r"unknown engine '\w+'; expected one of \['fast', 'reference', 'vector'\]",
            ):
                build(engine=engine)


class TestRunning:
    def test_run_records_trace(self):
        simulation = CompressionSimulation.from_line(15, lam=4.0, seed=1)
        trace = simulation.run(5000, record_every=1000)
        assert isinstance(trace, CompressionTrace)
        assert trace is simulation.trace
        assert len(trace.points) == 6  # initial + 5 blocks
        assert trace.iterations() == [0, 1000, 2000, 3000, 4000, 5000]
        assert all(isinstance(point, TracePoint) for point in trace.points)

    def test_trace_series_accessors(self):
        simulation = CompressionSimulation.from_line(15, lam=4.0, seed=2)
        simulation.run(3000, record_every=1500)
        assert len(simulation.trace.perimeters()) == len(simulation.trace.alphas())
        assert simulation.trace.final().iteration == 3000

    def test_empty_trace_final_raises(self):
        trace = CompressionTrace(n=5, lam=4.0)
        with pytest.raises(ConfigurationError):
            trace.final()

    def test_perimeter_decreases_under_strong_bias(self):
        simulation = CompressionSimulation.from_line(30, lam=5.0, seed=3)
        start = simulation.chain.perimeter()
        simulation.run(80_000, record_every=20_000)
        assert simulation.chain.perimeter() < 0.7 * start

    def test_run_until_compressed_reaches_target(self):
        simulation = CompressionSimulation.from_line(15, lam=6.0, seed=4)
        iterations = simulation.run_until_compressed(alpha=2.5, max_iterations=300_000)
        assert iterations is not None
        assert simulation.is_alpha_compressed(2.5)

    def test_run_until_compressed_budget_exhaustion(self):
        simulation = CompressionSimulation.from_line(40, lam=4.0, seed=5)
        assert simulation.run_until_compressed(alpha=1.05, max_iterations=2000) is None

    def test_run_until_compressed_immediate_return(self):
        simulation = CompressionSimulation(spiral(19), lam=4.0, seed=6)
        assert simulation.run_until_compressed(alpha=1.5, max_iterations=100) == 0

    def test_run_parameter_validation(self):
        simulation = CompressionSimulation.from_line(10, lam=4.0, seed=0)
        with pytest.raises(ConfigurationError):
            simulation.run(-1)
        with pytest.raises(ConfigurationError):
            simulation.run(10, record_every=0)
        with pytest.raises(ConfigurationError):
            simulation.run_until_compressed(alpha=0.5, max_iterations=10)
