"""Benchmarks E12, E13 and E15: the distributed engine, faults, and the extensions."""

from __future__ import annotations

from repro.algorithms.hexagon_formation import hexagon_formation
from repro.algorithms.separation import ColoredConfiguration, SeparationMarkovChain
from repro.algorithms.shortcut_bridging import (
    BridgingMarkovChain,
    initial_bridge_configuration,
    v_shaped_terrain,
)
from repro.amoebot.faults import CrashFaultInjector, FaultPlan
from repro.amoebot.system import AmoebotSystem
from repro.lattice.shapes import line, spiral


def test_distributed_compression(benchmark):
    """E12: Algorithm A on the Figure 2 workload (reduced scale)."""

    def run():
        system = AmoebotSystem(line(50), lam=4.0, seed=0)
        system.run(100_000)
        return system

    system = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["experiment"] = "E12 (Algorithm A)"
    benchmark.extra_info["final_perimeter"] = system.perimeter()
    benchmark.extra_info["completed_moves"] = system.stats.completed_moves
    assert system.perimeter() < 2 * 50 - 2
    assert system.configuration.is_connected


def test_compression_with_crash_faults(benchmark):
    """E13: 10% crash faults; the healthy particles keep compressing."""

    def run():
        system = AmoebotSystem(line(40), lam=4.0, seed=1)
        plan = FaultPlan(
            injectors=[CrashFaultInjector(fraction=0.1, after_activations=5_000, seed=2)]
        )
        plan.run(system, activations=80_000)
        return system, plan

    system, plan = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["experiment"] = "E13 (crash faults)"
    benchmark.extra_info["crashed"] = plan.injectors[0].crashed_ids
    benchmark.extra_info["final_perimeter"] = system.perimeter()
    assert system.configuration.is_connected
    assert system.perimeter() < 2 * 40 - 2


def test_separation_extension(benchmark):
    """E15: the separation chain segregates colors when gamma > 1."""

    def run():
        colored = ColoredConfiguration.random_colors(spiral(48), seed=3)
        chain = SeparationMarkovChain(colored, lam=4.0, gamma=4.0, seed=4)
        start = chain.state.homogeneous_edges()
        chain.run(30_000)
        return start, chain.state.homogeneous_edges()

    start, end = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["experiment"] = "E15 (separation)"
    benchmark.extra_info["homogeneous_edges"] = {"start": start, "end": end}
    assert end > start


def test_bridging_extension(benchmark):
    """E15: gap aversion trades bridge cost against path length."""

    def run():
        terrain = v_shaped_terrain(5)
        initial = initial_bridge_configuration(terrain, 25)
        tolerant = BridgingMarkovChain(initial, terrain, lam=4.0, gamma=1.0, seed=5)
        averse = BridgingMarkovChain(initial, terrain, lam=4.0, gamma=6.0, seed=5)
        tolerant.run(15_000)
        averse.run(15_000)
        return tolerant.gap_occupancy(), averse.gap_occupancy()

    tolerant_gap, averse_gap = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["experiment"] = "E15 (shortcut bridging)"
    benchmark.extra_info["gap_occupancy"] = {"gamma=1": tolerant_gap, "gamma=6": averse_gap}
    assert averse_gap <= tolerant_gap


def test_hexagon_formation_baseline(benchmark):
    """E15/E10 baseline: the leader-coordinated formation's move count."""
    result = benchmark.pedantic(hexagon_formation, args=(line(50),), rounds=1, iterations=1)
    benchmark.extra_info["experiment"] = "baseline (leader-based formation)"
    benchmark.extra_info["total_moves"] = result.total_moves
    assert result.target.perimeter < 2 * 50 - 2
