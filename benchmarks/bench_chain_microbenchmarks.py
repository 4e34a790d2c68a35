"""Micro-benchmarks of the chain's inner loop and of the distributed simulator.

These are throughput numbers (iterations per second) rather than paper
artifacts; they make regressions in the move-legality checks visible.
Results are mirrored into ``BENCH_chain.json`` via :mod:`_emit` so the
repo's perf trajectory is machine-readable.

The headline comparison is reference vs. fast engine at ``n = 1000``:
the fast engine must hold at least a 10x advantage
(``test_fast_engine_speedup_at_n1000``), while the differential harness
(``tests/core/test_engine_contract.py``) guarantees the two
engines produce identical seeded trajectories — speed, not semantics.

``test_tape_refill_speedup_n200467`` gates the compiled draw-tape fill at
2x the numpy calls it replaces (``tests/test_native_tape.py`` pins that
the two draw the same stream).  ``test_run_call_n100`` records what one
short ``run()`` costs, the call a ``lambda_sweep`` job makes a hundred
times per replica, and ``test_run_chain_disc_n200467`` what one long
``run()`` costs per iteration on the paper-scale disc, draws included.
``test_disc_setup_n200467`` times that disc's configuration and engine
construction as separate phases.  Both take their rounds in several
fresh processes.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import _emit
from _fresh import PROCESSES, in_fresh_processes, spread
from _starts import compact_disc
from repro.amoebot.system import AmoebotSystem
from repro.core import _native
from repro.core.fast_chain import FastCompressionChain, OccupancyGrid
from repro.core.markov_chain import CompressionMarkovChain
from repro.core.moves import enumerate_valid_moves
from repro.lattice.shapes import line, random_connected, spiral
from repro.rng import BatchedMoveDraws


def _iterations_per_second(benchmark, iterations: int) -> float:
    return iterations / benchmark.stats.stats.mean


def test_chain_step_throughput(benchmark):
    chain = CompressionMarkovChain(line(100), lam=4.0, seed=0)
    benchmark(chain.run, 2000)
    benchmark.extra_info["experiment"] = "chain inner loop"
    _emit.record(
        "reference_chain_n100",
        engine="reference",
        n=100,
        iterations_per_second=_iterations_per_second(benchmark, 2000),
    )


@pytest.mark.parametrize("n", [1000, 2000, 5000])
def test_fast_chain_step_throughput(benchmark, n):
    chain = FastCompressionChain(line(n), lam=4.0, seed=0)
    iterations = 50_000
    benchmark(chain.run, iterations)
    benchmark.extra_info["experiment"] = f"fast engine inner loop (n={n})"
    rate = _iterations_per_second(benchmark, iterations)
    benchmark.extra_info["iterations_per_second"] = rate
    _emit.record(
        f"fast_chain_n{n}",
        engine="fast",
        n=n,
        iterations_per_second=rate,
    )


def test_reference_chain_step_throughput_n1000(benchmark):
    chain = CompressionMarkovChain(line(1000), lam=4.0, seed=0)
    iterations = 5000
    benchmark(chain.run, iterations)
    benchmark.extra_info["experiment"] = "reference engine inner loop (n=1000)"
    rate = _iterations_per_second(benchmark, iterations)
    benchmark.extra_info["iterations_per_second"] = rate
    _emit.record(
        "reference_chain_n1000",
        engine="reference",
        n=1000,
        iterations_per_second=rate,
    )


def test_fast_engine_speedup_at_n1000():
    """Acceptance gate: the fast engine is >= 10x the reference at n=1000."""

    def measure(chain, iterations):
        chain.run(2000)  # warm up caches and the draw tape
        start = time.perf_counter()
        chain.run(iterations)
        return iterations / (time.perf_counter() - start)

    reference_rate = measure(CompressionMarkovChain(line(1000), lam=4.0, seed=0), 20_000)
    fast_rate = measure(FastCompressionChain(line(1000), lam=4.0, seed=0), 200_000)
    speedup = fast_rate / reference_rate
    _emit.record(
        "engine_speedup_n1000",
        n=1000,
        reference_iterations_per_second=reference_rate,
        fast_iterations_per_second=fast_rate,
        speedup=speedup,
    )
    assert speedup >= 10.0, (
        f"fast engine is only {speedup:.1f}x the reference at n=1000 "
        f"({fast_rate:.0f} vs {reference_rate:.0f} iterations/sec)"
    )


def test_tape_refill_speedup_n200467():
    """Gate: the compiled tape fill is >= 2x numpy's calls at n=200,467.

    A round is 320 refills of one 1024-position block each (through the
    inlined PCG64 of ``chain_loops.c``, numpy's default bit generator);
    numpy draws the same stream with three calls per block on an equally
    seeded generator.  Rounds interleave the two; each side's best round
    is its ns per tape position."""
    n, block, refills = 200_467, 1024, 320
    if _native.load_library() is None:
        pytest.skip("chain_loops.c did not build: no compiled tape to time")
    tape = BatchedMoveDraws(np.random.default_rng(0), n=n, block=block)
    twin = np.random.default_rng(0)
    assert tape._fill is not None

    def compiled():
        for _ in range(refills):
            tape.refill()

    def numpy_calls():
        for _ in range(refills):
            twin.integers(0, n, size=block)
            twin.integers(0, 6, size=block)
            twin.random(block)

    positions = refills * block
    rounds = {compiled: [], numpy_calls: []}
    for _ in range(7):
        for fill, times in rounds.items():
            started = time.perf_counter()
            fill()
            times.append(time.perf_counter() - started)
    compiled_ns, numpy_ns = (1e9 * min(times) / positions for times in rounds.values())
    speedup = numpy_ns / compiled_ns
    _emit.record(
        "tape_refill_n200467",
        n=n,
        block=block,
        refills=refills,
        rounds=len(rounds[compiled]),
        compiled_ns_per_it=compiled_ns,
        numpy_ns_per_it=numpy_ns,
        speedup=speedup,
    )
    assert speedup >= 2.0, (
        f"the compiled tape fill is only {speedup:.2f}x numpy's calls at n={n} "
        f"({compiled_ns:.1f} vs {numpy_ns:.1f} ns per position)"
    )


def test_run_call_n100(python_loops):
    """Microseconds per ``run(800)`` of the fast engine at n = 100.

    A ``lambda_sweep`` replica records its trace in 800-iteration
    ``run()`` calls, so at n = 100 the per-call cost outside the loop
    matters.  The compiled build and the Python-loop build, seeded alike
    (so they walk the same trajectory), alternate rounds of 200 calls;
    each side's best round is its time per call.  No gate: the row
    tracks the compiled call's fixed cost."""
    n, iterations, calls, rounds = 100, 800, 200, 7
    compiled = FastCompressionChain(line(n), lam=4.0, seed=0)
    if compiled._library is None:
        pytest.skip("chain_loops.c did not build: no compiled run() to time")
    python = python_loops(FastCompressionChain)(line(n), lam=4.0, seed=0)
    times = {compiled: [], python: []}
    for _ in range(rounds):
        for chain, series in times.items():
            started = time.perf_counter()
            for _ in range(calls):
                chain.run(iterations)
            series.append(time.perf_counter() - started)
    assert compiled.occupied == python.occupied
    compiled_us, python_us = (1e6 * min(series) / calls for series in times.values())
    _emit.record(
        "run_call_n100",
        n=n,
        iterations=iterations,
        calls=calls,
        rounds=rounds,
        compiled_us_per_call=compiled_us,
        python_us_per_call=python_us,
        speedup=python_us / compiled_us,
    )


_RUN_CHAIN_CHILD = """
import json, sys, time
from _starts import compact_disc
from repro.core.fast_chain import FastCompressionChain
n, iterations, rounds = map(int, sys.argv[1:])
chain = FastCompressionChain(compact_disc(n), lam=4.0, seed=0)
if chain._library is None:
    print(json.dumps(None))
    raise SystemExit
times = []
for _ in range(rounds):
    started = time.perf_counter()
    chain.run(iterations)
    times.append(time.perf_counter() - started)
print(json.dumps(times))
"""

_DISC_SETUP_CHILD = """
import json, sys, time
from repro.core.fast_chain import FastCompressionChain
from repro.lattice.configuration import ParticleConfiguration
radius, rounds = map(int, sys.argv[1:])
# The node list of perfbench's large_n_disc: fresh tuples, x-major.
nodes = [
    (x, y)
    for x in range(-radius, radius + 1)
    for y in range(max(-radius, -x - radius), min(radius, radius - x) + 1)
]
# One small engine first: the move tables and the library load once a
# process and are not part of either phase.
FastCompressionChain(ParticleConfiguration(nodes[:7]), lam=4.0, seed=0)
phases = {"construct": [], "engine_init": []}
for _ in range(rounds):
    started = time.perf_counter()
    configuration = ParticleConfiguration(nodes)
    built = time.perf_counter()
    chain = FastCompressionChain(configuration, lam=4.0, seed=0)
    done = time.perf_counter()
    phases["construct"].append(built - started)
    phases["engine_init"].append(done - built)
    del configuration, chain
print(json.dumps(phases))
"""


def test_run_chain_disc_n200467():
    """Nanoseconds per iteration of ``run(2_000_000)`` on the n = 200,467 disc.

    The chain of ``perfbench``'s ``large_n_disc`` workload: a compressed
    disc at lambda = 4, where about 0.25% of proposals reach the
    Metropolis filter and read their uniform, so the loop's cost is
    mostly the move checks and the index and direction draws.  Each of
    :data:`PROCESSES` fresh interpreters builds one engine and runs the
    rounds back to back; the row holds the best and the median round
    over all of them, the quartiles, and each process's median.  No
    gate: the row tracks the compiled loop with the draws it makes."""
    n, iterations, rounds = 200_467, 2_000_000, 7
    per_process = in_fresh_processes(_RUN_CHAIN_CHILD, n, iterations, rounds)
    if None in per_process:
        pytest.skip("chain_loops.c did not build: no compiled run() to time")
    summary = spread(per_process, 1e9 / iterations)
    _emit.record(
        "run_chain_disc_n200467",
        n=n,
        lam=4.0,
        iterations=iterations,
        processes=PROCESSES,
        rounds=rounds,
        best_ns_per_it=summary["best"],
        median_ns_per_it=summary["median"],
        q1_ns_per_it=summary["q1"],
        q3_ns_per_it=summary["q3"],
        process_median_ns_per_it=summary["process_medians"],
    )


def test_disc_setup_n200467():
    """Seconds to build ``large_n_disc``'s start, by phase.

    ``construct`` is ``ParticleConfiguration(nodes)`` on perfbench's node
    list (n = 200,467, fresh tuples in x-major order); ``engine_init`` is
    ``FastCompressionChain`` on that configuration: the grid scatter, the
    start invariants and the tape.  Each of :data:`PROCESSES` fresh
    interpreters times the rounds back to back after one small engine
    has built the move tables.  No gate: the row tracks the setup that
    ``perfbench`` reports as ``setup_s``."""
    radius, rounds = 258, 7
    per_process = in_fresh_processes(_DISC_SETUP_CHILD, radius, rounds)
    phases = []
    for phase in ("construct", "engine_init"):
        summary = spread([times[phase] for times in per_process], 1.0)
        phases.append(
            {
                "phase": phase,
                "best_s": summary["best"],
                "median_s": summary["median"],
                "q1_s": summary["q1"],
                "q3_s": summary["q3"],
                "process_median_s": summary["process_medians"],
            }
        )
    _emit.record(
        "disc_setup_n200467",
        n=1 + 3 * radius * (radius + 1),
        lam=4.0,
        processes=PROCESSES,
        rounds=rounds,
        phases=phases,
    )


def test_occupancy_grid_reuse_n100000(benchmark):
    """The dims-unchanged re-center fast path at n=100k.

    Steady-state re-centers (the bounding box drifts but keeps its size)
    repaint the existing planes in place instead of reallocating: the
    engines' reallocation calls ``from_coordinates(xs, ys, reuse=grid)``,
    which at n=10^5-10^6 turns the most common re-center from a
    window-sized allocation into two vectorized scatters, which is what
    keeps long large-n runs from stalling on drift."""
    coordinates = np.array(sorted(compact_disc(100_000).nodes), dtype=np.int64)
    xs, ys = coordinates[:, 0], coordinates[:, 1]
    grid = OccupancyGrid.from_coordinates(xs, ys)
    reused = benchmark(OccupancyGrid.from_coordinates, xs, ys, reuse=grid)
    assert reused is grid, "the reuse fast path did not fire"
    benchmark.extra_info["experiment"] = "grid rebuild with buffer reuse (n=100000)"
    _emit.record(
        "occupancy_reuse_n100000",
        n=100_000,
        recenters_per_second=1.0 / benchmark.stats.stats.mean,
    )


def test_spiral_construction_n1000(benchmark):
    """Gate: ``spiral(1000)`` builds in at most 20 ms, best of rounds.

    Every separation job builds its start with ``spiral``; the greedy
    construction keeps an incremental frontier heap instead of rescanning
    the frontier per particle (about 1.1 s at n = 1000 before)."""
    configuration = benchmark.pedantic(spiral, args=(1000,), rounds=15, warmup_rounds=1)
    assert configuration.n == 1000
    best = benchmark.stats.stats.min
    benchmark.extra_info["experiment"] = "spiral shape construction (n=1000)"
    _emit.record("spiral_n1000", n=1000, best_seconds=best, constructions_per_second=1.0 / best)
    assert best <= 0.020, f"spiral(1000) took {best * 1e3:.1f} ms, over the 20 ms gate"


def test_amoebot_activation_throughput(benchmark):
    system = AmoebotSystem(line(100), lam=4.0, seed=0)
    benchmark(system.run, 2000)
    benchmark.extra_info["experiment"] = "Algorithm A activations"
    _emit.record(
        "amoebot_activations_n100",
        n=100,
        activations_per_second=_iterations_per_second(benchmark, 2000),
    )


def test_perimeter_computation(benchmark):
    configuration = random_connected(400, seed=1)
    benchmark(lambda: configuration.translate((0, 0)).perimeter)
    benchmark.extra_info["experiment"] = "perimeter via adjacency counting"


def test_valid_move_enumeration(benchmark):
    configuration = spiral(200)
    benchmark(enumerate_valid_moves, configuration.nodes)
    benchmark.extra_info["experiment"] = "move enumeration (spiral 200)"
