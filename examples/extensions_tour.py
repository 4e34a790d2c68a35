"""A tour of the stochastic-approach extensions: separation and bridging.

Run with::

    python examples/extensions_tour.py

Section 6 of the paper argues the compression machinery generalizes to any
objective expressible as a locally computable energy function; the
follow-up works [2] and [9] did exactly that.  This example runs a small
instance of each extension and prints its headline metric.

Separation and bridging now run as *weight kernels* on the shared engine
stack (see :mod:`repro.core.kernels`), so they get the same
``engine="reference" | "fast"`` selection as compression — the demos below
use the fast engines and print a measured reference-vs-fast runtime
comparison on identical seeded trajectories.
"""

from __future__ import annotations

import time

from repro.algorithms.separation import ColoredConfiguration, SeparationMarkovChain
from repro.algorithms.shortcut_bridging import (
    BridgingMarkovChain,
    initial_bridge_configuration,
    v_shaped_terrain,
)
from repro.lattice.shapes import spiral
from repro.viz.ascii_art import render_ascii


def _timed(factory, iterations: int) -> float:
    """Seconds one engine takes to run ``iterations`` (construction excluded)."""
    chain = factory()
    started = time.perf_counter()
    chain.run(iterations)
    return time.perf_counter() - started


def separation_demo() -> None:
    print("=== Separation ([9]): gamma > 1 segregates the two colors ===")
    colored = ColoredConfiguration.random_colors(spiral(60), num_colors=2, seed=1)
    chain = SeparationMarkovChain(colored, lam=4.0, gamma=4.0, seed=2, engine="fast")
    print(f"  homogeneous edges before: {chain.state.homogeneous_edges()}")
    chain.run(60_000)
    state = chain.state
    print(f"  homogeneous edges after : {state.homogeneous_edges()}")
    glyphs = {node: ("A" if color == 0 else "B") for node, color in state.colors.items()}
    print(render_ascii(state.configuration, glyphs=glyphs))

    iterations = 200_000
    reference_seconds = _timed(
        lambda: SeparationMarkovChain(colored, lam=4.0, gamma=4.0, seed=2, engine="reference"),
        iterations,
    )
    fast_seconds = _timed(
        lambda: SeparationMarkovChain(colored, lam=4.0, gamma=4.0, seed=2, engine="fast"),
        iterations,
    )
    print(
        f"  {iterations} iterations: reference {reference_seconds:.2f}s, "
        f"fast {fast_seconds:.2f}s — {reference_seconds / fast_seconds:.1f}x "
        f"(same seed, bit-identical trajectory)"
    )


def bridging_demo() -> None:
    print("\n=== Shortcut bridging ([2]): gap aversion shortens the bridge ===")
    terrain = v_shaped_terrain(6)
    initial = initial_bridge_configuration(terrain, 40)
    for gamma in (1.0, 3.0, 6.0):
        chain = BridgingMarkovChain(
            initial, terrain, lam=4.0, gamma=gamma, seed=3, engine="fast"
        )
        chain.run(40_000)
        print(
            f"  gamma = {gamma:3.1f}: particles over the gap = {chain.gap_occupancy():3d}, "
            f"anchor path length = {chain.anchor_path_length()}"
        )

    iterations = 200_000
    reference_seconds = _timed(
        lambda: BridgingMarkovChain(
            initial, terrain, lam=4.0, gamma=3.0, seed=3, engine="reference"
        ),
        iterations,
    )
    fast_seconds = _timed(
        lambda: BridgingMarkovChain(
            initial, terrain, lam=4.0, gamma=3.0, seed=3, engine="fast"
        ),
        iterations,
    )
    print(
        f"  {iterations} iterations: reference {reference_seconds:.2f}s, "
        f"fast {fast_seconds:.2f}s — {reference_seconds / fast_seconds:.1f}x "
        f"(same seed, bit-identical trajectory)"
    )


if __name__ == "__main__":
    separation_demo()
    bridging_demo()
