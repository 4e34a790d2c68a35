"""Property-based randomized invariant tests for the chain engines.

Over dozens of seeded random runs these assert the paper's structural
guarantees along real trajectories — connectivity is never broken
(Lemma 3.1) and hole-free configurations stay hole-free (Lemma 3.2) —
and that the engines' incrementally maintained counters (``e(sigma)``,
``p(sigma)``, hole counts) always agree with a from-scratch
:class:`~repro.lattice.configuration.ParticleConfiguration` recomputation.

The checks run primarily against the fast and vector engines (whose
incremental bookkeeping is the non-obvious part); a reference-engine
subset guards the same invariants on the transparent implementation.
The extension kernels get their own seeded sweeps on the fast and vector
engines: the separation chain must also conserve per-color counts and
keep its colors on the occupied nodes, and the bridging chain's
incrementally maintained gap occupancy must match the terrain
recomputation.
"""

import pytest

from repro.algorithms.separation import ColoredConfiguration, SeparationMarkovChain
from repro.algorithms.shortcut_bridging import BridgingMarkovChain, Terrain
from repro.core.fast_chain import FastCompressionChain
from repro.core.markov_chain import CompressionMarkovChain
from repro.core.vector_chain import VectorCompressionChain
from repro.lattice.shapes import random_connected, random_hole_free

#: lambdas cycled across the randomized runs: expanding, neutral and
#: compressing regimes.
LAMBDAS = (1.0, 2.0, 4.0, 6.0)

#: (seed, n, lambda, hole-free start?) for the randomized sweep — 52 runs.
RUN_MATRIX = [
    (seed, 12 + (seed % 5) * 5, LAMBDAS[seed % len(LAMBDAS)], seed % 2 == 0)
    for seed in range(52)
]


def random_start(n, seed, hole_free):
    if hole_free:
        return random_hole_free(n, seed=seed)
    return random_connected(n, seed=seed, compactness=0.3 * (seed % 3))


def check_invariants(chain, start_was_hole_free, context):
    configuration = chain.configuration
    # Lemma 3.1: every reachable configuration is connected.
    assert configuration.is_connected, f"{context}: connectivity broken"
    # Lemma 3.2: no move creates a hole in a hole-free configuration.
    if start_was_hole_free:
        assert configuration.is_hole_free, f"{context}: hole created from hole-free start"
    # Incremental counters match full recomputation.
    assert chain.edge_count == configuration.edge_count, f"{context}: edge count drifted"
    assert chain.perimeter() == configuration.perimeter, f"{context}: perimeter drifted"
    assert chain.hole_count() == len(configuration.holes), f"{context}: hole count drifted"
    assert configuration.n == chain.n, f"{context}: particle count not conserved"


@pytest.mark.slow
@pytest.mark.parametrize("seed,n,lam,hole_free", RUN_MATRIX)
def test_randomized_invariants_fast_engine(seed, n, lam, hole_free):
    start = random_start(n, seed, hole_free)
    hole_free_start = start.is_hole_free  # random_connected may be hole-free by luck
    chain = FastCompressionChain(start, lam=lam, seed=seed)
    for block in range(4):
        chain.run(400)
        check_invariants(chain, hole_free_start, f"seed={seed} block={block}")


@pytest.mark.slow
@pytest.mark.parametrize("seed,n,lam,hole_free", RUN_MATRIX)
def test_randomized_invariants_vector_engine(seed, n, lam, hole_free):
    """The vector engine's numpy passes keep the same paper invariants,
    from hole-free (even seeds) and holey (odd seeds) starts alike."""
    start = random_start(n, seed, hole_free)
    hole_free_start = start.is_hole_free
    chain = VectorCompressionChain(start, lam=lam, seed=seed)
    for block in range(4):
        chain.run(400)
        check_invariants(chain, hole_free_start, f"vector seed={seed} block={block}")


#: The seeded sweep shared by the extension-kernel invariant tests.
EXTENSION_MATRIX = RUN_MATRIX[1::4]


@pytest.mark.slow
@pytest.mark.parametrize("seed,n,lam,hole_free", EXTENSION_MATRIX)
@pytest.mark.parametrize("engine", ["fast", "vector"])
def test_randomized_invariants_separation_kernel(engine, seed, n, lam, hole_free):
    """Color-swap and movement passes keep the paper invariants, conserve
    every color's particle count and keep the colors on occupied nodes."""
    start = random_start(n, seed, hole_free)
    hole_free_start = start.is_hole_free
    colored = ColoredConfiguration.random_colors(start, num_colors=2 + seed % 2, seed=seed)
    chain = SeparationMarkovChain(
        colored, lam=lam, gamma=2.0, swap_probability=0.4, seed=seed, engine=engine
    )
    for block in range(4):
        chain.run(400)
        context = f"separation {engine} seed={seed} block={block}"
        check_invariants(chain.chain, hole_free_start, context)
        state = chain.state
        assert state.color_counts() == colored.color_counts(), f"{context}: colors"
        assert state.nodes == chain.chain.occupied, f"{context}: colors off the particles"


@pytest.mark.slow
@pytest.mark.parametrize("seed,n,lam,hole_free", EXTENSION_MATRIX)
@pytest.mark.parametrize("engine", ["fast", "vector"])
def test_randomized_invariants_bridging_kernel(engine, seed, n, lam, hole_free):
    """Site-weighted passes keep the paper invariants and the incremental
    gap occupancy agrees with the terrain recomputation."""
    start = random_start(n, seed, hole_free)
    hole_free_start = start.is_hole_free
    # Every other occupied node is land; everything else is gap.
    land = frozenset(node for i, node in enumerate(sorted(start.nodes)) if i % 2)
    terrain = Terrain(land=land, anchors=(min(land), max(land)))
    chain = BridgingMarkovChain(start, terrain, lam=lam, gamma=1.5, seed=seed, engine=engine)
    for block in range(4):
        chain.run(400)
        context = f"bridging {engine} seed={seed} block={block}"
        check_invariants(chain.chain, hole_free_start, context)
        assert chain.gap_occupancy() == terrain.gap_occupancy(
            chain.configuration
        ), f"{context}: gap occupancy drifted"


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(10))
def test_randomized_invariants_reference_engine(seed):
    start = random_start(20, seed, hole_free=seed % 2 == 0)
    hole_free_start = start.is_hole_free
    chain = CompressionMarkovChain(start, lam=LAMBDAS[seed % len(LAMBDAS)], seed=seed)
    for block in range(3):
        chain.run(300)
        check_invariants(chain, hole_free_start, f"reference seed={seed} block={block}")


@pytest.mark.parametrize("engine", [FastCompressionChain, VectorCompressionChain])
def test_holey_start_fallback_then_euler_lock_in(engine):
    """The fast engines' perimeter/hole fallback path for holey starts.

    A start with holes must report *exact* ``perimeter()`` and
    ``hole_count()`` (from full recomputation, since ``p = 3n - 3 - e``
    only holds hole-free) until the holes vanish; once they do, the
    engine must lock into the O(1) Euler-identity path permanently and
    keep agreeing with recomputation.
    """
    start = random_connected(28, seed=104)  # chosen seed: starts with holes
    assert not start.is_hole_free, "fixture must exercise the holey fallback"
    chain = engine(start, lam=5.0, seed=9)
    assert chain._hole_free is False
    saw_holey_phase = False
    locked_at = None
    for block in range(60):
        exact = chain.configuration
        # Exactness of the fallback (and, later, of the O(1) path).
        assert chain.perimeter() == exact.perimeter, f"block {block}"
        assert chain.hole_count() == len(exact.holes), f"block {block}"
        if not chain._hole_free:
            saw_holey_phase = saw_holey_phase or len(exact.holes) > 0
        if chain._hole_free:
            # Lock-in: the flag never clears, and the Euler identity holds.
            locked_at = block if locked_at is None else locked_at
            assert chain.perimeter() == 3 * chain.n - 3 - chain.edge_count
        chain.run(600)
    assert saw_holey_phase, "test never exercised the exact fallback"
    assert locked_at is not None, "holes never vanished; raise the block budget"
    assert chain._hole_free, "lock-in must be permanent (Lemma 3.2)"


@pytest.mark.slow
def test_holes_never_reappear_once_eliminated():
    """Once a holey start reaches the hole-free space it stays there (Lemma 3.2)."""
    for seed in (0, 1, 2):
        start = random_connected(30, seed=100 + seed)
        chain = FastCompressionChain(start, lam=5.0, seed=seed)
        was_hole_free = False
        for _ in range(25):
            chain.run(1000)
            # Recompute from scratch rather than trusting the engine's own
            # hole bookkeeping (which is itself under test here).
            hole_free_now = chain.configuration.is_hole_free
            if was_hole_free:
                assert hole_free_now, f"seed={seed}: a hole reappeared"
            was_hole_free = was_hole_free or hole_free_now
