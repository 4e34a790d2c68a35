"""The paper's primary contribution: the compression Markov chain.

This subpackage implements Algorithm M (the centralized Markov chain for
compression, Section 3.1), the move-legality Properties 1 and 2, the
weight kernels whose acceptance tables both engines read, the high-level
simulation API, and exact
stationary-distribution analysis for small systems.

The two engines
---------------
Algorithm M ships as two interchangeable engines:

* :class:`~repro.core.markov_chain.CompressionMarkovChain` — the
  **reference engine**.  Hash-map state, move legality evaluated by the
  literal Property 1/2 implementations from the paper, every reported
  quantity recomputable from a plain
  :class:`~repro.lattice.configuration.ParticleConfiguration`.  Use it
  when auditing dynamics, building exact state-space analyses, or writing
  tests whose failure you want to be able to read.
* :class:`~repro.core.fast_chain.FastCompressionChain` — the **fast
  engine**.  Dense occupancy grid, 256-entry move-legality tables
  generated *from* the reference implementation of Properties 1 and 2,
  batched randomness, and incrementally maintained scalar metrics: the
  edge count ``e(sigma)`` absorbs each accepted move's delta, and the
  perimeter follows from the Euler-formula identity
  ``p = 3n - 3 - e + 3h`` (with ``h = 0`` once the configuration is
  hole-free, which Lemma 3.2 makes permanent).  Its ``run()`` is one
  sequential C loop for every kernel mode (``_native/chain_loops.c``,
  compiled and cached on first use, see :mod:`repro.core._native`), a
  statement-for-statement port of the Python loop it keeps for a
  machine without a C compiler (one logged warning; same results,
  ~5-20x slower).  Use it for everything that is not an audit: it is
  the default of every job factory and experiment.

The ``"vector"`` key of :data:`ENGINES` is an alias of ``"fast"``, and
:class:`~repro.core.vector_chain.VectorCompressionChain` the same engine
under its old class name; stored job documents and checkpoints name
both.

**Weight kernels:** the engines' acceptance rule is pluggable
(:mod:`repro.core.kernels`): the compression weight is the default
kernel, and the separation chain of [9] (color plane + swap moves) and
the shortcut-bridging chain of [2] (terrain plane) run as kernels on the
very same two engines — one engine family for all three chains, each
pair bound by the same differential contract.

**Equivalence guarantee:** all engines consume randomness through the
shared :class:`repro.rng.BatchedMoveDraws` protocol, so for equal seeds
and draw-block sizes they produce bit-identical trajectories — identical
move sequences, rejection reasons, edge counts and perimeters.  The
differential harness (``tests/core/test_fast_chain_equivalence.py``), the
randomized invariant suite (``tests/core/test_chain_invariants.py``) and
a committed golden trace pin this contract down; optimizations that
change any engine's behaviour fail those tests rather than silently
diverging.  :class:`~repro.core.compression.CompressionSimulation`
selects an engine via its ``engine="reference" | "fast"`` parameter.
"""

from repro.core.properties import (
    common_occupied_neighbors,
    joint_neighborhood,
    satisfies_either_property,
    satisfies_property_1,
    satisfies_property_2,
)
from repro.core.moves import (
    Move,
    classify_move,
    enumerate_valid_moves,
    is_valid_move,
    move_edge_delta,
    neighbor_count,
)
from repro.core.kernels import (
    KERNEL_MODES,
    MOVEMENT_REJECTION_REASONS,
    SWAP_REJECTION_REASONS,
    BridgingKernel,
    CompressionKernel,
    SeparationKernel,
    WeightKernel,
)
from repro.core.markov_chain import CompressionMarkovChain, StepResult
from repro.core.fast_chain import FastCompressionChain, OccupancyGrid
from repro.core.moves import move_tables
from repro.core.vector_chain import VectorCompressionChain
from repro.core.compression import ENGINES, CompressionSimulation, CompressionTrace, TracePoint
from repro.core.stationary import (
    StateSpace,
    build_state_space,
    exact_stationary_distribution,
    transition_matrix,
    verify_aperiodicity,
    verify_detailed_balance,
    verify_irreducibility,
)

__all__ = [
    "common_occupied_neighbors",
    "joint_neighborhood",
    "satisfies_either_property",
    "satisfies_property_1",
    "satisfies_property_2",
    "Move",
    "classify_move",
    "enumerate_valid_moves",
    "is_valid_move",
    "move_edge_delta",
    "neighbor_count",
    "KERNEL_MODES",
    "MOVEMENT_REJECTION_REASONS",
    "SWAP_REJECTION_REASONS",
    "WeightKernel",
    "CompressionKernel",
    "SeparationKernel",
    "BridgingKernel",
    "CompressionMarkovChain",
    "StepResult",
    "FastCompressionChain",
    "OccupancyGrid",
    "VectorCompressionChain",
    "move_tables",
    "ENGINES",
    "CompressionSimulation",
    "CompressionTrace",
    "TracePoint",
    "StateSpace",
    "build_state_space",
    "exact_stationary_distribution",
    "transition_matrix",
    "verify_aperiodicity",
    "verify_detailed_balance",
    "verify_irreducibility",
]
