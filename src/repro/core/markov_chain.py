"""Algorithm M: the centralized Markov chain for compression (Section 3.1).

The chain's state space is the set of connected configurations of ``n``
contracted particles.  One iteration:

1. pick a particle ``P`` uniformly at random; let ``l`` be its location;
2. pick one of the six neighboring locations ``l'`` and a uniform
   ``q in (0, 1)``;
3. if ``l'`` is unoccupied, let ``e`` (resp. ``e'``) be the number of
   neighbors ``P`` has at ``l`` (resp. would have at ``l'``), and move
   ``P`` to ``l'`` iff ``e != 5``, the pair satisfies Property 1 or
   Property 2, and ``q < lambda^(e' - e)``.

The chain preserves connectivity (Lemma 3.1), never creates a hole in a
hole-free configuration (Lemma 3.2), eventually reaches the hole-free
space ``Omega*`` and is ergodic there (Section 3.5), and converges to
``pi(sigma) ∝ lambda^{e(sigma)}`` (Lemma 3.13).

This module is the *reference engine*: every quantity it reports is
either maintained by transparently simple bookkeeping or recomputed from
scratch by :class:`~repro.lattice.configuration.ParticleConfiguration`.
The production counterpart,
:class:`~repro.core.fast_chain.FastCompressionChain` (compiled ``run()``
loops), trades that transparency for throughput; both engines consume
randomness through the batched draw protocol of
:class:`repro.rng.BatchedMoveDraws` (one ``(index, direction, uniform)``
triple per iteration, the uniform consumed even when a proposal is
rejected early), so equal seeds and block sizes yield bit-identical
trajectories across the two engines.

The *acceptance weight* of the chain is pluggable: pass a
:class:`~repro.core.kernels.WeightKernel` to run the same structural
dynamics under a different Metropolis weight — the separation chain of
[9] (colored particles, swap moves) or the shortcut-bridging chain of [2]
(land/gap terrain).  Without a kernel the engine builds the default
:class:`~repro.core.kernels.CompressionKernel`, whose behaviour (and
random stream) is bit-identical to the pre-kernel engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.constants import FORBIDDEN_NEIGHBOR_COUNT
from repro.errors import ConfigurationError
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.triangular import DIRECTIONS, Node, add, neighbors
from repro.core.kernels import CompressionKernel, WeightKernel
from repro.core.moves import Move
from repro.core.properties import satisfies_either_property
from repro.rng import DEFAULT_DRAW_BLOCK, BatchedMoveDraws, RandomState, make_rng


@dataclass(frozen=True)
class StepResult:
    """Outcome of a single iteration of the chain.

    Attributes
    ----------
    moved:
        Whether the particle actually moved.
    move:
        The proposed move (source and target locations); always present.
    edge_delta:
        ``e' - e`` for the proposal, or ``None`` when the target was occupied
        (the quantity is never evaluated in that case).
    reason:
        ``"moved"`` if the move was performed, ``"swapped"`` for an
        accepted color swap, otherwise one of the kernel's
        ``rejection_reasons``:
        :data:`~repro.core.kernels.MOVEMENT_REJECTION_REASONS`, plus
        :data:`~repro.core.kernels.SWAP_REJECTION_REASONS` for kernels
        with color swaps.
    """

    moved: bool
    move: Move
    edge_delta: Optional[int]
    reason: str


class CompressionMarkovChain:
    """Algorithm M with bias parameter ``lam`` acting on a particle configuration.

    Parameters
    ----------
    initial:
        The starting configuration ``sigma_0``; must be connected.
    lam:
        The bias parameter ``lambda > 0``.  Values above ``2 + sqrt(2)``
        provably compress; values below ``2.17`` provably expand.
    seed:
        Seed or generator for reproducible runs.
    draw_block:
        Block size of the batched draw tape (see :class:`repro.rng.BatchedMoveDraws`).
        Engines compared by the differential harness must use equal blocks.
    kernel:
        Optional :class:`~repro.core.kernels.WeightKernel` selecting the
        acceptance rule (and any auxiliary state: colors, terrain).
        ``None`` builds the default compression kernel from ``lam``.

    Notes
    -----
    The occupied node set, the particle position list and the induced edge
    count are maintained incrementally, so a single step costs time
    independent of the system size.
    """

    def __init__(
        self,
        initial: ParticleConfiguration,
        lam: Optional[float] = None,
        seed: RandomState = None,
        draw_block: int = DEFAULT_DRAW_BLOCK,
        kernel: Optional[WeightKernel] = None,
    ) -> None:
        if kernel is None:
            if lam is None or lam <= 0:
                raise ConfigurationError(f"lambda must be positive, got {lam}")
            kernel = CompressionKernel(lam)
        elif lam is not None and float(lam) != kernel.lam:
            raise ConfigurationError(
                f"lam={lam} disagrees with the kernel's lam={kernel.lam}; "
                f"pass one or the other"
            )
        if not initial.is_connected:
            raise ConfigurationError("the initial configuration must be connected")
        self._kernel = kernel
        self._mode = kernel.mode
        self.lam = kernel.lam
        self._rng = make_rng(seed)
        self._positions: List[Node] = sorted(initial.nodes)
        self._occupied: Dict[Node, int] = {
            node: index for index, node in enumerate(self._positions)
        }
        self._edge_count = initial.edge_count
        self._n = len(self._positions)
        self._draws = BatchedMoveDraws(self._rng, self._n, draw_block, lanes=kernel.lanes)
        self._iterations = 0
        self._accepted = 0
        self._accepted_swaps = 0
        self._rejections: Dict[str, int] = {
            reason: 0 for reason in kernel.rejection_reasons
        }
        self._swap_probability = kernel.swap_probability
        self._init_kernel_state(initial)
        self._configuration_cache: Optional[ParticleConfiguration] = initial

    def _init_kernel_state(self, initial: ParticleConfiguration) -> None:
        """Build the acceptance tables and auxiliary hash-map state."""
        kernel = self._kernel
        if self._mode == "edge":
            # Same keying and float expression as always: bit-transparent.
            acceptance = kernel.acceptance_list()
            self._acceptance = {delta: acceptance[delta + 6] for delta in range(-6, 7)}
        elif self._mode == "edge_site":
            self._site_rows = kernel.acceptance_rows()
            self._site_weight = kernel.site_weight
            self._site_count = sum(kernel.site_weight(node) for node in self._positions)
        elif self._mode == "edge_color":
            colors = kernel.colors
            if set(colors) != set(self._positions):
                raise ConfigurationError(
                    "the kernel's color map must cover exactly the occupied nodes"
                )
            self._node_colors: Dict[Node, int] = dict(colors)
            self._movement_rows = kernel.movement_rows()
            self._swap_acceptance = kernel.swap_row()
        else:
            raise ConfigurationError(f"unknown kernel mode {self._mode!r}")

    # ------------------------------------------------------------------ #
    # State access
    # ------------------------------------------------------------------ #
    @property
    def kernel(self) -> WeightKernel:
        """The weight kernel driving this engine's acceptance rule."""
        return self._kernel

    @property
    def n(self) -> int:
        """Number of particles."""
        return self._n

    @property
    def iterations(self) -> int:
        """Number of iterations performed so far."""
        return self._iterations

    @property
    def accepted_moves(self) -> int:
        """Number of iterations that resulted in a particle move."""
        return self._accepted

    @property
    def accepted_swaps(self) -> int:
        """Number of accepted color swaps (0 unless the kernel has swaps)."""
        return self._accepted_swaps

    @property
    def rejection_counts(self) -> Dict[str, int]:
        """Counts of rejected proposals grouped by rejection reason."""
        return dict(self._rejections)

    @property
    def edge_count(self) -> int:
        """The current number of induced edges ``e(sigma)`` (maintained incrementally)."""
        return self._edge_count

    @property
    def site_count(self) -> int:
        """Total site weight of the occupied nodes (``edge_site`` kernels).

        For the bridging kernel this is the number of particles over the
        gap — maintained incrementally, one addition per accepted move.
        """
        if self._mode != "edge_site":
            raise ConfigurationError(
                f"site_count requires an edge_site kernel, not {self._mode!r}"
            )
        return self._site_count

    def color_map(self) -> Dict[Node, int]:
        """The current color per occupied node (``edge_color`` kernels)."""
        if self._mode != "edge_color":
            raise ConfigurationError(
                f"color_map requires an edge_color kernel, not {self._mode!r}"
            )
        return dict(self._node_colors)

    @property
    def occupied(self) -> frozenset[Node]:
        """The current set of occupied nodes."""
        return frozenset(self._occupied)

    @property
    def configuration(self) -> ParticleConfiguration:
        """The current configuration as an immutable value object.

        Cached between accepted moves: repeated access (and the derived
        quantities :class:`ParticleConfiguration` itself caches) costs
        nothing until the next move invalidates it.
        """
        if self._configuration_cache is None:
            self._configuration_cache = ParticleConfiguration(self._occupied)
        return self._configuration_cache

    def perimeter(self) -> int:
        """The current perimeter ``p(sigma)`` (computed exactly, holes included)."""
        return self.configuration.perimeter

    def hole_count(self) -> int:
        """The number of holes in the current configuration."""
        return len(self.configuration.holes)

    # ------------------------------------------------------------------ #
    # Dynamics
    # ------------------------------------------------------------------ #
    def step(self) -> StepResult:
        """Perform one iteration of the chain and report what happened.

        For the default compression kernel this is exactly Algorithm M.
        Two-lane kernels (separation) additionally consume a lane-2
        uniform that selects between a movement attempt and a color-swap
        attempt, so the tape position stays one per iteration regardless
        of move type.
        """
        self._iterations += 1
        if self._kernel.lanes == 2:
            index, direction_index, q, q2 = self._draws.draw2()
            if q2 < self._swap_probability:
                return self._swap_step(index, direction_index, q)
        else:
            index, direction_index, q = self._draws.draw()
        return self._movement_step(index, direction_index, q)

    def _movement_step(self, index: int, direction_index: int, q: float) -> StepResult:
        source = self._positions[index]
        target = add(source, DIRECTIONS[direction_index])
        move = Move(source=source, target=target)

        if target in self._occupied:
            self._rejections["target_occupied"] += 1
            return StepResult(False, move, None, "target_occupied")

        occupied = self._occupied
        neighbors_before = self._count_neighbors(source, exclude_source=None)
        if neighbors_before == FORBIDDEN_NEIGHBOR_COUNT:
            self._rejections["five_neighbors"] += 1
            edge_delta = self._count_neighbors(target, exclude_source=source) - neighbors_before
            return StepResult(False, move, edge_delta, "five_neighbors")

        neighbors_after = self._count_neighbors(target, exclude_source=source)
        edge_delta = neighbors_after - neighbors_before

        if not satisfies_either_property(occupied, source, target):
            self._rejections["property_failed"] += 1
            return StepResult(False, move, edge_delta, "property_failed")

        if q >= self._movement_acceptance(source, target, edge_delta):
            self._rejections["metropolis_rejected"] += 1
            return StepResult(False, move, edge_delta, "metropolis_rejected")

        self._apply(index, source, target, edge_delta)
        return StepResult(True, move, edge_delta, "moved")

    def _movement_acceptance(self, source: Node, target: Node, edge_delta: int) -> float:
        """The kernel's acceptance probability for a structurally legal move."""
        mode = self._mode
        if mode == "edge":
            return self._acceptance[edge_delta]
        if mode == "edge_site":
            site_delta = self._site_weight(target) - self._site_weight(source)
            return self._site_rows[site_delta + 1][edge_delta + 6]
        colors = self._node_colors
        color = colors[source]
        a_before = sum(1 for nb in neighbors(source) if colors.get(nb) == color)
        a_after = sum(
            1 for nb in neighbors(target) if nb != source and colors.get(nb) == color
        )
        return self._movement_rows[a_after - a_before + 5][edge_delta + 6]

    def _swap_step(self, index: int, direction_index: int, q: float) -> StepResult:
        """A color-swap attempt (``edge_color`` kernels only)."""
        source = self._positions[index]
        target = add(source, DIRECTIONS[direction_index])
        move = Move(source=source, target=target)
        colors = self._node_colors
        target_color = colors.get(target)
        if target_color is None:
            self._rejections["swap_target_empty"] += 1
            return StepResult(False, move, None, "swap_target_empty")
        source_color = colors[source]
        if source_color == target_color:
            self._rejections["swap_same_color"] += 1
            return StepResult(False, move, None, "swap_same_color")
        delta = self._swap_homogeneity_delta(source, target)
        if q >= self._swap_acceptance[delta + 10]:
            self._rejections["swap_rejected"] += 1
            return StepResult(False, move, None, "swap_rejected")
        colors[source], colors[target] = target_color, source_color
        self._accepted_swaps += 1
        return StepResult(False, move, None, "swapped")

    def _swap_homogeneity_delta(self, source: Node, target: Node) -> int:
        """Change in same-color edge count if ``source`` and ``target`` swap colors.

        The literal local computation from [9]: count same-color edges
        incident to the pair (the pair's own edge excluded — its
        homogeneity is unchanged by a swap of two distinct colors) before
        and after exchanging the colors.
        """
        colors = self._node_colors

        def local_homogeneous() -> int:
            count = 0
            for node in (source, target):
                color = colors[node]
                for nb in neighbors(node):
                    if nb in (source, target):
                        continue
                    if colors.get(nb) == color:
                        count += 1
            return count

        before = local_homogeneous()
        colors[source], colors[target] = colors[target], colors[source]
        after = local_homogeneous()
        colors[source], colors[target] = colors[target], colors[source]
        return after - before

    def run(self, iterations: int, callback: Optional[Callable[[int, StepResult], None]] = None) -> None:
        """Run the chain for a number of iterations.

        Parameters
        ----------
        iterations:
            Number of iterations of Algorithm M to perform.
        callback:
            Optional function called as ``callback(iteration_index, result)``
            after every iteration (used by the tracing layer).
        """
        if iterations < 0:
            raise ConfigurationError(f"iterations must be non-negative, got {iterations}")
        if callback is None:
            for _ in range(iterations):
                self.step()
        else:
            for _ in range(iterations):
                result = self.step()
                callback(self._iterations, result)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _count_neighbors(self, location: Node, exclude_source: Optional[Node]) -> int:
        occupied = self._occupied
        x, y = location
        count = 0
        for dx, dy in DIRECTIONS:
            node = (x + dx, y + dy)
            if node in occupied and node != exclude_source:
                count += 1
        return count

    def _apply(self, index: int, source: Node, target: Node, edge_delta: int) -> None:
        del self._occupied[source]
        self._occupied[target] = index
        self._positions[index] = target
        self._edge_count += edge_delta
        self._accepted += 1
        mode = self._mode
        if mode == "edge_site":
            self._site_count += self._site_weight(target) - self._site_weight(source)
        elif mode == "edge_color":
            self._node_colors[target] = self._node_colors.pop(source)
        self._configuration_cache = None
