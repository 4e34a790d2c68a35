"""The production engine for Algorithm M.

:class:`FastCompressionChain` implements exactly the dynamics of
:class:`~repro.core.markov_chain.CompressionMarkovChain` (the reference
engine) but is built for long runs at large ``n``:

* **Dense occupancy grid.**  Particle positions live in a flat row-major
  occupancy grid (:class:`OccupancyGrid`) instead of a hash map, so
  occupancy tests and neighbor reads are integer offset arithmetic.  The
  grid re-centers itself with a fresh margin whenever the configuration
  drifts toward the edge of the allocated window.
* **Precomputed move tables.**  Properties 1 and 2, the five-neighbor rule
  and the edge delta ``e' - e`` of a proposed move depend only on the
  occupancy pattern of the eight-node ring around the move edge
  (:func:`repro.core.properties.joint_neighborhood`).  The engine packs
  that pattern into an 8-bit mask and resolves the whole legality check
  with three 256-entry table lookups.  The tables are *generated from the
  reference implementation* at first use, so the two engines agree by
  construction — there is no second, hand-derived copy of the paper's
  Properties 1 and 2 to keep in sync.
* **Batched randomness.**  Randomness is consumed through the shared
  :class:`repro.rng.BatchedMoveDraws` tape (one ``(index, direction,
  uniform)`` triple per iteration, pre-generated in blocks).  Given the
  same seed and block size, this engine and the reference engine
  therefore see bit-identical draws and produce bit-identical
  trajectories — the property enforced by
  ``tests/core/test_fast_chain_equivalence.py``.
* **Incremental scalar metrics.**  The induced edge count ``e(sigma)`` is
  maintained by adding the accepted move's edge delta.  For hole-free
  configurations the perimeter follows from the Euler-formula identity
  ``p(sigma) = 3n - 3 - e(sigma)`` (Lemma 2.3 territory; for a
  configuration with ``h`` holes the identity generalizes to
  ``p = 3n - 3 - e + 3h``), and since the chain never creates holes in a
  hole-free configuration (Lemma 3.2), both ``e`` and ``p`` are O(1) per
  accepted move once the start is hole-free.  Starts that do contain
  holes fall back to exact recomputation — cached between accepted moves
  — until the holes have been eliminated, after which the O(1) path locks
  in permanently.
* **Pluggable weight kernels.**  The Metropolis acceptance rule is a
  swappable :class:`~repro.core.kernels.WeightKernel`.  The default is
  the paper's compression weight (bit-identical to the pre-kernel
  engine, pinned by the committed goldens); the separation kernel of [9]
  adds a color byte plane and swap moves, the bridging kernel of [2] a
  static terrain plane — all three run the same table-driven structural
  filter, and each kernel's engine is bit-identical to its reference
  engine for equal seeds.

How ``run()`` works
-------------------
``_native/chain_loops.c`` holds one sequential loop per kernel mode
(``edge`` compression, ``edge_site`` bridging, ``edge_color``
separation).  Each is a statement-for-statement port of the matching
Python loop in this module (:meth:`FastCompressionChain._run_edge` and
its siblings): same 256-entry move tables, same acceptance floats, same
``uniform >= acceptance[...]`` comparisons in double precision, same
counters.  ``run()`` refills the tape with
``BatchedMoveDraws.refill(blocks=k)`` — which invokes the generator
exactly as ``k`` single-block refills would, so the random stream is
unchanged — and makes one C call per tape span.  A C loop stops right
after an accepted move that lands in the grid's guard band; ``run()``
then re-centers the grid in numpy (:meth:`_reallocate`) and resumes.
Re-centering is invisible in node space, so trajectories are unaffected.

The C source is compiled with the system C compiler on the first
construction in a process and cached (:mod:`repro.core._native`).  The
Python loops run in two cases only: without a working compiler (after
one logged warning; same results, several times slower), and as the
oracle of the differential fuzz in ``tests/core/test_native_loops.py``,
which builds an engine with :func:`repro.core._native.load_library`
patched to return ``None``.  :meth:`step` and ``run(callback=...)``
resolve one proposal at a time in Python on either build.

Use the reference engine when auditing dynamics or stepping through
individual proposals; use this engine for everything else.  The
differential harness is the contract that keeps the two interchangeable.
"""

from __future__ import annotations

import ctypes
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.constants import FORBIDDEN_NEIGHBOR_COUNT
from repro.errors import ConfigurationError
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.triangular import DIRECTIONS, Node, nodes_bounding_box
from repro.core import _native
from repro.core.kernels import (
    MOVEMENT_REJECTION_REASONS,
    SWAP_REJECTION_REASONS,
    CompressionKernel,
    WeightKernel,
)
from repro.core.markov_chain import StepResult
from repro.core.moves import RING_OFFSETS, Move, move_tables
from repro.rng import DEFAULT_DRAW_BLOCK, BatchedMoveDraws, RandomState, make_rng

#: Free border (in cells) left around the occupied bounding box whenever an
#: :class:`OccupancyGrid` is (re)allocated.
DEFAULT_GRID_MARGIN = 32

#: Width of the guard band along the grid border.  An accepted move landing
#: inside the band triggers a reallocation, which keeps every occupied cell
#: far enough from the border that all offset reads stay in bounds.
GUARD_BAND = 4

#: Slots of the counter array the C loops add to (the enum in
#: ``chain_loops.c`` lists them in the same order).
COUNTERS = MOVEMENT_REJECTION_REASONS + SWAP_REJECTION_REASONS + (
    "moved",
    "swapped",
    "edge_delta",
    "site_delta",
    "guard_hit",
)
_MOVED, _SWAPPED, _EDGE_DELTA, _SITE_DELTA, _GUARD_HIT = range(7, 12)

#: Most draw blocks materialized per tape refill of the compiled loops.
_MAX_PREFETCH_BLOCKS = 16


class OccupancyGrid:
    """A dense occupancy grid over a window of the triangular lattice.

    The window covers the bounding box of the supplied nodes plus
    ``margin`` free cells on every side.  Cell states are stored in a flat
    row-major ``bytearray`` (the fastest scalar-indexable container in
    CPython); :attr:`array` exposes the same memory zero-copy as a numpy
    ``int8`` matrix for vectorized consumers.

    Axial node ``(x, y)`` maps to flat index
    ``(y - origin_y) * width + (x - origin_x)``, so stepping in lattice
    direction ``d`` is adding the precomputed scalar
    ``direction_offsets[d]``, and reading the eight-node ring around a
    move edge is eight reads at ``ring_offsets[d]`` from the source cell.

    The outermost :data:`GUARD_BAND` cells form a guard band; membership
    is pure ``divmod`` arithmetic on the flat index
    (:meth:`in_guard_band`), so the band costs no memory and no rebuild
    work on :meth:`recenter`.  Writers must reallocate (see
    :meth:`recenter`/:meth:`add`) when an occupied cell enters the band;
    in exchange, every offset read from a cell outside the band is
    guaranteed in bounds without per-read checks.
    """

    __slots__ = (
        "width",
        "height",
        "origin_x",
        "origin_y",
        "cells",
        "array",
        "direction_offsets",
        "ring_offsets",
    )

    def __init__(self, nodes: Iterable[Node], margin: int = DEFAULT_GRID_MARGIN) -> None:
        node_list = list(nodes)
        if not node_list:
            raise ConfigurationError("an occupancy grid needs at least one occupied node")
        if margin <= GUARD_BAND:
            raise ConfigurationError(
                f"margin must exceed the guard band ({GUARD_BAND}), got {margin}"
            )
        min_x, min_y, max_x, max_y = nodes_bounding_box(node_list)
        self.origin_x = min_x - margin
        self.origin_y = min_y - margin
        width = (max_x - min_x + 1) + 2 * margin
        height = (max_y - min_y + 1) + 2 * margin
        self.width = width
        self.height = height
        self.cells = bytearray(width * height)
        self.array = np.frombuffer(self.cells, dtype=np.int8).reshape(height, width)
        for node in node_list:
            self.cells[self.flat_index(node)] = 1
        self.direction_offsets = tuple(dy * width + dx for dx, dy in DIRECTIONS)
        self.ring_offsets = tuple(
            tuple(dy * width + dx for dx, dy in ring) for ring in RING_OFFSETS
        )

    # ------------------------------------------------------------------ #
    # Coordinate mapping
    # ------------------------------------------------------------------ #
    def flat_index(self, node: Node) -> int:
        """Return the flat cell index of axial node ``(x, y)``."""
        return (node[1] - self.origin_y) * self.width + (node[0] - self.origin_x)

    def node_at(self, flat: int) -> Node:
        """Return the axial node of a flat cell index."""
        y, x = divmod(flat, self.width)
        return (x + self.origin_x, y + self.origin_y)

    def contains(self, node: Node) -> bool:
        """Whether ``node`` lies inside the allocated window."""
        x = node[0] - self.origin_x
        y = node[1] - self.origin_y
        return 0 <= x < self.width and 0 <= y < self.height

    def in_guard_band(self, flat: int) -> bool:
        """Whether a flat cell index lies in the :data:`GUARD_BAND`-wide border.

        Pure ``divmod`` arithmetic — no second width x height table to
        allocate or rebuild on :meth:`recenter`.
        """
        y, x = divmod(flat, self.width)
        return (
            x < GUARD_BAND
            or x >= self.width - GUARD_BAND
            or y < GUARD_BAND
            or y >= self.height - GUARD_BAND
        )

    # ------------------------------------------------------------------ #
    # Occupancy
    # ------------------------------------------------------------------ #
    def is_occupied(self, node: Node) -> bool:
        """Whether ``node`` is occupied (nodes outside the window are empty)."""
        x = node[0] - self.origin_x
        y = node[1] - self.origin_y
        if 0 <= x < self.width and 0 <= y < self.height:
            return bool(self.cells[y * self.width + x])
        return False

    def occupied_nodes(self) -> List[Node]:
        """Decode and return all occupied nodes (vectorized scan)."""
        flats = np.flatnonzero(self.array.reshape(-1))
        width = self.width
        ox, oy = self.origin_x, self.origin_y
        return [(int(f % width) + ox, int(f // width) + oy) for f in flats]

    def occupied_count(self) -> int:
        """Number of occupied cells."""
        return int(np.count_nonzero(self.array))

    def add(self, node: Node) -> None:
        """Mark ``node`` occupied, re-centering first if it touches the guard band.

        This is the convenience entry point for incremental consumers like
        the amoebot simulator; the chain engine drives reallocation itself
        to keep its hot loop free of per-move checks.
        """
        if not self.contains(node) or self.in_guard_band(self.flat_index(node)):
            self.recenter(extra=[node])
        self.cells[self.flat_index(node)] = 1

    def remove(self, node: Node) -> None:
        """Mark ``node`` unoccupied (a no-op for nodes outside the window)."""
        if self.contains(node):
            self.cells[self.flat_index(node)] = 0

    def recenter(self, extra: Sequence[Node] = (), margin: int = DEFAULT_GRID_MARGIN) -> None:
        """Re-center the window around the current occupancy plus ``extra`` nodes.

        When the new window's dimensions equal the old ones — the common
        case in steady state, where the bounding box drifts but barely
        changes size — the existing buffers are reused: the cell plane is
        zeroed and repainted in place and only the origin moves, so
        :attr:`cells`, :attr:`array` and the offset tuples all remain
        valid objects (re-centering is a pure occupancy rewrite).  When
        the dimensions change, everything is reallocated and holders of
        raw references to :attr:`cells` et al. must re-read them
        afterwards; callers that cannot tolerate the distinction should
        re-read unconditionally.
        """
        flats = np.flatnonzero(self.array.reshape(-1))
        ys, xs = np.divmod(flats, self.width)
        xs += self.origin_x
        ys += self.origin_y
        extra = list(extra)
        if flats.size:
            min_x, max_x = int(xs.min()), int(xs.max())
            min_y, max_y = int(ys.min()), int(ys.max())
            for x, y in extra:
                min_x, max_x = min(min_x, x), max(max_x, x)
                min_y, max_y = min(min_y, y), max(max_y, y)
            width = (max_x - min_x + 1) + 2 * margin
            height = (max_y - min_y + 1) + 2 * margin
            if width == self.width and height == self.height:
                # In-place fast path: same window size, new origin.
                self.origin_x = min_x - margin
                self.origin_y = min_y - margin
                new_flats = (ys - self.origin_y) * width + (xs - self.origin_x)
                self.array.fill(0)
                self.array.reshape(-1)[new_flats] = 1
                return
        occupied = [(int(x), int(y)) for x, y in zip(xs, ys)]
        fresh = OccupancyGrid(occupied + extra, margin=margin)
        occupied_set = set(occupied)
        for node in extra:
            if node not in occupied_set:
                fresh.cells[fresh.flat_index(node)] = 0
        for name in self.__slots__:
            setattr(self, name, getattr(fresh, name))


class FastCompressionChain:
    """Algorithm M on a dense grid with table-driven moves and batched draws.

    Drop-in compatible with the reference
    :class:`~repro.core.markov_chain.CompressionMarkovChain`: same
    constructor signature, same counters, same
    :class:`~repro.core.markov_chain.StepResult` per proposal, and — given
    equal seeds and draw blocks — the same trajectory, bit for bit.

    Parameters
    ----------
    initial:
        The starting configuration ``sigma_0``; must be connected.
    lam:
        The bias parameter ``lambda > 0``.
    seed:
        Seed or generator for reproducible runs.
    draw_block:
        Block size of the batched draw tape (must match the engine being
        compared against in differential tests).
    kernel:
        Optional :class:`~repro.core.kernels.WeightKernel` selecting the
        acceptance rule (and any auxiliary byte plane).  ``None`` builds
        the default compression kernel from ``lam``.  Every registered
        kernel mode has a compiled loop.
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
        ordered = sorted(initial.nodes)  # index order matches the reference engine
        self._n = len(ordered)
        self._draws = BatchedMoveDraws(self._rng, self._n, draw_block, lanes=kernel.lanes)
        self._grid = OccupancyGrid(ordered)
        # Indexes like a list from Python, and hands C an int64 pointer.
        self._pos = array("q", [self._grid.flat_index(node) for node in ordered])
        self._edge_count = initial.edge_count
        self._hole_free = initial.is_hole_free
        self._iterations = 0
        self._accepted = 0
        self._accepted_swaps = 0
        self._rejections: Dict[str, int] = {
            reason: 0 for reason in kernel.rejection_reasons
        }
        self._swap_probability = kernel.swap_probability
        self._nb_before, self._nb_after, self._property_ok = move_tables()
        self._init_kernel_state(initial, ordered)
        # A hole-free start is not kept: perimeter and hole count come from
        # counters from here on, and releasing a large configuration would
        # stall the first run() that moves a particle.  A holey one is kept,
        # because perimeter() reads it until the holes die out.
        self._configuration_cache: Optional[ParticleConfiguration] = (
            None if self._hole_free else initial
        )
        self._library = _native.load_library()
        if self._library is not None:
            self._init_native()

    def _init_kernel_state(self, initial: ParticleConfiguration, ordered: List[Node]) -> None:
        """Build the acceptance tables and auxiliary byte planes."""
        kernel = self._kernel
        if self._mode == "edge":
            # The kernel reproduces the exact float list the engine always
            # precomputed, so the Metropolis comparisons are unchanged.
            self._acceptance = kernel.acceptance_list()
        elif self._mode == "edge_site":
            self._site_rows = kernel.acceptance_rows()
            self._site_plane = kernel.build_site_plane(self._grid)
            self._site_count = sum(self._site_plane[flat] for flat in self._pos)
        elif self._mode == "edge_color":
            if set(kernel.colors) != set(ordered):
                raise ConfigurationError(
                    "the kernel's color map must cover exactly the occupied nodes"
                )
            self._movement_rows = kernel.movement_rows()
            self._swap_acceptance = kernel.swap_row()
            self._color_plane = kernel.build_color_plane(self._grid, self._pos)
        else:
            raise ConfigurationError(f"unknown kernel mode {self._mode!r}")

    def _init_native(self) -> None:
        """Build the arrays the compiled loops read through raw pointers."""
        self._loop = getattr(self._library, self._mode)
        self._counters = np.zeros(len(COUNTERS), dtype=np.int64)
        self._tape_lanes = [None]
        self._move_tables = [
            np.array(table, dtype=np.uint8)
            for table in (self._nb_before, self._nb_after, self._property_ok)
        ]
        if self._mode == "edge":
            self._tables = [np.array(self._acceptance, dtype=np.float64)]
        elif self._mode == "edge_site":
            self._tables = [np.array(self._site_rows, dtype=np.float64)]
        else:
            self._tables = [
                np.array(self._movement_rows, dtype=np.float64),
                np.array(self._swap_acceptance, dtype=np.float64),
            ]
        self._bind_grid()

    # ------------------------------------------------------------------ #
    # State access (mirrors the reference engine)
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
    def accepted_swaps(self) -> int:
        """Number of accepted color swaps (0 unless the kernel has swaps)."""
        return self._accepted_swaps

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
        """The current color per occupied node (``edge_color`` kernels).

        Decoded from the color byte plane, the engine's single source of
        truth for colors.
        """
        if self._mode != "edge_color":
            raise ConfigurationError(
                f"color_map requires an edge_color kernel, not {self._mode!r}"
            )
        grid = self._grid
        plane = self._color_plane
        return {grid.node_at(flat): plane[flat] - 1 for flat in self._pos}

    @property
    def iterations(self) -> int:
        """Number of iterations performed so far."""
        return self._iterations

    @property
    def accepted_moves(self) -> int:
        """Number of iterations that resulted in a particle move."""
        return self._accepted

    @property
    def rejection_counts(self) -> Dict[str, int]:
        """Counts of rejected proposals grouped by rejection reason."""
        return dict(self._rejections)

    @property
    def edge_count(self) -> int:
        """The current ``e(sigma)`` (maintained incrementally)."""
        return self._edge_count

    @property
    def grid(self) -> OccupancyGrid:
        """The dense occupancy grid backing the engine."""
        return self._grid

    @property
    def occupied(self) -> frozenset[Node]:
        """The current set of occupied nodes."""
        grid = self._grid
        return frozenset(grid.node_at(flat) for flat in self._pos)

    @property
    def configuration(self) -> ParticleConfiguration:
        """The current configuration (cached between accepted moves)."""
        if self._configuration_cache is None:
            self._configuration_cache = ParticleConfiguration(self.occupied)
        return self._configuration_cache

    def perimeter(self) -> int:
        """The current perimeter ``p(sigma)``, holes included.

        O(1) via ``p = 3n - 3 - e`` once the configuration is hole-free
        (the chain cannot create holes from there, Lemma 3.2); exact
        cached recomputation while holes remain.
        """
        if not self._hole_free:
            configuration = self.configuration
            if configuration.holes:
                return configuration.perimeter
            self._hole_free = True
        return 3 * self._n - 3 - self._edge_count

    def hole_count(self) -> int:
        """The number of holes in the current configuration."""
        if self._hole_free:
            return 0
        holes = self.configuration.holes
        if not holes:
            self._hole_free = True
        return len(holes)

    # ------------------------------------------------------------------ #
    # Dynamics
    # ------------------------------------------------------------------ #
    def step(self) -> StepResult:
        """Perform one iteration of the chain and report what happened.

        Semantically identical to the reference engine's ``step`` for the
        same kernel; used by the lockstep differential tests.
        Throughput-sensitive callers should prefer :meth:`run`, which
        skips the per-proposal
        :class:`~repro.core.markov_chain.StepResult` construction.
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
        grid = self._grid
        cells = grid.cells
        source = self._pos[index]
        target = source + grid.direction_offsets[direction_index]
        move = Move(source=grid.node_at(source), target=grid.node_at(target))

        if cells[target]:
            self._rejections["target_occupied"] += 1
            return StepResult(False, move, None, "target_occupied")

        ring = grid.ring_offsets[direction_index]
        mask = (
            cells[source + ring[0]]
            | cells[source + ring[1]] << 1
            | cells[source + ring[2]] << 2
            | cells[source + ring[3]] << 3
            | cells[source + ring[4]] << 4
            | cells[source + ring[5]] << 5
            | cells[source + ring[6]] << 6
            | cells[source + ring[7]] << 7
        )
        neighbors_before = self._nb_before[mask]
        edge_delta = self._nb_after[mask] - neighbors_before
        if neighbors_before == FORBIDDEN_NEIGHBOR_COUNT:
            self._rejections["five_neighbors"] += 1
            return StepResult(False, move, edge_delta, "five_neighbors")
        if not self._property_ok[mask]:
            self._rejections["property_failed"] += 1
            return StepResult(False, move, edge_delta, "property_failed")
        if q >= self._movement_acceptance(source, target, edge_delta):
            self._rejections["metropolis_rejected"] += 1
            return StepResult(False, move, edge_delta, "metropolis_rejected")

        cells[source] = 0
        cells[target] = 1
        self._pos[index] = target
        self._edge_count += edge_delta
        self._accepted += 1
        mode = self._mode
        if mode == "edge_site":
            self._site_count += self._site_plane[target] - self._site_plane[source]
        elif mode == "edge_color":
            plane = self._color_plane
            plane[target] = plane[source]
            plane[source] = 0
        self._configuration_cache = None
        if grid.in_guard_band(target):
            self._reallocate()
        return StepResult(True, move, edge_delta, "moved")

    def _movement_acceptance(self, source: int, target: int, edge_delta: int) -> float:
        """The kernel's acceptance probability for a structurally legal move.

        ``source``/``target`` are flat grid indices; auxiliary deltas are
        read straight off the kernel's byte plane.
        """
        mode = self._mode
        if mode == "edge":
            return self._acceptance[edge_delta + 6]
        if mode == "edge_site":
            site = self._site_plane
            return self._site_rows[site[target] - site[source] + 1][edge_delta + 6]
        plane = self._color_plane
        offsets = self._grid.direction_offsets
        color = plane[source]
        a_before = 0
        a_after = -1  # the mover itself is always adjacent to the target
        for offset in offsets:
            if plane[source + offset] == color:
                a_before += 1
            if plane[target + offset] == color:
                a_after += 1
        return self._movement_rows[a_after - a_before + 5][edge_delta + 6]

    def _swap_step(self, index: int, direction_index: int, q: float) -> StepResult:
        """A color-swap attempt (``edge_color`` kernels only)."""
        grid = self._grid
        plane = self._color_plane
        source = self._pos[index]
        target = source + grid.direction_offsets[direction_index]
        move = Move(source=grid.node_at(source), target=grid.node_at(target))
        target_color = plane[target]
        if not target_color:
            self._rejections["swap_target_empty"] += 1
            return StepResult(False, move, None, "swap_target_empty")
        source_color = plane[source]
        if source_color == target_color:
            self._rejections["swap_same_color"] += 1
            return StepResult(False, move, None, "swap_same_color")
        delta = self._swap_delta(source, target, source_color, target_color)
        if q >= self._swap_acceptance[delta + 10]:
            self._rejections["swap_rejected"] += 1
            return StepResult(False, move, None, "swap_rejected")
        plane[source], plane[target] = target_color, source_color
        self._accepted_swaps += 1
        return StepResult(False, move, None, "swapped")

    def _swap_delta(self, source: int, target: int, source_color: int, target_color: int) -> int:
        """Same-color-edge delta of swapping two distinct colors.

        Plane reads only: the ``before`` counts need no exclusions (the
        partner holds the *other* color, so it never matches), while each
        ``after`` count over-counts the partner cell by exactly one.
        """
        plane = self._color_plane
        before = 0
        after = -2
        for offset in self._grid.direction_offsets:
            around_source = plane[source + offset]
            around_target = plane[target + offset]
            if around_source == source_color:
                before += 1
            elif around_source == target_color:
                after += 1
            if around_target == target_color:
                before += 1
            elif around_target == source_color:
                after += 1
        return after - before

    def run(
        self, iterations: int, callback: Optional[Callable[[int, StepResult], None]] = None
    ) -> None:
        """Run the chain for a number of iterations.

        Without a callback this is the engine's hot path: one call into the
        kernel mode's compiled loop per tape span, or the mode's Python loop
        (``_run_edge`` and its siblings) when the loops did not compile.
        With a callback every proposal goes through :meth:`step`, and the
        callback receives its :class:`~repro.core.markov_chain.StepResult`.
        """
        if iterations < 0:
            raise ConfigurationError(f"iterations must be non-negative, got {iterations}")
        if callback is not None:
            for _ in range(iterations):
                result = self.step()
                callback(self._iterations, result)
            return
        if self._library is None:
            getattr(self, f"_run_{self._mode}")(iterations)
            return
        draws = self._draws
        loop = self._loop
        counters = self._counters
        counters.fill(0)
        remaining = iterations
        while remaining > 0:
            if draws.cursor >= draws.size:
                wanted = -(-remaining // draws.block)  # ceil division
                draws.refill(blocks=min(wanted, _MAX_PREFETCH_BLOCKS))
            start = draws.cursor
            offset = start * 8  # every tape lane holds 8-byte items
            consumed = loop(
                min(draws.size - start, remaining),
                *[base + offset for base in self._tape_bases(draws)],
                *self._loop_args,
            )
            draws.cursor = start + consumed
            remaining -= consumed
            if counters[_GUARD_HIT]:
                counters[_GUARD_HIT] = 0
                self._reallocate()
        self._iterations += iterations
        self._flush(counters.tolist())

    def _run_edge(self, iterations: int) -> None:
        """The Python loop for ``edge`` kernels (compression).

        All state bound to locals, no per-proposal allocations, counters
        flushed back to the instance at the end.  ``chain_loops.c``'s
        ``edge`` ports it statement for statement.
        """
        draws = self._draws
        nb_before_table = self._nb_before
        nb_after_table = self._nb_after
        property_table = self._property_ok
        acceptance = self._acceptance
        pos = self._pos
        grid = self._grid
        cells = grid.cells
        in_guard_band = grid.in_guard_band
        direction_offsets = grid.direction_offsets
        ring_offsets = grid.ring_offsets
        forbidden = FORBIDDEN_NEIGHBOR_COUNT
        occupied_rejects = five_rejects = property_rejects = metropolis_rejects = 0
        accepted = 0
        edges = self._edge_count
        remaining = iterations
        while remaining > 0:
            if draws.cursor >= draws.size:
                draws.refill()
            indices, directions, uniforms = draws.lists()
            start = draws.cursor
            stop = start + min(draws.size - start, remaining)
            consumed = stop - start
            hit_guard = False
            for cursor in range(start, stop):
                index = indices[cursor]
                source = pos[index]
                direction = directions[cursor]
                target = source + direction_offsets[direction]
                if cells[target]:
                    occupied_rejects += 1
                    continue
                ring = ring_offsets[direction]
                mask = (
                    cells[source + ring[0]]
                    | cells[source + ring[1]] << 1
                    | cells[source + ring[2]] << 2
                    | cells[source + ring[3]] << 3
                    | cells[source + ring[4]] << 4
                    | cells[source + ring[5]] << 5
                    | cells[source + ring[6]] << 6
                    | cells[source + ring[7]] << 7
                )
                neighbors_before = nb_before_table[mask]
                if neighbors_before == forbidden:
                    five_rejects += 1
                    continue
                if not property_table[mask]:
                    property_rejects += 1
                    continue
                delta = nb_after_table[mask] - neighbors_before
                if uniforms[cursor] >= acceptance[delta + 6]:
                    metropolis_rejects += 1
                    continue
                cells[source] = 0
                cells[target] = 1
                pos[index] = target
                edges += delta
                accepted += 1
                if in_guard_band(target):
                    consumed = cursor - start + 1
                    hit_guard = True
                    break
            draws.cursor = start + consumed
            remaining -= consumed
            if hit_guard:
                self._reallocate()
                pos = self._pos
                grid = self._grid
                cells = grid.cells
                in_guard_band = grid.in_guard_band
                direction_offsets = grid.direction_offsets
                ring_offsets = grid.ring_offsets

        self._edge_count = edges
        self._iterations += iterations
        self._accepted += accepted
        rejections = self._rejections
        rejections["target_occupied"] += occupied_rejects
        rejections["five_neighbors"] += five_rejects
        rejections["property_failed"] += property_rejects
        rejections["metropolis_rejected"] += metropolis_rejects
        if accepted:
            self._configuration_cache = None

    def _run_edge_site(self, iterations: int) -> None:
        """The hot loop for ``edge_site`` kernels (bridging).

        The compression loop plus two reads of the static site plane and
        a 2-D acceptance lookup per structurally legal proposal.
        """
        draws = self._draws
        nb_before_table = self._nb_before
        nb_after_table = self._nb_after
        property_table = self._property_ok
        site_rows = self._site_rows
        pos = self._pos
        grid = self._grid
        cells = grid.cells
        site = self._site_plane
        in_guard_band = grid.in_guard_band
        direction_offsets = grid.direction_offsets
        ring_offsets = grid.ring_offsets
        forbidden = FORBIDDEN_NEIGHBOR_COUNT
        occupied_rejects = five_rejects = property_rejects = metropolis_rejects = 0
        accepted = 0
        edges = self._edge_count
        sites = self._site_count
        remaining = iterations
        while remaining > 0:
            if draws.cursor >= draws.size:
                draws.refill()
            indices, directions, uniforms = draws.lists()
            start = draws.cursor
            stop = start + min(draws.size - start, remaining)
            consumed = stop - start
            hit_guard = False
            for cursor in range(start, stop):
                index = indices[cursor]
                source = pos[index]
                direction = directions[cursor]
                target = source + direction_offsets[direction]
                if cells[target]:
                    occupied_rejects += 1
                    continue
                ring = ring_offsets[direction]
                mask = (
                    cells[source + ring[0]]
                    | cells[source + ring[1]] << 1
                    | cells[source + ring[2]] << 2
                    | cells[source + ring[3]] << 3
                    | cells[source + ring[4]] << 4
                    | cells[source + ring[5]] << 5
                    | cells[source + ring[6]] << 6
                    | cells[source + ring[7]] << 7
                )
                neighbors_before = nb_before_table[mask]
                if neighbors_before == forbidden:
                    five_rejects += 1
                    continue
                if not property_table[mask]:
                    property_rejects += 1
                    continue
                delta = nb_after_table[mask] - neighbors_before
                site_delta = site[target] - site[source]
                if uniforms[cursor] >= site_rows[site_delta + 1][delta + 6]:
                    metropolis_rejects += 1
                    continue
                cells[source] = 0
                cells[target] = 1
                pos[index] = target
                edges += delta
                sites += site_delta
                accepted += 1
                if in_guard_band(target):
                    consumed = cursor - start + 1
                    hit_guard = True
                    break
            draws.cursor = start + consumed
            remaining -= consumed
            if hit_guard:
                self._reallocate()
                pos = self._pos
                grid = self._grid
                cells = grid.cells
                site = self._site_plane
                in_guard_band = grid.in_guard_band
                direction_offsets = grid.direction_offsets
                ring_offsets = grid.ring_offsets

        self._edge_count = edges
        self._site_count = sites
        self._iterations += iterations
        self._accepted += accepted
        rejections = self._rejections
        rejections["target_occupied"] += occupied_rejects
        rejections["five_neighbors"] += five_rejects
        rejections["property_failed"] += property_rejects
        rejections["metropolis_rejected"] += metropolis_rejects
        if accepted:
            self._configuration_cache = None

    def _run_edge_color(self, iterations: int) -> None:
        """The hot loop for ``edge_color`` kernels (separation).

        Per iteration the lane-2 uniform splits between an inlined swap
        attempt (color plane reads only) and the compression loop
        augmented with same-color neighbor counts off the color plane.
        """
        draws = self._draws
        nb_before_table = self._nb_before
        nb_after_table = self._nb_after
        property_table = self._property_ok
        movement_rows = self._movement_rows
        swap_acceptance = self._swap_acceptance
        swap_probability = self._swap_probability
        pos = self._pos
        grid = self._grid
        cells = grid.cells
        plane = self._color_plane
        in_guard_band = grid.in_guard_band
        direction_offsets = grid.direction_offsets
        ring_offsets = grid.ring_offsets
        forbidden = FORBIDDEN_NEIGHBOR_COUNT
        occupied_rejects = five_rejects = property_rejects = metropolis_rejects = 0
        swap_empty = swap_same = swap_rejects = 0
        accepted = swaps = 0
        edges = self._edge_count
        remaining = iterations
        while remaining > 0:
            if draws.cursor >= draws.size:
                draws.refill()
            indices, directions, uniforms = draws.lists()
            uniforms2 = draws.lists2()
            start = draws.cursor
            stop = start + min(draws.size - start, remaining)
            consumed = stop - start
            hit_guard = False
            for cursor in range(start, stop):
                index = indices[cursor]
                source = pos[index]
                direction = directions[cursor]
                target = source + direction_offsets[direction]
                if uniforms2[cursor] < swap_probability:
                    # Color-swap attempt: occupancy never changes.
                    target_color = plane[target]
                    if not target_color:
                        swap_empty += 1
                        continue
                    source_color = plane[source]
                    if source_color == target_color:
                        swap_same += 1
                        continue
                    before = 0
                    after = -2
                    for offset in direction_offsets:
                        around_source = plane[source + offset]
                        around_target = plane[target + offset]
                        if around_source == source_color:
                            before += 1
                        elif around_source == target_color:
                            after += 1
                        if around_target == target_color:
                            before += 1
                        elif around_target == source_color:
                            after += 1
                    if uniforms[cursor] >= swap_acceptance[after - before + 10]:
                        swap_rejects += 1
                        continue
                    plane[source] = target_color
                    plane[target] = source_color
                    swaps += 1
                    continue
                if cells[target]:
                    occupied_rejects += 1
                    continue
                ring = ring_offsets[direction]
                mask = (
                    cells[source + ring[0]]
                    | cells[source + ring[1]] << 1
                    | cells[source + ring[2]] << 2
                    | cells[source + ring[3]] << 3
                    | cells[source + ring[4]] << 4
                    | cells[source + ring[5]] << 5
                    | cells[source + ring[6]] << 6
                    | cells[source + ring[7]] << 7
                )
                neighbors_before = nb_before_table[mask]
                if neighbors_before == forbidden:
                    five_rejects += 1
                    continue
                if not property_table[mask]:
                    property_rejects += 1
                    continue
                delta = nb_after_table[mask] - neighbors_before
                color = plane[source]
                a_before = 0
                a_after = -1  # the mover itself is always adjacent to the target
                for offset in direction_offsets:
                    if plane[source + offset] == color:
                        a_before += 1
                    if plane[target + offset] == color:
                        a_after += 1
                if uniforms[cursor] >= movement_rows[a_after - a_before + 5][delta + 6]:
                    metropolis_rejects += 1
                    continue
                cells[source] = 0
                cells[target] = 1
                plane[target] = color
                plane[source] = 0
                pos[index] = target
                edges += delta
                accepted += 1
                if in_guard_band(target):
                    consumed = cursor - start + 1
                    hit_guard = True
                    break
            draws.cursor = start + consumed
            remaining -= consumed
            if hit_guard:
                self._reallocate()
                pos = self._pos
                grid = self._grid
                cells = grid.cells
                plane = self._color_plane
                in_guard_band = grid.in_guard_band
                direction_offsets = grid.direction_offsets
                ring_offsets = grid.ring_offsets

        self._edge_count = edges
        self._iterations += iterations
        self._accepted += accepted
        self._accepted_swaps += swaps
        rejections = self._rejections
        rejections["target_occupied"] += occupied_rejects
        rejections["five_neighbors"] += five_rejects
        rejections["property_failed"] += property_rejects
        rejections["metropolis_rejected"] += metropolis_rejects
        rejections["swap_target_empty"] += swap_empty
        rejections["swap_same_color"] += swap_same
        rejections["swap_rejected"] += swap_rejects
        if accepted:
            self._configuration_cache = None

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _bind_grid(self) -> None:
        """Rebuild the argument tuple every compiled-loop call passes."""
        grid = self._grid
        self._offsets = (
            np.array(grid.direction_offsets, dtype=np.int64),
            np.array(grid.ring_offsets, dtype=np.int64),
        )
        nb_before, nb_after, property_ok = self._move_tables
        self._grid_struct = _native.Grid(
            pos=self._pos.buffer_info()[0],
            cells=grid.array.ctypes.data,
            direction_offsets=self._offsets[0].ctypes.data,
            ring_offsets=self._offsets[1].ctypes.data,
            width=grid.width,
            height=grid.height,
            guard=GUARD_BAND,
            nb_before=nb_before.ctypes.data,
            nb_after=nb_after.ctypes.data,
            property_ok=property_ok.ctypes.data,
        )
        # The mode's arguments between the grid and the counters, in the
        # order of its signature in ``chain_loops.c``.
        mode_args = [table.ctypes.data for table in self._tables]
        if self._mode == "edge_site":
            self._plane_view = np.frombuffer(self._site_plane, dtype=np.uint8)
            mode_args.insert(0, self._plane_view.ctypes.data)
        elif self._mode == "edge_color":
            self._plane_view = np.frombuffer(self._color_plane, dtype=np.uint8)
            mode_args = [self._plane_view.ctypes.data, *mode_args, self._swap_probability]
        self._loop_args = (
            ctypes.addressof(self._grid_struct),
            *mode_args,
            self._counters.ctypes.data,
        )

    def _tape_bases(self, draws) -> list:
        """The addresses of the tape lanes the loop reads, checked once per
        refill: C reads them as contiguous ``int64``/``float64`` arrays."""
        if draws.indices is not self._tape_lanes[0]:
            lanes = [draws.indices, draws.directions, draws.uniforms]
            if self._mode == "edge_color":
                lanes.append(draws.uniforms2)
            for lane, dtype in zip(lanes, (np.int64, np.int64, np.float64, np.float64)):
                if lane.dtype != dtype or not lane.flags.c_contiguous or lane.size != draws.size:
                    raise ConfigurationError(
                        f"draw tape lane of dtype {lane.dtype} and size {lane.size} "
                        f"cannot be read as a contiguous {np.dtype(dtype)} array of "
                        f"size {draws.size}"
                    )
            self._tape_lanes = lanes
            self._tape_addresses = [lane.ctypes.data for lane in lanes]
        return self._tape_addresses

    def _flush(self, counts) -> None:
        """Add one compiled ``run()``'s counter array to the engine's counters."""
        rejections = self._rejections
        for reason, count in zip(COUNTERS, counts):
            if reason in rejections:
                rejections[reason] += count
        self._edge_count += counts[_EDGE_DELTA]
        self._accepted += counts[_MOVED]
        self._accepted_swaps += counts[_SWAPPED]
        if self._mode == "edge_site":
            self._site_count += counts[_SITE_DELTA]
        if counts[_MOVED]:
            self._configuration_cache = None

    def _reallocate(self) -> None:
        """Re-center the grid, remap the positions in place and rebuild the
        kernel's auxiliary planes (all vectorized).

        Mirrors :meth:`OccupancyGrid.recenter`'s buffer reuse: when the
        re-centered window keeps its dimensions — the steady-state norm —
        the occupancy and color planes are rewritten in place and only the
        origin moves.
        """
        grid = self._grid
        pos = np.frombuffer(self._pos, dtype=np.int64)
        ys, xs = np.divmod(pos, grid.width)
        xs += grid.origin_x
        ys += grid.origin_y
        mode = self._mode
        if mode == "edge_color":
            colors = np.frombuffer(self._color_plane, dtype=np.uint8)[pos]
        margin = DEFAULT_GRID_MARGIN
        min_x, max_x = int(xs.min()), int(xs.max())
        min_y, max_y = int(ys.min()), int(ys.max())
        width = (max_x - min_x + 1) + 2 * margin
        height = (max_y - min_y + 1) + 2 * margin
        in_place = width == grid.width and height == grid.height
        if in_place:
            grid.origin_x = min_x - margin
            grid.origin_y = min_y - margin
            grid.array.fill(0)
        else:
            grid = OccupancyGrid(list(zip(xs.tolist(), ys.tolist())))
            self._grid = grid
        new_pos = (ys - grid.origin_y) * grid.width + (xs - grid.origin_x)
        grid.array.reshape(-1)[new_pos] = 1
        if mode == "edge_color":
            # Carry each particle's color byte across the window shift.
            if not in_place:
                self._color_plane = bytearray(grid.width * grid.height)
            plane = np.frombuffer(self._color_plane, dtype=np.uint8)
            plane.fill(0)
            plane[new_pos] = colors
        elif mode == "edge_site":
            # The terrain plane is a pure function of the window, and the
            # window (its origin at least) just changed; ``site_count`` is
            # invariant under re-centering.
            self._site_plane = self._kernel.build_site_plane(grid)
        pos[:] = new_pos
        if self._library is not None:
            self._bind_grid()
