"""The production engine for Algorithm M.

:class:`FastCompressionChain` implements exactly the dynamics of
:class:`~repro.core.markov_chain.CompressionMarkovChain` (the reference
engine) but is built for long runs at large ``n``:

* **Dense occupancy grid.**  Particle positions live in a flat row-major
  occupancy grid (:class:`OccupancyGrid`) instead of a hash map, so
  occupancy tests and neighbor reads are integer offset arithmetic.  The
  engine re-centers the grid with a fresh margin whenever the
  configuration drifts toward the edge of the allocated window.
* **Precomputed move tables.**  Properties 1 and 2, the five-neighbor rule
  and the edge delta ``e' - e`` of a proposed move depend only on the
  occupancy pattern of the eight-node ring around the move edge
  (:func:`repro.core.properties.joint_neighborhood`).  The engine packs
  that pattern into an 8-bit mask and resolves the whole legality check
  with three 256-entry table lookups.  The tables ship as literals that
  the tests regenerate from the *reference implementation*, so the two
  engines agree by construction — there is no second, hand-derived copy
  of the paper's Properties 1 and 2 to keep in sync.
* **Batched randomness.**  Randomness is consumed through the shared
  :class:`repro.rng.BatchedMoveDraws` tape (one ``(index, direction,
  uniform)`` triple per iteration, pre-generated in blocks).  Given the
  same seed and block size, this engine and the reference engine
  therefore see bit-identical draws and produce bit-identical
  trajectories — the property enforced by
  ``tests/core/test_engine_contract.py``.
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
Every kernel mode (``edge`` compression, ``edge_site`` bridging,
``edge_color`` separation) runs through one loop:
:meth:`FastCompressionChain._run_python` in Python, and
``run_chain`` in ``_native/chain_loops.c``, its statement-for-statement
port.  The modes share the move filter and differ in the Metropolis
weight only: one acceptance table, :attr:`_rows`, with a row per value
of the mode's auxiliary delta (a single row for compression), and the
byte plane that delta is read off.  Both loops use the same 256-entry
move tables, the same acceptance floats, the same
``uniform >= row[...]`` comparisons in double precision and the same
counters.  ``run()`` makes one C call
(:meth:`~repro.rng.BatchedMoveDraws.run_compiled`), holding the bit
generator's lock: ``run_chain`` reads the tape from its cursor and,
whenever the cursor reaches the end, refills one block through
``fill_tape`` in the same file, which makes numpy's own draws in numpy's
order (stepping numpy's default PCG64 itself, with its state in
registers), so the loop reads the tape numpy would have drawn
(``tests/test_native_tape.py``).  The generator is never advanced past
the block the last consumed position lies in, exactly as with the
reference engine's one-block-at-a-time refills
(``tests/core/test_generator_position.py``).  The loop stops right
after an accepted move that lands in the grid's guard band; ``run()``
then re-centers the grid in numpy (:meth:`_reallocate`) and makes the
next call.  Re-centering is invisible in node space, so trajectories are
unaffected.  ``run(k, sample_every=s)`` passes ``run_chain`` a sample
buffer too: the loop cuts its spans at every ``s``-th proposal and writes
the edge count there, which is how
:func:`~repro.core.compression.record_trace` gets a whole trace of a
hole-free chain from one call.

The C source is compiled with the system C compiler on the first
construction in a process and cached (:mod:`repro.core._native`).  The
Python loop runs whenever the tape has no compiled fill: without a
working compiler (after one logged warning, with numpy filling the tape;
same results, several times slower), for more than ``2**32`` particles,
and as the oracle of the differential fuzz in
``tests/core/test_native_loops.py``, which builds an engine with
:func:`repro.core._native.load_library` patched to return ``None``.
:meth:`step` is one pass of the same loop, whichever the build runs,
with its :class:`~repro.core.markov_chain.StepResult` read off what the
pass changed; the move rule has no per-proposal copy.

How construction works
----------------------
Construction is linear in ``n`` and builds no per-particle tuple.
:func:`occupy` reads ``initial.nodes`` once into int64 coordinate arrays,
scatters them into the grid (:meth:`OccupancyGrid.from_coordinates`) and
lists the occupied cells column by column, which is the order of
``sorted(initial.nodes)``.  :func:`start_invariants` then reads the
start's edge count off the plane with three shifted ANDs, and its
connectivity and hole-freeness with two floods of ``chain_loops.c``'s
``flood``: one over the particles, one over the empty cells.  Without the
compiled library those two facts come from the set-based
:class:`~repro.lattice.configuration.ParticleConfiguration` properties,
which remain the specification the floods are tested against
(``tests/lattice/test_plane_invariants.py``).

Use the reference engine when auditing dynamics or stepping through
individual proposals; use this engine for everything else.  The
differential harness is the contract that keeps the two interchangeable.
"""

from __future__ import annotations

import ctypes
import itertools
from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.constants import FORBIDDEN_NEIGHBOR_COUNT
from repro.errors import ConfigurationError
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.triangular import DIRECTIONS, Node
from repro.core import _native
from repro.core.kernels import (
    KERNEL_MODES,
    MOVEMENT_REJECTION_REASONS,
    SWAP_REJECTION_REASONS,
    CompressionKernel,
    WeightKernel,
)
from repro.core.markov_chain import StepResult
from repro.core.moves import MOVE_TABLE_BYTES, RING_OFFSETS, Move, move_tables
from repro.rng import DEFAULT_DRAW_BLOCK, BatchedMoveDraws, RandomState, make_rng

#: Free border (in cells) left around the occupied bounding box whenever an
#: :class:`OccupancyGrid` is (re)allocated.
DEFAULT_GRID_MARGIN = 32

#: Width of the guard band along the grid border.  An accepted move landing
#: inside the band triggers a reallocation, which keeps every occupied cell
#: far enough from the border that all offset reads stay in bounds.
GUARD_BAND = 4

#: Slots of the counter array the run loops add to (the enum in
#: ``chain_loops.c`` lists them in the same order).
COUNTERS = MOVEMENT_REJECTION_REASONS + SWAP_REJECTION_REASONS + (
    "moved",
    "swapped",
    "edge_delta",
    "site_delta",
    "guard_hit",
)
_GUARD_HIT = COUNTERS.index("guard_hit")
_EDGE_DELTA = COUNTERS.index("edge_delta")
#: The outcome slots: every proposal adds 1 to exactly one of them, and a
#: slot's name is the :class:`~repro.core.markov_chain.StepResult` reason.
_OUTCOMES = COUNTERS.index("swapped") + 1
#: The rejections that read the ring around the move edge, and so report
#: the move's edge delta.
_RING_REJECTIONS = ("five_neighbors", "property_failed", "metropolis_rejected")
#: Read-only uint8 views of the move tables, shared by every engine of a
#: process: the compiled loop reads them through raw pointers.
_MOVE_TABLE_ARRAYS = tuple(np.frombuffer(table, dtype=np.uint8) for table in MOVE_TABLE_BYTES)
#: ``run_chain``'s sampling arguments ``(stride, first, samples)`` of an
#: unsampled call.
_NO_SAMPLES = (0, 0, None)


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

    A grid is a window, not a set: it is built by :meth:`from_coordinates`
    (or :func:`occupy`), and its owner writes :attr:`cells` directly.  The
    outermost :data:`GUARD_BAND` cells form a guard band; membership is
    pure ``divmod`` arithmetic on the flat index (:meth:`in_guard_band`),
    so the band costs no memory.  An owner whose occupied cell enters the
    band builds a new window around its particles with
    :meth:`from_coordinates` (passing the old grid as ``reuse``); in
    exchange, every offset read from a cell outside the band is guaranteed
    in bounds without per-read checks.
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

    @classmethod
    def from_coordinates(
        cls,
        xs: np.ndarray,
        ys: np.ndarray,
        margin: int = DEFAULT_GRID_MARGIN,
        reuse: Optional["OccupancyGrid"] = None,
    ) -> "OccupancyGrid":
        """A grid occupied at exactly the nodes ``(xs[i], ys[i])``.

        The window is the nodes' bounding box plus ``margin`` free cells
        on every side, and the int64 coordinate arrays are scattered into
        it in one numpy pass.  When ``reuse`` is a grid of the new
        window's dimensions, its buffers are zeroed and repainted in
        place and ``reuse`` itself is returned with only its origin
        moved.  This is the one bounding-box-and-scatter step behind
        construction and the engines' reallocations.
        """
        if xs.size == 0:
            raise ConfigurationError("an occupancy grid needs at least one occupied node")
        if margin <= GUARD_BAND:
            raise ConfigurationError(
                f"margin must exceed the guard band ({GUARD_BAND}), got {margin}"
            )
        min_x, min_y = int(xs.min()), int(ys.min())
        width = (int(xs.max()) - min_x + 1) + 2 * margin
        height = (int(ys.max()) - min_y + 1) + 2 * margin
        if reuse is not None and reuse.width == width and reuse.height == height:
            grid = reuse
            grid.array.fill(0)
        else:
            grid = cls.__new__(cls)
            grid.width = width
            grid.height = height
            grid.cells = bytearray(width * height)
            grid.array = np.frombuffer(grid.cells, dtype=np.int8).reshape(height, width)
            grid.direction_offsets = tuple(dy * width + dx for dx, dy in DIRECTIONS)
            grid.ring_offsets = tuple(
                tuple(dy * width + dx for dx, dy in ring) for ring in RING_OFFSETS
            )
        grid.origin_x = min_x - margin
        grid.origin_y = min_y - margin
        grid.array.reshape(-1)[grid.flat_indices(xs, ys)] = 1
        return grid

    def flat_index(self, node: Node) -> int:
        """Return the flat cell index of axial node ``(x, y)``."""
        return (node[1] - self.origin_y) * self.width + (node[0] - self.origin_x)

    def flat_indices(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The flat cell indices of the nodes ``(xs[i], ys[i])`` (vectorized)."""
        flats = ys - self.origin_y  # one temporary, updated in place
        flats *= self.width
        flats += xs
        flats -= self.origin_x
        return flats

    def coordinates(self, flats: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(xs, ys)`` int64 coordinate arrays of flat cell indices."""
        ys, xs = np.divmod(flats, self.width)
        xs += self.origin_x
        ys += self.origin_y
        return xs, ys

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
        allocate or rebuild when the window moves.
        """
        y, x = divmod(flat, self.width)
        return (
            x < GUARD_BAND
            or x >= self.width - GUARD_BAND
            or y < GUARD_BAND
            or y >= self.height - GUARD_BAND
        )


def occupy(initial: ParticleConfiguration) -> Tuple[OccupancyGrid, np.ndarray]:
    """The grid of a configuration and the flat cell of each of its particles.

    The coordinates are read once into int64 arrays off the node tuple
    the configuration keeps in its given order (not off the frozenset
    ``initial.nodes``, whose hash order makes the same read about three
    times slower at large ``n``) and scattered into the grid.  The
    particles come in the order of ``sorted(initial.nodes)`` — the index
    order every engine assigns — without a sort: listing the occupied
    cells column by column (x, then y within a column) is that order, and
    it is one linear scan of the plane, whatever order the nodes were
    given in.
    """
    ordered = initial._ordered
    coordinates = np.fromiter(
        itertools.chain.from_iterable(ordered), dtype=np.int64, count=2 * len(ordered)
    )
    grid = OccupancyGrid.from_coordinates(coordinates[0::2], coordinates[1::2])
    columns, rows = np.divmod(np.flatnonzero(grid.array.T), grid.height)
    return grid, rows * grid.width + columns


def start_invariants(
    initial: ParticleConfiguration, grid: OccupancyGrid, pos: np.ndarray
) -> Tuple[int, bool, bool]:
    """``(e, connected, hole_free)`` of ``initial``, read off its occupancy plane.

    ``grid`` and ``pos`` are what :func:`occupy` returned for ``initial``.
    Everything is read off a copy of the plane cut to the bounding box
    plus a border of one empty cell, so the work and the scratch memory
    scale with the bounding box, not the window.  The edge count is three
    shifted ANDs (the E, NE and NW neighbors, so each edge is counted
    once).  With the compiled library, connectivity and holes are two
    floods of ``chain_loops.c``'s ``flood``: the particles reachable from
    the first particle must be all ``n`` of them, and the empty cells
    reachable from the box's corner must be all its empty cells.  The
    border is empty and connected and so belongs to the exterior, and an
    empty cell the flood does not reach is enclosed: a hole, exactly as
    :mod:`repro.lattice.holes` defines it on the same padded box.
    Without the library both come from the set-based
    :class:`~repro.lattice.configuration.ParticleConfiguration`
    properties, which are the specification.
    """
    plane = grid.array
    rows = np.flatnonzero(plane.any(axis=1))
    columns = np.flatnonzero(plane.any(axis=0))
    top, left = rows[0] - 1, columns[0] - 1
    box = np.ascontiguousarray(plane[top : rows[-1] + 2, left : columns[-1] + 2])
    edges = int(
        np.count_nonzero(box[:, :-1] & box[:, 1:])
        + np.count_nonzero(box[:-1, :] & box[1:, :])
        + np.count_nonzero(box[:-1, 1:] & box[1:, :-1])
    )
    library = _native.load_library()
    if library is None:
        return edges, initial.is_connected, initial.is_hole_free
    height, width = box.shape
    row, column = divmod(int(pos[0]), grid.width)
    first = (row - top) * width + (column - left)
    n = len(pos)
    seen = np.zeros(box.size, dtype=np.uint8)
    queue = np.empty(box.size, dtype=np.int64)
    arguments = (box.ctypes.data, width, height)
    scratch = (seen.ctypes.data, queue.ctypes.data)
    connected = library.flood(*arguments, int(first), 1, *scratch) == n
    hole_free = library.flood(*arguments, 0, 0, *scratch) == box.size - n
    return edges, connected, hole_free


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
        kernel mode runs the compiled loop.
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
        # Particle indices follow sorted node order, as in the reference engine.
        self._grid, pos = occupy(initial)
        self._edge_count, connected, self._hole_free = start_invariants(
            initial, self._grid, pos
        )
        if not connected:
            raise ConfigurationError("the initial configuration must be connected")
        self._kernel = kernel
        self._mode = kernel.mode
        self.lam = kernel.lam
        self._rng = make_rng(seed)
        self._n = len(pos)
        self._draws = BatchedMoveDraws(self._rng, self._n, draw_block, lanes=kernel.lanes)
        # Indexes like a list from Python, and hands C an int64 pointer.
        self._pos = array("q", pos.tobytes())
        self._iterations = 0
        self._accepted = 0
        self._accepted_swaps = 0
        self._rejections: Dict[str, int] = {
            reason: 0 for reason in kernel.rejection_reasons
        }
        self._swap_probability = kernel.swap_probability
        self._nb_before, self._nb_after, self._property_ok = move_tables()
        self._init_kernel_state(initial)
        # A hole-free start is not kept: perimeter and hole count come from
        # counters from here on, and releasing a large configuration would
        # stall the first run() that moves a particle.  A holey one is kept,
        # because perimeter() reads it until the holes die out.
        self._configuration_cache: Optional[ParticleConfiguration] = (
            None if self._hole_free else initial
        )
        # The compiled loop refills the tape through its compiled fill, so
        # a tape without one runs the Python loop, as without a compiler.
        self._library = _native.load_library() if self._draws.compiled else None
        if self._library is not None:
            self._init_native()

    def _init_kernel_state(self, initial: ParticleConfiguration) -> None:
        """Build the acceptance tables and auxiliary byte planes.

        ``_rows`` is the movement acceptance table of every mode, indexed
        ``[row][e_delta + 6]``: one row for compression, the site delta
        + 1 for bridging, the same-color delta + 5 for separation.
        """
        kernel = self._kernel
        self._swap_acceptance: Optional[List[float]] = None
        if self._mode == "edge":
            # The kernel reproduces the exact float list the engine always
            # precomputed, so the Metropolis comparisons are unchanged.
            self._rows = [kernel.acceptance_list()]
        elif self._mode == "edge_site":
            self._rows = kernel.acceptance_rows()
            self._site_plane = kernel.build_site_plane(self._grid)
            self._site_count = int(
                np.frombuffer(self._site_plane, dtype=np.uint8)[
                    np.frombuffer(self._pos, dtype=np.int64)
                ].sum()
            )
        elif self._mode == "edge_color":
            if kernel.colors.keys() != initial.nodes:
                raise ConfigurationError(
                    "the kernel's color map must cover exactly the occupied nodes"
                )
            self._rows = kernel.movement_rows()
            self._swap_acceptance = kernel.swap_row()
            self._color_plane = kernel.build_color_plane(self._grid, self._pos)
        else:
            raise ConfigurationError(f"unknown kernel mode {self._mode!r}")

    def _init_native(self) -> None:
        """Build the arrays the compiled loop reads through raw pointers."""
        self._mode_index = KERNEL_MODES.index(self._mode)
        self._counters = np.zeros(len(COUNTERS), dtype=np.int64)
        self._rows_array = np.array(self._rows, dtype=np.float64)
        self._swap_array = (
            None if self._swap_acceptance is None
            else np.array(self._swap_acceptance, dtype=np.float64)
        )
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

        One pass of :meth:`run`'s own loop, so the move rule has one copy
        per build: the result is read off what that pass changed.  The
        proposal is the tape position it consumed, the reason the one
        counter it moved, and a moved particle's cells are read off the
        grid after any reallocation the move triggered.  Semantically
        identical to the reference engine's ``step`` for the same kernel;
        used by the lockstep differential tests.  Throughput-sensitive
        callers should prefer :meth:`run`, which skips the per-proposal
        :class:`~repro.core.markov_chain.StepResult` construction.
        """
        counts = self._advance(1)
        self._iterations += 1
        self._flush(counts)
        draws = self._draws
        index = int(draws.indices[draws.cursor - 1])
        direction = int(draws.directions[draws.cursor - 1])
        reason = COUNTERS[counts.index(1, 0, _OUTCOMES)]
        grid = self._grid
        offset = grid.direction_offsets[direction]
        edge_delta = None
        if reason == "moved":
            target = self._pos[index]
            source = target - offset
            edge_delta = counts[_EDGE_DELTA]
        else:
            source = self._pos[index]
            target = source + offset
            if reason in _RING_REJECTIONS:
                # The rejection left the ring as the loop read it.
                cells = grid.cells
                mask = 0
                for bit, ring_offset in enumerate(grid.ring_offsets[direction]):
                    mask |= cells[source + ring_offset] << bit
                edge_delta = self._nb_after[mask] - self._nb_before[mask]
        move = Move(source=grid.node_at(source), target=grid.node_at(target))
        return StepResult(reason == "moved", move, edge_delta, reason)

    def run(self, iterations: int, sample_every: int = 0) -> Optional[List[int]]:
        """Run the chain for a number of iterations.

        This is the engine's hot path: one call into the compiled
        ``run_chain``, plus one more after each guard-band reallocation,
        or :meth:`_run_python` when the tape has no compiled fill.

        With ``sample_every=k`` the run also returns the edge count
        ``e(sigma)`` after every ``k``-th of its iterations
        (``iterations // k`` ints); the compiled loop writes them in the
        same call, so a traced run
        (:func:`~repro.core.compression.record_trace`) is one call too.
        Only the compiled build samples; the Python loop refuses it, and
        ``record_trace`` samples it block by block.
        """
        if iterations < 0:
            raise ConfigurationError(f"iterations must be non-negative, got {iterations}")
        if sample_every < 0:
            raise ConfigurationError(f"sample_every must be non-negative, got {sample_every}")
        if sample_every and self._library is None:
            raise ConfigurationError("sample_every needs the compiled run_chain, which did not build")
        if sample_every:
            return self._run_sampled(iterations, sample_every)
        self._run(iterations)
        return None

    def _run(
        self, iterations: int, stride: int = 0, samples: Optional[np.ndarray] = None
    ) -> None:
        """Advance ``iterations`` steps and add their counts to the engine's."""
        counts = self._advance(iterations, stride, samples)
        self._iterations += iterations
        self._flush(counts)

    def _run_sampled(self, iterations: int, stride: int) -> List[int]:
        """:meth:`run` with the edge count read after every ``stride`` steps."""
        samples = np.empty(iterations // stride, dtype=np.int64)
        start = self._edge_count
        self._run(iterations, stride, samples)
        samples += start
        return samples.tolist()

    def _advance(
        self, iterations: int, stride: int = 0, samples: Optional[np.ndarray] = None
    ) -> List[int]:
        """Run the loop ``iterations`` times, re-centering the grid after
        each guard-band hit; returns the counts in :data:`COUNTERS` order.

        A ``samples`` array (int64, compiled build only) receives the edge
        delta after every ``stride`` iterations; each call after a
        reallocation resumes the cuts where the last one left them.
        """
        if self._library is None:
            return self._run_python(iterations)
        run_compiled = self._draws.run_compiled
        counters = self._counters
        counters.fill(0)
        address = None if samples is None else samples.ctypes.data
        done = 0
        while done < iterations:
            run_chain, mode, loop_args = self._call
            sampling = _NO_SAMPLES if address is None else (
                stride, stride - done % stride, address + 8 * (done // stride)
            )
            done += run_compiled(run_chain, mode, iterations - done, *loop_args, *sampling)
            if counters[_GUARD_HIT]:
                counters[_GUARD_HIT] = 0
                self._reallocate()
        return counters.tolist()

    def _run_python(self, iterations: int) -> List[int]:
        """The Python run loop of every kernel mode; returns its counts in
        :data:`COUNTERS` order.

        All state bound to locals and no per-proposal allocations.  The
        mode only adds branches: the lane-2 swap attempt (``edge_color``)
        and the auxiliary delta that picks the acceptance row (site plane
        for ``edge_site``, same-color neighbors for ``edge_color``; the
        single row of ``edge`` is bound once).  ``chain_loops.c``'s
        ``run_chain`` ports it statement for statement.
        """
        sited = self._mode == "edge_site"
        colored = self._mode == "edge_color"
        draws = self._draws
        nb_before_table = self._nb_before
        nb_after_table = self._nb_after
        property_table = self._property_ok
        rows = self._rows
        row = rows[0]  # edge kernels keep the single row
        swap_acceptance = self._swap_acceptance
        swap_probability = self._swap_probability
        pos = self._pos
        grid = self._grid
        cells = grid.cells
        plane = self._plane()
        in_guard_band = grid.in_guard_band
        direction_offsets = grid.direction_offsets
        ring_offsets = grid.ring_offsets
        forbidden = FORBIDDEN_NEIGHBOR_COUNT
        occupied_rejects = five_rejects = property_rejects = metropolis_rejects = 0
        swap_empty = swap_same = swap_rejects = 0
        accepted = swaps = edges = sites = 0
        uniforms2 = None
        remaining = iterations
        while remaining > 0:
            if draws.cursor >= draws.size:
                draws.refill()
            indices, directions, uniforms = draws.lists()
            if colored:
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
                if colored and uniforms2[cursor] < swap_probability:
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
                if sited:
                    site_delta = plane[target] - plane[source]
                    row = rows[site_delta + 1]
                elif colored:
                    color = plane[source]
                    a_before = 0
                    a_after = -1  # the mover itself is always adjacent to the target
                    for offset in direction_offsets:
                        if plane[source + offset] == color:
                            a_before += 1
                        if plane[target + offset] == color:
                            a_after += 1
                    row = rows[a_after - a_before + 5]
                if uniforms[cursor] >= row[delta + 6]:
                    metropolis_rejects += 1
                    continue
                cells[source] = 0
                cells[target] = 1
                pos[index] = target
                edges += delta
                accepted += 1
                if sited:
                    sites += site_delta
                elif colored:
                    plane[target] = color
                    plane[source] = 0
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
                plane = self._plane()
                in_guard_band = grid.in_guard_band
                direction_offsets = grid.direction_offsets
                ring_offsets = grid.ring_offsets
        return [
            occupied_rejects, five_rejects, property_rejects, metropolis_rejects,
            swap_empty, swap_same, swap_rejects, accepted, swaps, edges, sites, 0,
        ]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _plane(self) -> Optional[bytearray]:
        """The mode's byte plane: terrain (``edge_site``), colors
        (``edge_color``), or ``None`` (``edge``)."""
        if self._mode == "edge_site":
            return self._site_plane
        if self._mode == "edge_color":
            return self._color_plane
        return None

    def _bind_grid(self) -> None:
        """Rebuild the cached ``run_chain`` call: the function, the mode and
        the arguments after the iteration count.  Built at construction
        and after each reallocation; the tape struct comes first in the
        call, from :meth:`~repro.rng.BatchedMoveDraws.run_compiled`."""
        grid = self._grid
        self._offsets = (
            np.array(grid.direction_offsets, dtype=np.int64),
            np.array(grid.ring_offsets, dtype=np.int64),
        )
        nb_before, nb_after, property_ok = _MOVE_TABLE_ARRAYS
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
        # NULL (None) for the plane and swap table a mode lacks.
        plane = self._plane()
        self._plane_view = None if plane is None else np.frombuffer(plane, dtype=np.uint8)
        self._call = (
            self._library.run_chain,
            self._mode_index,
            (
                ctypes.addressof(self._grid_struct),
                None if plane is None else self._plane_view.ctypes.data,
                self._rows_array.ctypes.data,
                None if self._swap_array is None else self._swap_array.ctypes.data,
                self._swap_probability,
                self._counters.ctypes.data,
            ),
        )

    def _flush(self, counts) -> None:
        """Add one :meth:`_advance`'s counts, in :data:`COUNTERS` order, to
        the engine's counters."""
        (
            occupied, five, failed, metropolis, swap_empty, swap_same, swap_rejected,
            moved, swapped, edge_delta, site_delta, _,
        ) = counts
        rejections = self._rejections
        rejections["target_occupied"] += occupied
        rejections["five_neighbors"] += five
        rejections["property_failed"] += failed
        rejections["metropolis_rejected"] += metropolis
        if self._mode == "edge_color":
            rejections["swap_target_empty"] += swap_empty
            rejections["swap_same_color"] += swap_same
            rejections["swap_rejected"] += swap_rejected
        elif self._mode == "edge_site":
            self._site_count += site_delta
        self._edge_count += edge_delta
        self._accepted += moved
        self._accepted_swaps += swapped
        if moved:
            self._configuration_cache = None

    def _reallocate(self) -> None:
        """Re-center the grid, remap the positions in place and rebuild the
        kernel's auxiliary planes (all vectorized).

        Uses :meth:`OccupancyGrid.from_coordinates`'s buffer reuse: when
        the re-centered window keeps its dimensions — the steady-state
        norm — the occupancy and color planes are rewritten in place and
        only the origin moves.
        """
        grid = self._grid
        pos = np.frombuffer(self._pos, dtype=np.int64)
        xs, ys = grid.coordinates(pos)
        mode = self._mode
        if mode == "edge_color":
            colors = np.frombuffer(self._color_plane, dtype=np.uint8)[pos]
        fresh = OccupancyGrid.from_coordinates(xs, ys, reuse=grid)
        in_place = fresh is grid
        grid = self._grid = fresh
        new_pos = grid.flat_indices(xs, ys)
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
