"""The compiled engine for Algorithm M.

:class:`VectorCompressionChain` is the third engine behind the
differential-testing contract (after the reference and fast engines).  It
consumes the same one-triple-per-iteration
:class:`~repro.rng.BatchedMoveDraws` tape, one proposal at a time, exactly
as the fast engine does — but its hot loop is compiled C instead of
Python.

How ``run()`` works
-------------------
``_native/chain_loops.c`` holds one sequential loop per kernel mode
(``edge`` compression, ``edge_site`` bridging, ``edge_color``
separation).  Each is a statement-for-statement port of the matching
:class:`~repro.core.fast_chain.FastCompressionChain` loop: same 256-entry
move tables, same acceptance floats, same ``uniform >= acceptance[...]``
comparisons in double precision, same counters.  So for equal seeds and
draw blocks the trajectories are bit-identical.

The Python driver stays thin.  It refills the tape with
``BatchedMoveDraws.refill(blocks=k)`` — which invokes the generator
exactly as ``k`` single-block refills would, so the random stream is
unchanged — and then makes one C call per tape span.  The grid, the move
tables and the kernel's acceptance tables are handed over once, at
construction and after each grid reallocation (:meth:`_bind_grid`).  A C
loop stops right after an accepted move that lands in the grid's guard
band, exactly where the scalar engines re-center; the driver then
re-centers the grid in numpy (:meth:`_reallocate`) and resumes.
Re-centering is invisible in node space, so trajectories are unaffected.

The C source is compiled with the system C compiler on the first
construction and cached (:mod:`repro.core._native`).  Without a working
compiler, ``run()`` runs the inherited fast-engine loops, on the fast
engine's plain-list positions, after one logged warning; results are the
same and the speed is the fast engine's.

Use ``CompressionSimulation(engine="vector")`` (or ``engine="vector"``
on :class:`~repro.algorithms.separation.SeparationMarkovChain` /
:class:`~repro.algorithms.shortcut_bridging.BridgingMarkovChain`) to
select it.  It is the fastest engine at every ``n``; prefer ``"fast"``
to read or step through the dynamics in Python and ``"reference"`` for
audits.  Like every engine, it must hold the lockstep differential
harness, the randomized invariant suite and the committed golden traces
(``tests/core/``, ``tests/algorithms/``) bit-for-bit.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Optional

import numpy as np

from repro.core import _native
from repro.core.fast_chain import (
    DEFAULT_GRID_MARGIN,
    GUARD_BAND,
    FastCompressionChain,
    OccupancyGrid,
)
from repro.core.kernels import MOVEMENT_REJECTION_REASONS, SWAP_REJECTION_REASONS, WeightKernel
from repro.core.markov_chain import StepResult
from repro.errors import ConfigurationError
from repro.lattice.configuration import ParticleConfiguration
from repro.rng import DEFAULT_DRAW_BLOCK, RandomState

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

#: Most draw blocks materialized per tape refill.
_MAX_PREFETCH_BLOCKS = 16


class VectorCompressionChain(FastCompressionChain):
    """Algorithm M with its ``run()`` loop compiled to C.

    Drop-in compatible with the scalar engines: same constructor, same
    counters, same :class:`~repro.core.markov_chain.StepResult` per
    proposal from :meth:`step`, and — given equal seeds and draw blocks —
    the same trajectory, bit for bit.  ``step()`` is the scalar path
    inherited from the fast engine (used by the lockstep differential
    tests); ``run()`` is the compiled hot path.

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
        Optional :class:`~repro.core.kernels.WeightKernel`.  All three
        registered kernel modes have a compiled loop: ``edge``
        (compression), ``edge_site`` (bridging, reading the static
        terrain plane) and ``edge_color`` (separation, reading and
        writing the color plane).  A kernel whose mode is none of these
        raises a :class:`~repro.errors.ConfigurationError` naming the
        kernel and the engines that can drive it.
    """

    #: Kernel modes with a compiled loop; anything else must run on the
    #: scalar engines, which dispatch through kernel callbacks.
    SUPPORTED_KERNEL_MODES = ("edge", "edge_site", "edge_color")

    def __init__(
        self,
        initial: ParticleConfiguration,
        lam: Optional[float] = None,
        seed: RandomState = None,
        draw_block: int = DEFAULT_DRAW_BLOCK,
        kernel: Optional["WeightKernel"] = None,
    ) -> None:
        if kernel is not None and kernel.mode not in self.SUPPORTED_KERNEL_MODES:
            raise ConfigurationError(
                f"engine='vector' cannot drive {type(kernel).__name__} "
                f"(kernel {kernel.name!r}): its mode {kernel.mode!r} is not "
                f"one of the compiled modes "
                f"{', '.join(repr(m) for m in self.SUPPORTED_KERNEL_MODES)}; "
                f"use engine='fast' or engine='reference', which evaluate "
                f"any registered kernel mode through scalar callbacks"
            )
        super().__init__(initial, lam=lam, seed=seed, draw_block=draw_block, kernel=kernel)
        if self._hole_free:
            # Perimeter and hole count come from counters from here on, so
            # the engine does not pin the caller's configuration: releasing
            # a large one would stall the first run() that moves a particle.
            self._configuration_cache = None
        self._library = _native.load_library()
        if self._library is None:
            # The fast engine's loops, on its plain-list positions.
            return
        self._pos = np.array(self._pos, dtype=np.int64)
        self._loop = getattr(self._library, self._mode)
        self._counters = np.zeros(len(COUNTERS), dtype=np.int64)
        self._tape_lanes = [None]
        # The C loops read these through raw pointers: keep them alive.
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
    # Grid-derived state
    # ------------------------------------------------------------------ #
    def _bind_grid(self) -> None:
        """Rebuild the numpy views of the grid window and the argument
        tuple every C call passes."""
        grid = self._grid
        self._cells_flat = grid.array.reshape(-1)
        if self._mode == "edge_color":
            self._color_arr = np.frombuffer(self._color_plane, dtype=np.uint8)
        self._offsets = (
            np.array(grid.direction_offsets, dtype=np.int64),
            np.array(grid.ring_offsets, dtype=np.int64),
        )
        nb_before, nb_after, property_ok = self._move_tables
        self._grid_struct = _native.Grid(
            pos=self._pos.ctypes.data,
            cells=self._cells_flat.ctypes.data,
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
            self._site_arr = np.frombuffer(self._site_plane, dtype=np.uint8)
            mode_args.insert(0, self._site_arr.ctypes.data)
        elif self._mode == "edge_color":
            mode_args = [self._color_arr.ctypes.data, *mode_args, self._swap_probability]
        self._loop_args = (
            ctypes.addressof(self._grid_struct),
            *mode_args,
            self._counters.ctypes.data,
        )

    def _reallocate(self) -> None:
        """Re-center the grid, remap the flat position array and rebuild the
        kernel's auxiliary planes (all vectorized).

        Mirrors :meth:`OccupancyGrid.recenter`'s buffer reuse: when the
        re-centered window keeps its dimensions — the steady-state norm —
        the occupancy and color planes are rewritten in place and only the
        origin moves.  Without the compiled loops this is the fast engine's
        reallocation.
        """
        if self._library is None:
            super()._reallocate()
            return
        grid = self._grid
        old_pos = self._pos
        ys, xs = np.divmod(old_pos, grid.width)
        xs = xs + grid.origin_x
        ys = ys + grid.origin_y
        mode = self._mode
        margin = DEFAULT_GRID_MARGIN
        min_x, max_x = int(xs.min()), int(xs.max())
        min_y, max_y = int(ys.min()), int(ys.max())
        width = (max_x - min_x + 1) + 2 * margin
        height = (max_y - min_y + 1) + 2 * margin
        if width == grid.width and height == grid.height:
            grid.origin_x = min_x - margin
            grid.origin_y = min_y - margin
            new_pos = (ys - grid.origin_y) * width + (xs - grid.origin_x)
            if mode == "edge_color":
                old_colors = self._color_arr[old_pos].copy()
                self._color_arr.fill(0)
                self._color_arr[new_pos] = old_colors
            self._cells_flat.fill(0)
            self._cells_flat[new_pos] = 1
        else:
            grid = OccupancyGrid(list(zip(xs.tolist(), ys.tolist())))
            new_pos = (ys - grid.origin_y) * grid.width + (xs - grid.origin_x)
            if mode == "edge_color":
                # Carry each particle's color byte across the window shift.
                plane = bytearray(grid.width * grid.height)
                np.frombuffer(plane, dtype=np.uint8)[new_pos] = self._color_arr[old_pos]
                self._color_plane = plane
            self._grid = grid
        if mode == "edge_site":
            # The terrain plane is a pure function of the window, and the
            # window (its origin at least) just changed; ``site_count`` is
            # invariant under re-centering.
            self._site_plane = self._kernel.build_site_plane(grid)
        self._pos = new_pos
        self._bind_grid()

    # ------------------------------------------------------------------ #
    # Dynamics
    # ------------------------------------------------------------------ #
    def run(
        self, iterations: int, callback: Optional[Callable[[int, StepResult], None]] = None
    ) -> None:
        """Run the chain for a number of iterations (compiled hot path).

        With a callback, or without the compiled loops, this is the fast
        engine's ``run()``.
        """
        if self._library is None or callback is not None:
            super().run(iterations, callback)
            return
        if iterations < 0:
            raise ConfigurationError(f"iterations must be non-negative, got {iterations}")
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
        """Add one ``run()``'s counter array to the engine's counters."""
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
