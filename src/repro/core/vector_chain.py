"""The vectorized multi-proposal engine for Algorithm M.

:class:`VectorCompressionChain` is the third engine behind the
differential-testing contract (after the reference and fast engines) and
the first to leave the one-proposal-per-Python-iteration model: it
consumes the *same* one-triple-per-iteration
:class:`~repro.rng.BatchedMoveDraws` tape, but resolves whole blocks of
proposals per numpy pass.

How a pass works
----------------
Against a snapshot of the occupancy grid, one pass

1. gathers every proposal's source cell (``pos[indices]``), target cell
   (source + direction offset) and eight-cell ring occupancy with
   flat-index advanced indexing into the grid's zero-copy numpy view,
   packing each ring into an 8-bit mask with one integer dot product;
2. resolves neighbor counts and the Property 1/2 verdict for all masks at
   once by indexing the ``(256, 3)`` array form of the move tables
   (:func:`repro.core.fast_chain.move_tables_array`); and
3. applies the Metropolis filter vectorized (``uniform <
   lambda**edge_delta``, with the same precomputed float table as the
   scalar engines, so the comparisons are bit-identical).

Why the trajectory is still bit-identical: the conflict cut
-----------------------------------------------------------
Evaluating proposals against a snapshot is only correct while the state
does not change underneath them.  The rule that restores sequential
semantics is the *conflict cut*: the cells touched (vacated or filled) by
every tentatively-accepted proposal are flagged, and any proposal whose
source, target or ring cells overlap a flagged cell ends its vectorized
span — its snapshot verdict is discarded and the proposal is re-resolved
*scalar-wise against the committed state at its own position in the
tape*, exactly as the scalar engines would have resolved it.  Everything
else keeps its snapshot verdict, which is exact by induction: the state
sequential execution would see at proposal ``j`` differs from the
snapshot only at cells touched by earlier accepted moves, and a
conflict-free proposal reads none of those cells.  (A proposal whose
particle was moved earlier in the pass is caught by the same rule: its
stale source cell is exactly the cell the earlier move vacated.)  When a
scalar re-resolution accepts a move the snapshot had not predicted, the
newly touched cells are flagged and the rest of the span is re-screened
against them, so the flag set always covers every cell that actually
changed.

Rejections dominate at stationarity — measured mean conflict-free spans
are ~500-800 proposals at ``n = 1000`` and tens of thousands at
``n = 20000`` — so almost all proposals are resolved in the numpy pass
and the scalar fallback touches a fraction of a percent of the tape.

Two further rules keep the engines aligned:

* **Tape prefetch, not tape reshaping.**  The engine may materialize
  several draw blocks per refill (``BatchedMoveDraws.refill(blocks=k)``),
  but the generator is invoked exactly as ``k`` single-block refills
  would invoke it, so the random stream is unchanged.
* **Guard-band cut.**  An accepted move landing in the grid's guard band
  ends the whole pass *after* that proposal, exactly where the scalar
  engines re-center; the grid reallocates and evaluation resumes with a
  fresh snapshot — re-centering is invisible in node space, so
  trajectories are unaffected.

Aux-plane kernels are vectorized too: every registered kernel mode
(``edge`` compression, ``edge_site`` bridging, ``edge_color``
separation) has its own specialization of the pass, mirroring the scalar
engine's per-mode ``run`` loops.  The bridging pass adds a fused gather
into the flattened 3x13 acceptance table off the static terrain plane;
the separation pass splits each proposal on the tape's second uniform
lane between vectorized swap and movement evaluation over the color
plane and stamps *two* touch planes in the conflict cut — occupancy
touches and color touches — so each snapshot verdict is screened against
exactly the state it read (see :meth:`VectorCompressionChain.
_advance_color`).  Guard-band re-centers rebuild the auxiliary planes
alongside the occupancy grid.

Use ``CompressionSimulation(engine="vector")`` (or ``engine="vector"``
on :class:`~repro.algorithms.separation.SeparationMarkovChain` /
:class:`~repro.algorithms.shortcut_bridging.BridgingMarkovChain`) to
select it.  Prefer it over ``"fast"`` for long runs at ``n`` in the
thousands and beyond; prefer ``"fast"`` for small or high-acceptance
systems (short spans leave little to amortize) and ``"reference"`` for
audits.  Like every engine, it must hold the lockstep differential
harness, the randomized invariant suite and the committed golden traces
(``tests/core/``, ``tests/algorithms/``) bit-for-bit.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.lattice.configuration import ParticleConfiguration
from repro.core.fast_chain import (
    DEFAULT_GRID_MARGIN,
    FastCompressionChain,
    OccupancyGrid,
    move_tables_array,
)
from repro.core.kernels import WeightKernel
from repro.core.markov_chain import REJECTION_REASONS, StepResult
from repro.rng import DEFAULT_DRAW_BLOCK, RandomState

#: Bit weights packing an eight-cell ring into one mask byte (one integer
#: dot product per pass — measured ~4x faster than ``np.packbits``).
_RING_WEIGHTS = np.array([1, 2, 4, 8, 16, 32, 64, 128], dtype=np.uint8)

#: Most draw blocks materialized per tape refill, and the largest number
#: of proposals evaluated per numpy pass (kept cache-friendly).
_MAX_PREFETCH_BLOCKS = 16

#: Bounds on the adaptive pass size.  Conflicts per pass grow roughly
#: quadratically with pass length (more tentative acceptances x more
#: readers of their cells), while per-pass numpy overhead amortizes
#: linearly; the controller in :meth:`VectorCompressionChain.run` walks
#: the pass size between these bounds to balance the two.
_MIN_PASS = 2048
_MAX_PASS = _MAX_PREFETCH_BLOCKS * 1024

#: Shrink the pass when scalar re-resolutions exceed 1/128 of it; grow it
#: again below 1/512.
_SHRINK_REPAIR_RATIO = 128
_GROW_REPAIR_RATIO = 512

#: First-touch stamp for cells no tentatively-accepted move touches.
_NEVER_TOUCHED = 2**62


class VectorCompressionChain(FastCompressionChain):
    """Algorithm M resolved in whole-block numpy passes with a conflict cut.

    Drop-in compatible with the scalar engines: same constructor, same
    counters, same :class:`~repro.core.markov_chain.StepResult` per
    proposal from :meth:`step`, and — given equal seeds and draw blocks —
    the same trajectory, bit for bit.  ``step()`` is the scalar path
    inherited from the fast engine (used by the lockstep differential
    tests); ``run()`` is the vectorized hot path.

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
        registered kernel modes are vectorized: ``edge`` (compression)
        gathers its acceptance from the per-mask table, ``edge_site``
        (bridging) adds two reads of the static terrain plane, and
        ``edge_color`` (separation) splits each proposal on the lane-2
        uniform between vectorized swap and movement evaluation over the
        color plane.  A kernel whose mode is none of these raises a
        :class:`~repro.errors.ConfigurationError` naming the kernel and
        the engines that can drive it.
    """

    #: Kernel modes the vectorized pass implements; anything else must run
    #: on the scalar engines, which dispatch through kernel callbacks.
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
                f"one of the vectorized modes "
                f"{', '.join(repr(m) for m in self.SUPPORTED_KERNEL_MODES)}; "
                f"use engine='fast' or engine='reference', which evaluate "
                f"any registered kernel mode through scalar callbacks"
            )
        super().__init__(initial, lam=lam, seed=seed, draw_block=draw_block, kernel=kernel)
        self._pos = np.array(self._pos, dtype=np.int64)
        tables = move_tables_array()
        self._nb_before_arr = np.ascontiguousarray(tables[:, 0])
        self._nb_after_arr = np.ascontiguousarray(tables[:, 1])
        # One fused verdict per ring mask: 1 = five neighbors, 2 = property
        # failed, 3 = structurally legal (Metropolis still pending).  With
        # the "target occupied" code 0 this makes every proposal's verdict
        # a single table gather times the target's (negated) occupancy, and
        # the rejection tally one ``np.bincount``.
        self._class_table = np.where(
            tables[:, 0] == 5, 1, np.where(tables[:, 2] == 0, 2, 3)
        ).astype(np.int8)
        if self._mode == "edge":
            self._acceptance_arr = np.array(self._acceptance, dtype=np.float64)
        elif self._mode == "edge_site":
            # The 3x13 bridging table flattened row-major: one fused gather
            # at ``(site_delta + 1) * 13 + edge_delta + 6`` per proposal.
            self._site_rows_flat = np.array(
                self._site_rows, dtype=np.float64
            ).reshape(-1)
        else:  # edge_color
            # The 11x13 movement table flattened the same way, indexed at
            # ``(a_delta + 5) * 13 + edge_delta + 6``, plus the 21-entry
            # swap row indexed at ``swap_delta + 10``.
            self._movement_rows_flat = np.array(
                self._movement_rows, dtype=np.float64
            ).reshape(-1)
            self._swap_acceptance_arr = np.array(
                self._swap_acceptance, dtype=np.float64
            )
        self._pass_size = _MAX_PASS
        self._bind_grid()

    # ------------------------------------------------------------------ #
    # Grid-derived caches
    # ------------------------------------------------------------------ #
    def _bind_grid(self) -> None:
        """Rebuild the numpy views and scratch arrays tied to the grid window."""
        grid = self._grid
        self._cells_flat = grid.array.reshape(-1)
        self._cells_unsigned = self._cells_flat.view(np.uint8)
        self._direction_offsets_arr = np.array(grid.direction_offsets, dtype=np.int64)
        self._ring_offsets_arr = np.array(grid.ring_offsets, dtype=np.int64)
        # Per-pass scratch over the grid: a region flag marking every cell
        # whose *readers* could overlap a touched cell, and the tape
        # position of each touched cell's first toucher.  Both are restored
        # cell by cell at the end of each pass (touched cells are few), so
        # neither array is ever re-zeroed wholesale.
        size = grid.width * grid.height
        # int16: the per-flip region markers can reach the pass size.
        self._region_flag = np.zeros(size, dtype=np.int16)
        self._first_touch = np.full(size, _NEVER_TOUCHED, dtype=np.int64)
        # Every flat offset at which a proposal reads a cell relative to
        # its source (source premise, target, ring), symmetrized: a reader
        # of cell c therefore has its source in c + read_offsets, which
        # turns candidate detection into one gather over sources instead
        # of eight over rings.
        offsets = {0}
        offsets.update(grid.direction_offsets)
        for ring in grid.ring_offsets:
            offsets.update(ring)
        offsets.update(-offset for offset in tuple(offsets))
        self._read_offsets = np.array(sorted(offsets), dtype=np.int64)
        # Zero-copy views over the kernel's auxiliary byte planes: the
        # scalar fallback writes the bytearrays, the vectorized gathers read
        # these views, and both see the same buffer.  Signed int8 for the
        # site plane so ``site[target] - site[source]`` can go negative.
        if self._mode == "edge_site":
            self._site_arr = np.frombuffer(self._site_plane, dtype=np.int8)
        elif self._mode == "edge_color":
            self._color_arr = np.frombuffer(self._color_plane, dtype=np.uint8)
            # Color kernels stamp two touch planes: ``_first_touch`` holds
            # occupancy touches (movements), this one color touches
            # (movements and swaps).  Restored cell by cell like the rest.
            self._first_color_touch = np.full(size, _NEVER_TOUCHED, dtype=np.int64)
        self._tape_token: Optional[np.ndarray] = None

    def _reallocate(self) -> None:
        """Re-center the grid, remap the flat position array and rebuild the
        kernel's auxiliary planes (all vectorized).

        Mirrors :meth:`OccupancyGrid.recenter`'s buffer reuse: when the
        re-centered window keeps its dimensions — the steady-state norm —
        the occupancy and color planes are rewritten in place, only the
        origin moves, and every grid-derived cache (offset arrays, scratch
        planes, read-offset table) stays valid, so ``_bind_grid`` is
        skipped entirely.
        """
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
            if mode == "edge_site":
                # The terrain plane is a pure function of the window, and
                # the window (its origin included) just changed.
                self._site_plane = self._kernel.build_site_plane(grid)
                self._site_arr = np.frombuffer(self._site_plane, dtype=np.int8)
            self._pos = new_pos
            return
        fresh = OccupancyGrid(list(zip(xs.tolist(), ys.tolist())))
        new_pos = (ys - fresh.origin_y) * fresh.width + (xs - fresh.origin_x)
        if mode == "edge_site":
            # The terrain plane is a pure function of the grid window;
            # ``site_count`` is invariant under re-centering.
            self._site_plane = self._kernel.build_site_plane(fresh)
        elif mode == "edge_color":
            # Carry each particle's color byte across the window shift.
            old_colors = np.frombuffer(self._color_plane, dtype=np.uint8)[old_pos]
            plane = bytearray(fresh.width * fresh.height)
            np.frombuffer(plane, dtype=np.uint8)[new_pos] = old_colors
            self._color_plane = plane
        self._grid = fresh
        self._pos = new_pos
        self._bind_grid()

    # ------------------------------------------------------------------ #
    # Dynamics
    # ------------------------------------------------------------------ #
    def run(
        self, iterations: int, callback: Optional[Callable[[int, StepResult], None]] = None
    ) -> None:
        """Run the chain for a number of iterations (vectorized hot path).

        With a callback, falls back to the scalar per-step path so every
        proposal still yields a :class:`StepResult`.
        """
        if iterations < 0:
            raise ConfigurationError(f"iterations must be non-negative, got {iterations}")
        if callback is not None:
            for _ in range(iterations):
                result = self.step()
                callback(self._iterations, result)
            return

        draws = self._draws
        remaining = iterations
        while remaining > 0:
            if draws.cursor >= draws.size:
                wanted = -(-remaining // draws.block)  # ceil division
                draws.refill(blocks=min(wanted, _MAX_PREFETCH_BLOCKS))
            consumed = self._advance(
                min(draws.size - draws.cursor, remaining, self._pass_size)
            )
            draws.cursor += consumed
            remaining -= consumed
        self._iterations += iterations

    def _advance(self, limit: int) -> int:
        """Resolve one pass of up to ``limit`` proposals and return how many
        were consumed (all of them, unless a guard-band hit forces a grid
        reallocation mid-pass).  Dispatches to the kernel mode's
        specialized pass — mirroring the scalar engine's per-mode ``run``
        loops, so the default compression pass carries no kernel overhead."""
        mode = self._mode
        if mode == "edge":
            return self._advance_edge(limit)
        if mode == "edge_site":
            return self._advance_site(limit)
        return self._advance_color(limit)

    def _refresh_tape_offsets(self, draws) -> None:
        """Gather the per-proposal direction/ring offsets for the current
        tape refill.  Offsets depend only on the tape's directions and the
        grid window: gather them once per refill (or grid reallocation)
        and slice per pass."""
        if self._tape_token is not draws.directions:
            self._tape_token = draws.directions
            self._tape_direction_offsets = self._direction_offsets_arr[draws.directions]
            self._tape_ring_offsets = self._ring_offsets_arr[draws.directions]

    def _advance_edge(self, limit: int) -> int:
        """The compression (``edge``) pass: acceptance is a pure function
        of the ring mask.

        The pass evaluates every proposal against the grid snapshot in
        numpy, then commits strictly sequentially: it stamps touched
        cells, screens readers, walks accepted/conflicted events in tape
        order, tallies counters and adapts the pass size.  The sequential
        walk is what restores scalar semantics."""
        draws = self._draws
        start = draws.cursor
        stop = start + limit
        indices = draws.indices[start:stop]
        directions = draws.directions[start:stop]
        uniforms = draws.uniforms[start:stop]
        self._refresh_tape_offsets(draws)

        sources = self._pos[indices]
        targets = sources + self._tape_direction_offsets[start:stop]
        rings = sources[:, None] + self._tape_ring_offsets[start:stop]
        cells = self._cells_flat
        masks = self._cells_unsigned[rings] @ _RING_WEIGHTS
        # One verdict code per proposal: 0 = target occupied, 1 = five
        # neighbors, 2 = property failed, 3 = structurally legal.
        coded = self._class_table[masks] * (cells[targets] ^ 1)
        # Rejections dominate: resolve the edge delta and the Metropolis
        # filter only on the (typically tiny) subset that survives the
        # structural checks.
        legal_positions = np.flatnonzero(coded == 3)
        legal_masks = masks[legal_positions]
        legal_delta = self._nb_after_arr[legal_masks] - self._nb_before_arr[legal_masks]
        metropolis_ok = uniforms[legal_positions] < self._acceptance_arr[legal_delta + 6]
        accepted_positions = legal_positions[metropolis_ok]
        accepted_deltas = legal_delta[metropolis_ok]
        pos = self._pos
        consumed = limit
        repairs: List[Tuple[int, int, int]] = []  # (position, snapshot class, true class)
        resolved = 0
        reallocate = False
        if accepted_positions.size:
            accepted_list = accepted_positions.tolist()
            accepted_set = set(accepted_list)
            accepted_delta = dict(zip(accepted_list, accepted_deltas.tolist()))
            region = self._region_flag
            first_touch = self._first_touch
            # Touched cells in descending toucher order: the plain fancy
            # assignment then leaves each cell with its *earliest* toucher
            # (later writes win, and the earliest position is written last).
            descending = accepted_positions[::-1]
            touched = np.concatenate((sources[descending], targets[descending]))
            touched_at = np.concatenate((descending, descending))
            first_touch[touched] = touched_at
            flagged = [touched]
            region_cells = (touched[:, None] + self._read_offsets).reshape(-1)
            marker = 1
            region[region_cells] = marker
            region_resets = [region_cells]

            def screen(candidate_positions: np.ndarray) -> np.ndarray:
                # A candidate (a proposal whose source lies in a marked
                # region) is only a conflict if a *strictly earlier*
                # toucher overlaps the cells its verdict actually depends
                # on: source and target always (a stale source means the
                # particle itself moved; a touched target may have filled
                # or emptied), the ring only when the ring was consulted
                # at all — a target-occupied rejection stands regardless
                # of what happened around it.
                premise_earliest = np.minimum(
                    first_touch[sources[candidate_positions]],
                    first_touch[targets[candidate_positions]],
                )
                ring_earliest = first_touch[rings[candidate_positions]].min(axis=1)
                earliest = np.where(
                    coded[candidate_positions] == 0,
                    premise_earliest,
                    np.minimum(premise_earliest, ring_earliest),
                )
                return candidate_positions[earliest < candidate_positions]

            # A proposal reading any touched cell cannot blindly trust its
            # snapshot verdict; nothing at or before the first tentative
            # acceptance can be affected, so only the tail after it is
            # screened — and a reader's source necessarily lies in the
            # marked region, so one source gather finds every candidate.
            horizon = accepted_list[0] + 1
            conflict_positions = screen(
                np.flatnonzero(region[sources[horizon:]]) + horizon
            )
            conflict_set = set(conflict_positions.tolist())
            # Bulk-extract what the scalar re-resolutions will need; extras
            # discovered mid-walk fall back to scalar extraction.
            conflict_data = dict(
                zip(
                    conflict_positions.tolist(),
                    zip(
                        indices[conflict_positions].tolist(),
                        directions[conflict_positions].tolist(),
                        uniforms[conflict_positions].tolist(),
                    ),
                )
            )
            # Tentatively-accepted, conflict-free proposals commit with their
            # snapshot outcome; conflicts re-resolve scalar-wise in place.
            # The scalar re-resolution is inlined with every table bound to
            # a local — it runs a few times per pass but its cost is the
            # price of every conflict.
            events = sorted(accepted_set | conflict_set)
            grid = self._grid
            grid_cells = grid.cells
            in_guard_band = grid.in_guard_band
            direction_offsets = grid.direction_offsets
            ring_offsets = grid.ring_offsets
            nb_before_table = self._nb_before
            nb_after_table = self._nb_after
            property_table = self._property_ok
            acceptance = self._acceptance
            edge_acc = 0
            cursor = 0
            while cursor < len(events):
                position = events[cursor]
                cursor += 1
                guard_hit = False
                if position in conflict_set:
                    resolved += 1
                    code = int(coded[position])
                    if code == 3 and position in accepted_set:
                        code = 4
                    data = conflict_data.get(position)
                    if data is None:  # an extra discovered mid-walk
                        data = (
                            int(indices[position]),
                            int(directions[position]),
                            float(uniforms[position]),
                        )
                    index, direction, uniform = data
                    source = int(pos[index])
                    target = source + direction_offsets[direction]
                    if grid_cells[target]:
                        true_class = 0
                    else:
                        ring = ring_offsets[direction]
                        mask = (
                            grid_cells[source + ring[0]]
                            | grid_cells[source + ring[1]] << 1
                            | grid_cells[source + ring[2]] << 2
                            | grid_cells[source + ring[3]] << 3
                            | grid_cells[source + ring[4]] << 4
                            | grid_cells[source + ring[5]] << 5
                            | grid_cells[source + ring[6]] << 6
                            | grid_cells[source + ring[7]] << 7
                        )
                        neighbors_before = nb_before_table[mask]
                        if neighbors_before == 5:
                            true_class = 1
                        elif not property_table[mask]:
                            true_class = 2
                        else:
                            delta = nb_after_table[mask] - neighbors_before
                            if uniform >= acceptance[delta + 6]:
                                true_class = 3
                            else:
                                true_class = 4
                                grid_cells[source] = 0
                                grid_cells[target] = 1
                                pos[index] = target
                                edge_acc += delta
                                guard_hit = in_guard_band(target)
                                new_cells = [
                                    cell
                                    for cell in (source, target)
                                    if first_touch[cell] > position
                                ]
                                if new_cells:
                                    # The re-resolution touched cells the
                                    # snapshot did not predict changing this
                                    # early: stamp them, mark their reader
                                    # region with a fresh marker, and
                                    # re-screen the tail readers of just
                                    # those cells.
                                    new_array = np.array(new_cells, dtype=np.int64)
                                    first_touch[new_array] = position
                                    flagged.append(new_array)
                                    extra_region = (
                                        new_array[:, None] + self._read_offsets
                                    ).reshape(-1)
                                    marker += 1
                                    region[extra_region] = marker
                                    region_resets.append(extra_region)
                                    extra = screen(
                                        np.flatnonzero(
                                            region[sources[position + 1 :]] == marker
                                        )
                                        + position
                                        + 1
                                    ).tolist()
                                    if extra:
                                        conflict_set.update(extra)
                                        events[cursor:] = sorted(
                                            set(events[cursor:]).union(extra)
                                        )
                    if true_class != code:
                        repairs.append((position, code, true_class))
                else:
                    source = int(sources[position])
                    target = int(targets[position])
                    grid_cells[source] = 0
                    grid_cells[target] = 1
                    pos[int(indices[position])] = target
                    edge_acc += accepted_delta[position]
                    guard_hit = in_guard_band(target)
                if guard_hit:
                    consumed = position + 1
                    reallocate = True
                    break
            self._edge_count += edge_acc
            first_touch[np.concatenate(flagged)] = _NEVER_TOUCHED
            region[np.concatenate(region_resets)] = 0

        class_counts = np.bincount(coded[:consumed], minlength=4)
        accepted_count = int(np.searchsorted(accepted_positions, consumed))
        counts = [
            int(class_counts[0]),
            int(class_counts[1]),
            int(class_counts[2]),
            int(class_counts[3]) - accepted_count,
            accepted_count,
        ]
        for position, snapshot_class, true_class in repairs:
            counts[snapshot_class] -= 1
            counts[true_class] += 1
        # Feedback controller for the pass size: scalar re-resolutions are
        # the cost of optimism, and their count grows superlinearly with
        # the pass length, so back off when they exceed a small fraction of
        # the pass and creep back up when they become negligible.
        if resolved * _SHRINK_REPAIR_RATIO > consumed:
            self._pass_size = max(self._pass_size // 2, _MIN_PASS)
        elif resolved * _GROW_REPAIR_RATIO < consumed:
            self._pass_size = min(self._pass_size * 2, _MAX_PASS)
        rejections = self._rejections
        for reason, count in zip(REJECTION_REASONS, counts):
            rejections[reason] += count
        if counts[4]:
            self._accepted += counts[4]
            self._configuration_cache = None
        if reallocate:
            self._reallocate()
        return consumed

    def _advance_site(self, limit: int) -> int:
        """The ``edge_site`` (bridging) pass.

        The compression pass plus a fused gather into the flattened 3x13
        acceptance table at ``(site_delta + 1) * 13 + edge_delta + 6``.
        The terrain plane is *static* — no move changes it — so site reads
        can never be invalidated by earlier acceptances and the conflict
        cut is exactly the compression cut; the only additions are the
        site-delta term in the Metropolis gather, the same term in the
        scalar re-resolution, and the incremental ``site_count``.
        """
        draws = self._draws
        start = draws.cursor
        stop = start + limit
        indices = draws.indices[start:stop]
        directions = draws.directions[start:stop]
        uniforms = draws.uniforms[start:stop]
        self._refresh_tape_offsets(draws)

        sources = self._pos[indices]
        targets = sources + self._tape_direction_offsets[start:stop]
        rings = sources[:, None] + self._tape_ring_offsets[start:stop]
        cells = self._cells_flat
        site = self._site_arr
        masks = self._cells_unsigned[rings] @ _RING_WEIGHTS
        coded = self._class_table[masks] * (cells[targets] ^ 1)
        legal_positions = np.flatnonzero(coded == 3)
        legal_masks = masks[legal_positions]
        legal_delta = self._nb_after_arr[legal_masks] - self._nb_before_arr[legal_masks]
        site_delta = (
            site[targets[legal_positions]].astype(np.int64)
            - site[sources[legal_positions]]
        )
        metropolis_ok = uniforms[legal_positions] < self._site_rows_flat[
            (site_delta + 1) * 13 + legal_delta + 6
        ]
        accepted_positions = legal_positions[metropolis_ok]
        accepted_deltas = legal_delta[metropolis_ok]
        pos = self._pos
        consumed = limit
        repairs: List[Tuple[int, int, int]] = []
        resolved = 0
        reallocate = False
        sites_acc = 0
        if accepted_positions.size:
            accepted_list = accepted_positions.tolist()
            accepted_set = set(accepted_list)
            accepted_delta = dict(zip(accepted_list, accepted_deltas.tolist()))
            region = self._region_flag
            first_touch = self._first_touch
            descending = accepted_positions[::-1]
            touched = np.concatenate((sources[descending], targets[descending]))
            touched_at = np.concatenate((descending, descending))
            first_touch[touched] = touched_at
            flagged = [touched]
            region_cells = (touched[:, None] + self._read_offsets).reshape(-1)
            marker = 1
            region[region_cells] = marker
            region_resets = [region_cells]

            def screen(candidate_positions: np.ndarray) -> np.ndarray:
                # Identical to the compression screen: the site plane is
                # static, so the only invalidating writes are occupancy
                # writes, read at source/target always and at the ring
                # only when the structural checks consulted it.
                premise_earliest = np.minimum(
                    first_touch[sources[candidate_positions]],
                    first_touch[targets[candidate_positions]],
                )
                ring_earliest = first_touch[rings[candidate_positions]].min(axis=1)
                earliest = np.where(
                    coded[candidate_positions] == 0,
                    premise_earliest,
                    np.minimum(premise_earliest, ring_earliest),
                )
                return candidate_positions[earliest < candidate_positions]

            horizon = accepted_list[0] + 1
            conflict_positions = screen(
                np.flatnonzero(region[sources[horizon:]]) + horizon
            )
            conflict_set = set(conflict_positions.tolist())
            conflict_data = dict(
                zip(
                    conflict_positions.tolist(),
                    zip(
                        indices[conflict_positions].tolist(),
                        directions[conflict_positions].tolist(),
                        uniforms[conflict_positions].tolist(),
                    ),
                )
            )
            events = sorted(accepted_set | conflict_set)
            grid = self._grid
            grid_cells = grid.cells
            site_plane = self._site_plane
            in_guard_band = grid.in_guard_band
            direction_offsets = grid.direction_offsets
            ring_offsets = grid.ring_offsets
            nb_before_table = self._nb_before
            nb_after_table = self._nb_after
            property_table = self._property_ok
            site_rows = self._site_rows
            edge_acc = 0
            cursor = 0
            while cursor < len(events):
                position = events[cursor]
                cursor += 1
                guard_hit = False
                if position in conflict_set:
                    resolved += 1
                    code = int(coded[position])
                    if code == 3 and position in accepted_set:
                        code = 4
                    data = conflict_data.get(position)
                    if data is None:
                        data = (
                            int(indices[position]),
                            int(directions[position]),
                            float(uniforms[position]),
                        )
                    index, direction, uniform = data
                    source = int(pos[index])
                    target = source + direction_offsets[direction]
                    if grid_cells[target]:
                        true_class = 0
                    else:
                        ring = ring_offsets[direction]
                        mask = (
                            grid_cells[source + ring[0]]
                            | grid_cells[source + ring[1]] << 1
                            | grid_cells[source + ring[2]] << 2
                            | grid_cells[source + ring[3]] << 3
                            | grid_cells[source + ring[4]] << 4
                            | grid_cells[source + ring[5]] << 5
                            | grid_cells[source + ring[6]] << 6
                            | grid_cells[source + ring[7]] << 7
                        )
                        neighbors_before = nb_before_table[mask]
                        if neighbors_before == 5:
                            true_class = 1
                        elif not property_table[mask]:
                            true_class = 2
                        else:
                            delta = nb_after_table[mask] - neighbors_before
                            move_site_delta = site_plane[target] - site_plane[source]
                            if uniform >= site_rows[move_site_delta + 1][delta + 6]:
                                true_class = 3
                            else:
                                true_class = 4
                                grid_cells[source] = 0
                                grid_cells[target] = 1
                                pos[index] = target
                                edge_acc += delta
                                sites_acc += move_site_delta
                                guard_hit = in_guard_band(target)
                                new_cells = [
                                    cell
                                    for cell in (source, target)
                                    if first_touch[cell] > position
                                ]
                                if new_cells:
                                    new_array = np.array(new_cells, dtype=np.int64)
                                    first_touch[new_array] = position
                                    flagged.append(new_array)
                                    extra_region = (
                                        new_array[:, None] + self._read_offsets
                                    ).reshape(-1)
                                    marker += 1
                                    region[extra_region] = marker
                                    region_resets.append(extra_region)
                                    extra = screen(
                                        np.flatnonzero(
                                            region[sources[position + 1 :]] == marker
                                        )
                                        + position
                                        + 1
                                    ).tolist()
                                    if extra:
                                        conflict_set.update(extra)
                                        events[cursor:] = sorted(
                                            set(events[cursor:]).union(extra)
                                        )
                    if true_class != code:
                        repairs.append((position, code, true_class))
                else:
                    source = int(sources[position])
                    target = int(targets[position])
                    grid_cells[source] = 0
                    grid_cells[target] = 1
                    pos[int(indices[position])] = target
                    edge_acc += accepted_delta[position]
                    sites_acc += site_plane[target] - site_plane[source]
                    guard_hit = in_guard_band(target)
                if guard_hit:
                    consumed = position + 1
                    reallocate = True
                    break
            self._edge_count += edge_acc
            first_touch[np.concatenate(flagged)] = _NEVER_TOUCHED
            region[np.concatenate(region_resets)] = 0

        class_counts = np.bincount(coded[:consumed], minlength=4)
        accepted_count = int(np.searchsorted(accepted_positions, consumed))
        counts = [
            int(class_counts[0]),
            int(class_counts[1]),
            int(class_counts[2]),
            int(class_counts[3]) - accepted_count,
            accepted_count,
        ]
        for position, snapshot_class, true_class in repairs:
            counts[snapshot_class] -= 1
            counts[true_class] += 1
        if resolved * _SHRINK_REPAIR_RATIO > consumed:
            self._pass_size = max(self._pass_size // 2, _MIN_PASS)
        elif resolved * _GROW_REPAIR_RATIO < consumed:
            self._pass_size = min(self._pass_size * 2, _MAX_PASS)
        rejections = self._rejections
        for reason, count in zip(REJECTION_REASONS, counts):
            rejections[reason] += count
        if counts[4]:
            self._accepted += counts[4]
            self._site_count += sites_acc
            self._configuration_cache = None
        if reallocate:
            self._reallocate()
        return consumed

    def _advance_color(self, limit: int) -> int:
        """The ``edge_color`` (separation) pass.

        Each tape position first splits on its lane-2 uniform, exactly as
        the scalar engines do: below ``swap_probability`` it is a color
        swap attempt (color-plane reads only, occupancy untouched),
        otherwise a movement whose Metropolis filter gains the same-color
        neighbor delta.  Both filters are fused gathers — the flattened
        11x13 movement table at ``(a_delta + 5) * 13 + edge_delta + 6``
        and the 21-entry swap row at ``swap_delta + 10``.

        Snapshot verdicts are tracked as one outcome code per proposal
        (0-3 the movement rejection classes, 4 moved, 5-7 the swap
        rejection classes, 8 swapped) so the whole rejection tally is a
        single ``bincount`` after the conflict walk patches re-resolved
        codes in place.

        The conflict cut gains a second stamp plane: accepted movements
        touch occupancy *and* color at their source/target, accepted
        swaps touch only color.  Screening picks the stamp planes each
        outcome actually read — structural movement verdicts (codes 0-2)
        consult occupancy alone, so the swap churn that dominates mixed
        configurations cannot invalidate them; color-reading verdicts
        (legal movements and viable swaps) screen against the color
        stamps, which subsume occupancy stamps because every movement
        stamps both.
        """
        draws = self._draws
        start = draws.cursor
        stop = start + limit
        indices = draws.indices[start:stop]
        directions = draws.directions[start:stop]
        uniforms = draws.uniforms[start:stop]
        uniforms2 = draws.uniforms2[start:stop]
        self._refresh_tape_offsets(draws)

        sources = self._pos[indices]
        targets = sources + self._tape_direction_offsets[start:stop]
        rings = sources[:, None] + self._tape_ring_offsets[start:stop]
        swap_attempt = uniforms2 < self._swap_probability
        cells = self._cells_flat
        color = self._color_arr
        neighbor_offsets = self._direction_offsets_arr
        outcome = np.empty(sources.size, dtype=np.int8)

        movement_positions = np.flatnonzero(~swap_attempt)
        masks = self._cells_unsigned[rings[movement_positions]] @ _RING_WEIGHTS
        coded = self._class_table[masks] * (cells[targets[movement_positions]] ^ 1)
        outcome[movement_positions] = coded
        legal_subset = np.flatnonzero(coded == 3)
        legal_positions = movement_positions[legal_subset]
        legal_masks = masks[legal_subset]
        legal_delta = self._nb_after_arr[legal_masks] - self._nb_before_arr[legal_masks]
        legal_sources = sources[legal_positions]
        legal_targets = targets[legal_positions]
        moving_colors = color[legal_sources][:, None]
        a_before = (color[legal_sources[:, None] + neighbor_offsets] == moving_colors).sum(
            axis=1
        )
        # The mover itself is always adjacent to the target, hence the -1.
        a_after = (color[legal_targets[:, None] + neighbor_offsets] == moving_colors).sum(
            axis=1
        ) - 1
        metropolis_ok = uniforms[legal_positions] < self._movement_rows_flat[
            (a_after - a_before + 5) * 13 + legal_delta + 6
        ]
        accepted_move_positions = legal_positions[metropolis_ok]
        outcome[accepted_move_positions] = 4

        swap_positions = np.flatnonzero(swap_attempt)
        swap_sources = sources[swap_positions]
        swap_targets = targets[swap_positions]
        source_colors = color[swap_sources]
        target_colors = color[swap_targets]
        empty = target_colors == 0
        same = target_colors == source_colors
        outcome[swap_positions] = np.where(empty, 5, np.where(same, 6, 7))
        viable = np.flatnonzero(~empty & ~same)
        viable_positions = swap_positions[viable]
        viable_sources = swap_sources[viable]
        viable_targets = swap_targets[viable]
        own = source_colors[viable][:, None]
        partner = target_colors[viable][:, None]
        around_source = color[viable_sources[:, None] + neighbor_offsets]
        around_target = color[viable_targets[:, None] + neighbor_offsets]
        # after - before off the snapshot plane; the -2 cancels each
        # endpoint over-counting its partner (see FastCompressionChain.
        # _swap_delta — the elif there is equivalent because the two
        # colors are distinct).
        swap_delta = (
            (around_source == partner).sum(axis=1)
            - (around_source == own).sum(axis=1)
            + (around_target == own).sum(axis=1)
            - (around_target == partner).sum(axis=1)
            - 2
        )
        swap_ok = uniforms[viable_positions] < self._swap_acceptance_arr[swap_delta + 10]
        accepted_swap_positions = viable_positions[swap_ok]
        outcome[accepted_swap_positions] = 8
        accepted_move_deltas = legal_delta[metropolis_ok]
        pos = self._pos
        consumed = limit
        resolved = 0
        reallocate = False
        tentative = np.sort(
            np.concatenate((accepted_move_positions, accepted_swap_positions))
        )
        if tentative.size:
            accepted_move_delta = dict(
                zip(accepted_move_positions.tolist(), accepted_move_deltas.tolist())
            )
            region = self._region_flag
            # Two stamp planes: occupancy touches (movements only) and
            # color touches (movements and swaps — movements stamp both,
            # so the color plane's stamps subsume the occupancy plane's).
            first_occ = self._first_touch
            first_color = self._first_color_touch
            # Interleave each position's source and target so the reversed
            # write order is descending across *both* roles: unlike pure
            # movements, a cell can be the source of one accepted swap and
            # the target of a later one (occupied targets), and the
            # two-segment concatenation of the edge pass would then leave
            # the later stamp instead of the earliest.
            color_touched = np.empty(2 * tentative.size, dtype=np.int64)
            color_touched[0::2] = sources[tentative]
            color_touched[1::2] = targets[tentative]
            color_touched_at = np.repeat(tentative, 2)
            first_color[color_touched[::-1]] = color_touched_at[::-1]
            occ_touched = np.empty(2 * accepted_move_positions.size, dtype=np.int64)
            occ_touched[0::2] = sources[accepted_move_positions]
            occ_touched[1::2] = targets[accepted_move_positions]
            occ_touched_at = np.repeat(accepted_move_positions, 2)
            first_occ[occ_touched[::-1]] = occ_touched_at[::-1]
            flagged = [color_touched]
            region_cells = (color_touched[:, None] + self._read_offsets).reshape(-1)
            marker = 1
            region[region_cells] = marker
            region_resets = [region_cells]

            def screen(candidate_positions: np.ndarray) -> np.ndarray:
                # Pick the stamp plane(s) each snapshot verdict read:
                #   code 0          occupancy at source/target only
                #   codes 1, 2      occupancy at source/target/ring
                #   codes 3, 4      occupancy + color everywhere -> the
                #                   color stamps alone suffice (superset)
                #   codes 5, 6      color at source/target (plus the
                #                   source premise, also a color stamp)
                #   codes 7, 8      color at source/target/ring
                candidate_sources = sources[candidate_positions]
                candidate_targets = targets[candidate_positions]
                occ_premise = np.minimum(
                    first_occ[candidate_sources], first_occ[candidate_targets]
                )
                color_premise = np.minimum(
                    first_color[candidate_sources], first_color[candidate_targets]
                )
                candidate_rings = rings[candidate_positions]
                occ_ring = first_occ[candidate_rings].min(axis=1)
                color_ring = first_color[candidate_rings].min(axis=1)
                code = outcome[candidate_positions]
                earliest = np.select(
                    [code == 0, code <= 2, code <= 4, code <= 6],
                    [
                        occ_premise,
                        np.minimum(occ_premise, occ_ring),
                        np.minimum(color_premise, color_ring),
                        color_premise,
                    ],
                    default=np.minimum(color_premise, color_ring),
                )
                return candidate_positions[earliest < candidate_positions]

            horizon = int(tentative[0]) + 1
            conflict_positions = screen(
                np.flatnonzero(region[sources[horizon:]]) + horizon
            )
            conflict_set = set(conflict_positions.tolist())
            conflict_data = dict(
                zip(
                    conflict_positions.tolist(),
                    zip(
                        indices[conflict_positions].tolist(),
                        directions[conflict_positions].tolist(),
                        uniforms[conflict_positions].tolist(),
                    ),
                )
            )
            events = sorted(set(tentative.tolist()) | conflict_set)
            grid = self._grid
            grid_cells = grid.cells
            plane = self._color_plane
            in_guard_band = grid.in_guard_band
            direction_offsets = grid.direction_offsets
            ring_offsets = grid.ring_offsets
            nb_before_table = self._nb_before
            nb_after_table = self._nb_after
            property_table = self._property_ok
            movement_rows = self._movement_rows
            swap_acceptance = self._swap_acceptance
            swap_attempt_list = swap_attempt
            edge_acc = 0
            cursor = 0
            while cursor < len(events):
                position = events[cursor]
                cursor += 1
                guard_hit = False
                if position in conflict_set:
                    resolved += 1
                    data = conflict_data.get(position)
                    if data is None:
                        data = (
                            int(indices[position]),
                            int(directions[position]),
                            float(uniforms[position]),
                        )
                    index, direction, uniform = data
                    source = int(pos[index])
                    target = source + direction_offsets[direction]
                    occ_changed: Tuple[int, ...] = ()
                    color_changed: Tuple[int, ...] = ()
                    if swap_attempt_list[position]:
                        target_color = plane[target]
                        if not target_color:
                            true_class = 5
                        else:
                            source_color = plane[source]
                            if source_color == target_color:
                                true_class = 6
                            else:
                                before = 0
                                after = -2
                                for offset in direction_offsets:
                                    around_s = plane[source + offset]
                                    around_t = plane[target + offset]
                                    if around_s == source_color:
                                        before += 1
                                    elif around_s == target_color:
                                        after += 1
                                    if around_t == target_color:
                                        before += 1
                                    elif around_t == source_color:
                                        after += 1
                                if uniform >= swap_acceptance[after - before + 10]:
                                    true_class = 7
                                else:
                                    true_class = 8
                                    plane[source] = target_color
                                    plane[target] = source_color
                                    color_changed = (source, target)
                    elif grid_cells[target]:
                        true_class = 0
                    else:
                        ring = ring_offsets[direction]
                        mask = (
                            grid_cells[source + ring[0]]
                            | grid_cells[source + ring[1]] << 1
                            | grid_cells[source + ring[2]] << 2
                            | grid_cells[source + ring[3]] << 3
                            | grid_cells[source + ring[4]] << 4
                            | grid_cells[source + ring[5]] << 5
                            | grid_cells[source + ring[6]] << 6
                            | grid_cells[source + ring[7]] << 7
                        )
                        neighbors_before = nb_before_table[mask]
                        if neighbors_before == 5:
                            true_class = 1
                        elif not property_table[mask]:
                            true_class = 2
                        else:
                            delta = nb_after_table[mask] - neighbors_before
                            mover = plane[source]
                            count_before = 0
                            count_after = -1
                            for offset in direction_offsets:
                                if plane[source + offset] == mover:
                                    count_before += 1
                                if plane[target + offset] == mover:
                                    count_after += 1
                            if uniform >= movement_rows[count_after - count_before + 5][
                                delta + 6
                            ]:
                                true_class = 3
                            else:
                                true_class = 4
                                grid_cells[source] = 0
                                grid_cells[target] = 1
                                plane[target] = mover
                                plane[source] = 0
                                pos[index] = target
                                edge_acc += delta
                                guard_hit = in_guard_band(target)
                                occ_changed = (source, target)
                                color_changed = (source, target)
                    outcome[position] = true_class
                    new_cells = []
                    for cell in color_changed:
                        fresh_touch = False
                        if first_color[cell] > position:
                            first_color[cell] = position
                            fresh_touch = True
                        if occ_changed and first_occ[cell] > position:
                            first_occ[cell] = position
                            fresh_touch = True
                        if fresh_touch:
                            new_cells.append(cell)
                    if new_cells:
                        # A re-resolution changed cells the snapshot did
                        # not predict changing this early: stamp them and
                        # re-screen the tail readers of just those cells.
                        new_array = np.array(new_cells, dtype=np.int64)
                        flagged.append(new_array)
                        extra_region = (
                            new_array[:, None] + self._read_offsets
                        ).reshape(-1)
                        marker += 1
                        region[extra_region] = marker
                        region_resets.append(extra_region)
                        extra = screen(
                            np.flatnonzero(region[sources[position + 1 :]] == marker)
                            + position
                            + 1
                        ).tolist()
                        if extra:
                            conflict_set.update(extra)
                            events[cursor:] = sorted(set(events[cursor:]).union(extra))
                else:
                    source = int(sources[position])
                    target = int(targets[position])
                    if outcome[position] == 8:
                        source_color = plane[source]
                        plane[source] = plane[target]
                        plane[target] = source_color
                    else:
                        grid_cells[source] = 0
                        grid_cells[target] = 1
                        plane[target] = plane[source]
                        plane[source] = 0
                        pos[int(indices[position])] = target
                        edge_acc += accepted_move_delta[position]
                        guard_hit = in_guard_band(target)
                if guard_hit:
                    consumed = position + 1
                    reallocate = True
                    break
            self._edge_count += edge_acc
            reset_cells = np.concatenate(flagged)
            first_occ[reset_cells] = _NEVER_TOUCHED
            first_color[reset_cells] = _NEVER_TOUCHED
            region[np.concatenate(region_resets)] = 0

        counts = np.bincount(outcome[:consumed], minlength=9)
        if resolved * _SHRINK_REPAIR_RATIO > consumed:
            self._pass_size = max(self._pass_size // 2, _MIN_PASS)
        elif resolved * _GROW_REPAIR_RATIO < consumed:
            self._pass_size = min(self._pass_size * 2, _MAX_PASS)
        rejections = self._rejections
        rejections["target_occupied"] += int(counts[0])
        rejections["five_neighbors"] += int(counts[1])
        rejections["property_failed"] += int(counts[2])
        rejections["metropolis_rejected"] += int(counts[3])
        rejections["swap_target_empty"] += int(counts[5])
        rejections["swap_same_color"] += int(counts[6])
        rejections["swap_rejected"] += int(counts[7])
        if counts[4]:
            self._accepted += int(counts[4])
            self._configuration_cache = None
        if counts[8]:
            self._accepted_swaps += int(counts[8])
        if reallocate:
            self._reallocate()
        return consumed
