"""The table-driven production engine for the distributed amoebot runtime.

:class:`FastAmoebotSystem` executes exactly the dynamics of
:class:`~repro.amoebot.system.AmoebotSystem` — Algorithm A delivered by
asynchronous Poisson activations, crash and Byzantine faults included —
but replaces the per-activation object graph (``Particle`` records,
``NeighborhoodView`` frozensets, literal property checks) with flat array
state and the chain engines' 256-entry move tables:

* **Array state.**  Particle kinematics live in flat lists indexed by
  particle id: tail and head as flat indices into the shared
  :class:`~repro.core.fast_chain.OccupancyGrid`, the tail-to-head
  direction, the flag bit, and the fault markers.  Three byte planes over
  the grid window answer every neighborhood question in O(1): ``occ``
  (any occupancy — the grid's own cells), ``eff`` (the ``N*``-effective
  occupancy of Algorithm A: occupied cells that are *not* heads of
  expanded particles, i.e. exactly the tail configuration of the other
  particles) and ``expn`` (cells belonging to currently expanded
  particles, the "is some neighbor mid-move?" plane).
* **Move tables.**  The expanded step of Algorithm A evaluates its
  neighbor counts and Property 1/2 over the eight-node ring around the
  tail-head edge — the same ring, in the same canonical order, as an
  Algorithm M move edge.  Packing the ``eff`` plane's ring bits into an
  8-bit mask resolves the whole step with three lookups into
  :func:`repro.core.moves.move_tables` — the shared source of truth
  generated from the reference property implementation.
* **Batched randomness.**  Activations come from the batched
  Poisson-race :class:`~repro.amoebot.scheduler.PoissonScheduler` and
  decisions consume one ``(direction, uniform)`` pair per activation
  from the shared :class:`repro.rng.BatchedActivationDraws` tape.  Both
  engines consume both tapes identically, so equal seeds (and equal
  ``draw_block``) give bit-identical activation sequences, actions, and
  configurations — the contract enforced by
  ``tests/amoebot/test_fast_system_equivalence.py`` and the committed
  golden trace.
* **Incremental metrics.**  The tail configuration's edge count is
  maintained by adding each completed move's table delta, so
  :meth:`perimeter` is O(1) via ``p = 3n - 3 - e`` once hole-free
  (exact cached recomputation while holes remain, as in the fast chain).

:meth:`~FastAmoebotSystem.step` delivers one activation through the same
loop as :meth:`~FastAmoebotSystem.run`, so Algorithm A has one copy in
this module.  Use the object simulator to audit individual activations
or subclass particle behaviour; use this engine for fault/Byzantine
experiments at the chain engines' n=10k-100k scales.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.amoebot.local_algorithm import (
    Action,
    ContractBack,
    ContractForward,
    Expand,
    Idle,
)
from repro.amoebot.scheduler import PoissonScheduler
from repro.amoebot.system import SystemStats
from repro.constants import FORBIDDEN_NEIGHBOR_COUNT
from repro.core.fast_chain import GUARD_BAND, OccupancyGrid, occupy, start_invariants
from repro.core.kernels import CompressionKernel
from repro.core.moves import move_tables
from repro.errors import ConfigurationError, SchedulerError
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.geometry import max_perimeter, min_perimeter
from repro.lattice.triangular import Node
from repro.rng import (
    DEFAULT_ACTIVATION_BLOCK,
    BatchedActivationDraws,
    RandomState,
    make_rng,
)


class FastAmoebotSystem:
    """Algorithm A on flat arrays with table-driven moves and batched draws.

    Drop-in compatible with :class:`~repro.amoebot.system.AmoebotSystem`
    for the compression local algorithm: same constructor signature, same
    counters, same observation API, same per-activation
    :class:`~repro.amoebot.local_algorithm.Action` from :meth:`step`,
    and — for equal seeds and draw blocks — the same trajectory, bit for
    bit.

    Parameters
    ----------
    initial:
        The initial (connected) configuration; every particle starts
        contracted.
    lam:
        Compression bias parameter.
    seed:
        Seed or generator for reproducibility.
    rates:
        Optional per-particle Poisson rates keyed by particle identifier
        (identifiers are assigned in sorted node order, starting at 0).
    draw_block:
        Block size of the batched randomness tapes; must match the engine
        being compared against in differential tests.
    """

    def __init__(
        self,
        initial: ParticleConfiguration,
        lam: float,
        seed: RandomState = None,
        rates: Optional[Dict[int, float]] = None,
        draw_block: int = DEFAULT_ACTIVATION_BLOCK,
    ) -> None:
        # Identifiers follow sorted node order, as in the reference simulator.
        self.grid, tails = occupy(initial)
        edges, connected, hole_free = start_invariants(initial, self.grid, tails)
        if not connected:
            raise ConfigurationError("the initial configuration must be connected")
        self.lam = float(lam)
        if self.lam <= 0:
            raise ConfigurationError(f"lambda must be positive, got {lam}")
        self._rng = make_rng(seed)
        self.n = len(tails)
        self._tail: List[int] = tails.tolist()
        self._head: List[int] = [-1] * self.n
        # One state code per particle: -2 Byzantine (kinematics frozen),
        # -1 contracted, 0..5 expanded with that tail-to-head direction.
        self._state: List[int] = [-1] * self.n
        self._flag: List[bool] = [False] * self.n
        self._crashed: List[bool] = [False] * self.n
        self._byzantine: List[bool] = [False] * self.n
        # Every particle starts contracted: the effective plane is the
        # occupancy plane, and no cell belongs to an expanded particle.
        self._eff = bytearray(self.grid.cells)
        self._expn = bytearray(len(self.grid.cells))
        self.scheduler = PoissonScheduler(
            list(range(self.n)), rates=rates, seed=self._rng, draw_block=draw_block
        )
        self._draws = BatchedActivationDraws(self._rng, block=draw_block)
        self.stats = SystemStats()
        self._pmin = min_perimeter(self.n)
        self._pmax = max_perimeter(self.n)
        # The table the reference rule reads, so both see equal floats.
        self._acceptance = CompressionKernel(self.lam).acceptance_list()
        self._nb_before, self._nb_after, self._property_ok = move_tables()
        self._edge_count = edges
        self._hole_free = hole_free
        self._configuration_cache: Optional[ParticleConfiguration] = initial
        self._occupied_cache: Optional[frozenset[Node]] = frozenset(initial.nodes)

    # ------------------------------------------------------------------ #
    # Observation (mirrors the reference simulator)
    # ------------------------------------------------------------------ #
    @property
    def configuration(self) -> ParticleConfiguration:
        """The current configuration: tail locations only (Section 2.2)."""
        if self._configuration_cache is None:
            grid = self.grid
            self._configuration_cache = ParticleConfiguration(
                grid.node_at(flat) for flat in self._tail
            )
        return self._configuration_cache

    @property
    def particle_ids(self) -> List[int]:
        """All particle identifiers, sorted."""
        return list(range(self.n))

    def occupied_nodes(self) -> frozenset[Node]:
        """All nodes currently occupied (heads and tails)."""
        if self._occupied_cache is None:
            grid = self.grid
            nodes = [grid.node_at(flat) for flat in self._tail]
            nodes.extend(grid.node_at(flat) for flat in self._head if flat >= 0)
            self._occupied_cache = frozenset(nodes)
        return self._occupied_cache

    def perimeter(self) -> int:
        """The perimeter of the tail configuration.

        O(1) via ``p = 3n - 3 - e`` once the tail configuration is
        hole-free (completed moves satisfy Property 1/2, which cannot
        create holes from there); exact cached recomputation while holes
        remain.
        """
        if not self._hole_free:
            configuration = self.configuration
            if configuration.holes:
                return configuration.perimeter
            self._hole_free = True
        return 3 * self.n - 3 - self._edge_count

    def compression_ratio(self) -> float:
        """``p(sigma) / pmin(n)`` for the current tail configuration."""
        if self._pmin == 0:
            return 1.0
        return self.perimeter() / self._pmin

    def expanded_particles(self) -> List[int]:
        """Identifiers of currently expanded particles."""
        return [i for i in range(self.n) if self._head[i] >= 0]

    def tails(self) -> List[Node]:
        """Tail node per particle, in identifier order (differential harness probe)."""
        grid = self.grid
        return [grid.node_at(flat) for flat in self._tail]

    def heads(self) -> List[Optional[Node]]:
        """Head node (or ``None``) per particle, in identifier order."""
        grid = self.grid
        return [grid.node_at(flat) if flat >= 0 else None for flat in self._head]

    def flags(self) -> List[bool]:
        """Flag bit per particle, in identifier order."""
        return [bool(f) for f in self._flag]

    def is_crashed(self, particle_id: int) -> bool:
        """Whether the particle has suffered a crash fault."""
        return self._crashed[particle_id]

    def is_byzantine(self, particle_id: int) -> bool:
        """Whether the particle is marked Byzantine."""
        return self._byzantine[particle_id]

    # ------------------------------------------------------------------ #
    # Dynamics
    # ------------------------------------------------------------------ #
    def step(self) -> Action:
        """Deliver one activation and apply its action (lockstep-test path).

        One pass of :meth:`run`'s own loop, :meth:`_run_core`, so
        Algorithm A has one copy here: the action is read off the
        counter that pass moved, an expansion's target off the grid after
        any reallocation it triggered.  Throughput-sensitive callers use
        :meth:`run`.
        """
        stats = self.stats
        before = (stats.expansions, stats.completed_moves, stats.aborted_moves)
        self._run_core(budget=1, stop_round=None)
        if stats.expansions != before[0]:
            i = self.scheduler._winners[self.scheduler._cursor - 1]
            return Expand(target=self.grid.node_at(self._head[i]))
        if stats.completed_moves != before[1]:
            return ContractForward()
        if stats.aborted_moves != before[2]:
            return ContractBack()
        return Idle()

    def run(self, activations: int) -> None:
        """Deliver a fixed number of activations (the engine's hot path)."""
        if activations < 0:
            raise ConfigurationError("activations must be non-negative")
        self._run_core(budget=activations, stop_round=None)

    def run_rounds(self, rounds: int) -> None:
        """Run until the given number of additional asynchronous rounds completes."""
        if rounds < 0:
            raise ConfigurationError("rounds must be non-negative")
        target = self.scheduler.rounds_completed + rounds
        self._run_core(budget=None, stop_round=target)

    # ------------------------------------------------------------------ #
    # Fault injection hooks (see repro.amoebot.faults)
    # ------------------------------------------------------------------ #
    def crash(self, particle_id: int) -> None:
        """Crash a particle: it stops responding to activations forever.

        An expanded particle is contracted back to its tail first (same
        bookkeeping as the reference simulator, aborted-move count
        included) so the occupancy planes stay consistent; thereafter it
        acts as a fixed obstacle.
        """
        if self._head[particle_id] >= 0:
            t = self._tail[particle_id]
            h = self._head[particle_id]
            self.grid.cells[h] = 0
            self._expn[h] = 0
            self._expn[t] = 0
            self._head[particle_id] = -1
            if self._state[particle_id] >= 0:
                self._state[particle_id] = -1
            self._flag[particle_id] = False
            self.stats.aborted_moves += 1
            self._occupied_cache = None
        self._crashed[particle_id] = True
        self.scheduler.pause(particle_id)

    def mark_byzantine(self, particle_id: int) -> None:
        """Mark a particle as Byzantine: it stalls and poisons its flag."""
        self._byzantine[particle_id] = True
        self._state[particle_id] = -2

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _run_core(self, budget: Optional[int], stop_round: Optional[int]) -> None:
        """Deliver activations until the budget or the round target is reached.

        The one Python copy of Algorithm A: :meth:`run`,
        :meth:`run_rounds` and :meth:`step` (``budget=1``) all go through
        it.  One loop over the prefetched scheduler and pair blocks with
        all state bound to locals; counters are flushed back to the
        instance and the scheduler at block boundaries, so interleaving
        the three consumes the shared tapes exactly like the reference
        simulator does.  Round
        bookkeeping runs after the activation's action is applied — state
        evolution is unaffected by the ordering, and it lets the loop stop
        exactly on the activation that completes the target round, like
        the reference ``run_rounds`` loop does.
        """
        scheduler = self.scheduler
        draws = self._draws
        nb_before_table = self._nb_before
        nb_after_table = self._nb_after
        property_table = self._property_ok
        acceptance = self._acceptance
        tail = self._tail
        head = self._head
        state = self._state
        flag = self._flag
        pending = scheduler._pending
        forbidden = FORBIDDEN_NEIGHBOR_COUNT
        grid = self.grid
        occ = grid.cells
        eff = self._eff
        expn = self._expn
        doff = grid.direction_offsets
        rings = grid.ring_offsets
        o0, o1, o2, o3, o4, o5 = doff
        width, band = grid.width, GUARD_BAND
        row_lo = band * width
        row_hi = (grid.height - band) * width
        col_hi = width - band

        pending_remaining = scheduler._pending_remaining
        round_index = scheduler._round_index
        edges = self._edge_count
        expansions = completed = aborted = 0
        delivered = 0

        while True:
            if budget is not None and delivered >= budget:
                break
            if stop_round is not None and round_index >= stop_round:
                break
            if scheduler._alive_count == 0:
                raise SchedulerError("all particles are paused; no activations available")
            # Refill order matches the reference path: scheduler race
            # first, then the (direction, uniform) pair tape.
            if scheduler._cursor >= len(scheduler._winners):
                scheduler._refill()
            if draws.cursor >= draws.size:
                draws.refill()
            directions, uniforms = draws.lists()
            scursor = scheduler._cursor
            pcursor = draws.cursor
            span = min(len(scheduler._winners) - scursor, draws.size - pcursor)
            if budget is not None:
                span = min(span, budget - delivered)
            winners = scheduler._winners[scursor : scursor + span]
            span_directions = directions[pcursor : pcursor + span]
            span_uniforms = uniforms[pcursor : pcursor + span]
            consumed = span
            hit_guard = False
            for k in range(span):
                i = winners[k]
                code = state[i]
                if code == -1:
                    # Idle activations leave no trace beyond the derived
                    # counter (idle = delivered - the three move counters),
                    # so the two rejection branches fall through silently.
                    t = tail[i]
                    target = t + doff[span_directions[k]]
                    if not occ[target] and not (
                        expn[t + o0]
                        or expn[t + o1]
                        or expn[t + o2]
                        or expn[t + o3]
                        or expn[t + o4]
                        or expn[t + o5]
                    ):
                        d = span_directions[k]
                        head[i] = target
                        state[i] = d
                        occ[target] = 1
                        expn[t] = 1
                        expn[target] = 1
                        # Ring cells 0-4 are the tail's other neighbors,
                        # just verified expansion-free; only the three
                        # target-side cells can still hold an expanded
                        # neighbor (Steps 5-7 of Algorithm A).
                        ring = rings[d]
                        flag[i] = not (
                            expn[t + ring[5]]
                            or expn[t + ring[6]]
                            or expn[t + ring[7]]
                        )
                        expansions += 1
                        # Inlined grid.in_guard_band(target): row check
                        # first (pure comparisons), column check only for
                        # row-interior cells.
                        if (
                            target < row_lo
                            or target >= row_hi
                            or (x := target % width) < band
                            or x >= col_hi
                        ):
                            if pending[i]:
                                pending[i] = False
                                pending_remaining -= 1
                                if pending_remaining == 0:
                                    round_index += 1
                                    scheduler._reset_pending()
                                    pending_remaining = scheduler._alive_count
                            consumed = k + 1
                            hit_guard = True
                            break
                elif code >= 0:
                    t = tail[i]
                    h = head[i]
                    moved = False
                    # Every failed condition contracts back, so the cheap
                    # flag check can short-circuit the mask build (the
                    # rejection *reason* is not tracked at this layer).
                    if flag[i]:
                        ring = rings[code]
                        mask = (
                            eff[t + ring[0]]
                            | eff[t + ring[1]] << 1
                            | eff[t + ring[2]] << 2
                            | eff[t + ring[3]] << 3
                            | eff[t + ring[4]] << 4
                            | eff[t + ring[5]] << 5
                            | eff[t + ring[6]] << 6
                            | eff[t + ring[7]] << 7
                        )
                        neighbors_at_tail = nb_before_table[mask]
                        if neighbors_at_tail != forbidden and property_table[mask]:
                            delta = nb_after_table[mask] - neighbors_at_tail
                            if span_uniforms[k] < acceptance[delta + 6]:
                                occ[t] = 0
                                eff[t] = 0
                                expn[t] = 0
                                expn[h] = 0
                                eff[h] = 1
                                tail[i] = h
                                head[i] = -1
                                state[i] = -1
                                flag[i] = False
                                edges += delta
                                completed += 1
                                moved = True
                    if not moved:
                        occ[h] = 0
                        expn[h] = 0
                        expn[t] = 0
                        head[i] = -1
                        state[i] = -1
                        flag[i] = False
                        aborted += 1
                else:
                    flag[i] = False
                if pending[i]:
                    pending[i] = False
                    pending_remaining -= 1
                    if pending_remaining == 0:
                        round_index += 1
                        scheduler._reset_pending()
                        pending_remaining = scheduler._alive_count
                        if stop_round is not None and round_index >= stop_round:
                            consumed = k + 1
                            break

            scheduler._cursor = scursor + consumed
            draws.cursor = pcursor + consumed
            scheduler._activation_count += consumed
            scheduler._pending_remaining = pending_remaining
            scheduler._round_index = round_index
            scheduler._time = scheduler._times[scursor + consumed - 1]
            delivered += consumed
            if hit_guard:
                self._reallocate()
                # Rebind everything derived from the reallocated grid (the
                # flat position lists are fresh objects after remapping).
                grid = self.grid
                occ = grid.cells
                eff = self._eff
                expn = self._expn
                doff = grid.direction_offsets
                rings = grid.ring_offsets
                o0, o1, o2, o3, o4, o5 = doff
                width, band = grid.width, GUARD_BAND
                row_lo = band * width
                row_hi = (grid.height - band) * width
                col_hi = width - band
                tail = self._tail
                head = self._head

        self._flush_counters(expansions, completed, aborted, edges, delivered)

    def _flush_counters(
        self,
        expansions: int,
        completed: int,
        aborted: int,
        edges: int,
        delivered: int,
    ) -> None:
        stats = self.stats
        stats.activations += delivered
        stats.expansions += expansions
        stats.completed_moves += completed
        stats.aborted_moves += aborted
        # Every activation is exactly one of expansion / completed move /
        # aborted move / idle, so the idle count is derived, not tracked.
        stats.idle_activations += delivered - expansions - completed - aborted
        self._edge_count = edges
        if expansions or completed or aborted:
            self._occupied_cache = None
        if completed:
            self._configuration_cache = None

    def _reallocate(self) -> None:
        """Re-center the grid and rebuild the flat indices and byte planes."""
        tail = np.array(self._tail, dtype=np.int64)
        head = np.array(self._head, dtype=np.int64)
        expanded = head >= 0
        # Every occupied cell: the tails, then the heads of expanded particles.
        xs, ys = self.grid.coordinates(np.concatenate((tail, head[expanded])))
        self.grid = OccupancyGrid.from_coordinates(xs, ys)
        flats = self.grid.flat_indices(xs, ys)
        tail = flats[: self.n]
        head[expanded] = flats[self.n :]
        eff = np.zeros(len(self.grid.cells), dtype=np.uint8)
        expn = np.zeros_like(eff)
        eff[tail] = 1
        expn[tail[expanded]] = 1
        expn[head[expanded]] = 1
        self._tail = tail.tolist()
        self._head = head.tolist()
        self._eff = bytearray(eff)
        self._expn = bytearray(expn)
