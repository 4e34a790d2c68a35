"""Asynchronous activation scheduling with Poisson clocks.

Section 3.2 of the paper assumes each particle carries its own Poisson
clock: after completing an activation it draws an exponentially
distributed delay until its next activation.  Memorylessness makes every
particle equally likely to be the next one activated (when all rates are
equal), which is exactly the uniform selection Step 1 of Algorithm M
needs; the paper also notes that unequal constant rates change nothing
essential, which the ``rates`` parameter lets experiments verify.

**The batched race formulation.**  Rather than simulating every clock
with an event heap, the scheduler uses the classical superposition
property of Poisson processes: in a race of independent clocks with rates
``r_1..r_n``, the identity of the next event is categorical with
``P(i) = r_i / sum(r)`` — independent of everything that happened before —
and the waiting time is exponential with rate ``sum(r)``.  Both pieces
can therefore be pre-generated in blocks, exactly like the chain engines'
:class:`repro.rng.BatchedMoveDraws` tape: a refill draws one
``block``-sized winner batch (uniform integers when the alive rates are
all equal, uniforms mapped through a ``searchsorted`` over the
cumulative alive rates otherwise) followed by ``block`` standard
exponentials, turned into absolute activation times by one cumulative
sum.  Consumption is one ``(winner, time)`` pair per activation, so the tape position is a pure function of the activation
count and every consumer of the scheduler — the object simulator and the
table-driven :class:`~repro.amoebot.fast_system.FastAmoebotSystem` alike
— sees bit-identical activation sequences for equal seeds.

Crashing (:meth:`pause`) or resuming a particle changes the race
weights, so both operations discard the unread remainder of the current
block and rebuild the distribution; the discard itself is deterministic,
which keeps seeded runs with fault injection reproducible.

The scheduler also tracks *asynchronous rounds*: a round completes once
every non-paused particle has been activated at least once since the
previous round boundary (Section 2.1).  Bookkeeping is a per-particle
pending flag plus one remaining-count integer — O(1) per activation, with
the O(n) flag reset amortized over the >= n activations every round
contains — instead of the per-round hash set the event-heap version
maintained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import SchedulerError
from repro.rng import DEFAULT_ACTIVATION_BLOCK, RandomState, make_rng


@dataclass(frozen=True)
class Activation:
    """A single particle activation event.

    Attributes
    ----------
    time:
        Continuous activation time (sum of exponential delays).
    particle_id:
        Which particle was activated.
    round_index:
        The asynchronous round this activation belongs to (0-based).
    """

    time: float
    particle_id: int
    round_index: int


class PoissonScheduler:
    """Batched activation sampling from the Poisson-clock race.

    Parameters
    ----------
    particle_ids:
        Identifiers of the particles to schedule.
    rates:
        Optional mapping of particle id to Poisson rate (mean activations
        per unit time).  Defaults to rate 1 for every particle.
    seed:
        Seed or generator for reproducibility.
    draw_block:
        Number of ``(winner, time)`` pairs pre-generated per batch.  Both
        amoebot engines must use the same value for their activation
        sequences to agree (the differential harness runs them at the
        shared default).
    """

    def __init__(
        self,
        particle_ids: Sequence[int],
        rates: Optional[Dict[int, float]] = None,
        seed: RandomState = None,
        draw_block: int = DEFAULT_ACTIVATION_BLOCK,
    ) -> None:
        if not particle_ids:
            raise SchedulerError("cannot schedule an empty particle system")
        if draw_block <= 0:
            raise SchedulerError(f"draw_block must be positive, got {draw_block}")
        self._rng = make_rng(seed)
        self._block = draw_block
        self._ids: List[int] = list(particle_ids)
        self._slot_of: Dict[int, int] = {pid: k for k, pid in enumerate(self._ids)}
        if len(self._slot_of) != len(self._ids):
            raise SchedulerError("particle ids must be unique")
        self._rates: List[float] = []
        for particle_id in self._ids:
            rate = 1.0 if rates is None else float(rates.get(particle_id, 1.0))
            if rate <= 0:
                raise SchedulerError(f"particle {particle_id} has non-positive rate {rate}")
            self._rates.append(rate)
        n = len(self._ids)
        self._alive: List[bool] = [True] * n
        self._alive_count = n
        self._time = 0.0
        self._activation_count = 0
        self._round_index = 0
        self._pending: List[bool] = [True] * n
        self._pending_remaining = n
        # Block state: slot-indexed winners plus the precomputed absolute
        # activation times (cumulative sums of the race's exponential gaps).
        self._winners: List[int] = []
        self._times: List[float] = []
        self._cursor = 0
        self._rebuild_distribution()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def time(self) -> float:
        """The time of the most recently returned activation."""
        return self._time

    @property
    def activations(self) -> int:
        """Total number of activations delivered so far."""
        return self._activation_count

    @property
    def rounds_completed(self) -> int:
        """Number of fully completed asynchronous rounds."""
        return self._round_index

    # ------------------------------------------------------------------ #
    # Control
    # ------------------------------------------------------------------ #
    def pause(self, particle_id: int) -> None:
        """Stop delivering activations for a particle (used for crash faults)."""
        slot = self._slot(particle_id)
        if not self._alive[slot]:
            return
        self._alive[slot] = False
        self._alive_count -= 1
        if self._pending[slot]:
            self._pending[slot] = False
            self._pending_remaining -= 1
            if self._pending_remaining == 0:
                self._close_round()
        self._rebuild_distribution()

    def resume(self, particle_id: int) -> None:
        """Resume delivering activations for a previously paused particle.

        Like the event-queue formulation, a particle resumed mid-round
        only joins the pending set at the next round boundary.
        """
        slot = self._slot(particle_id)
        if self._alive[slot]:
            return
        self._alive[slot] = True
        self._alive_count += 1
        if self._pending_remaining == 0:
            # The round cycle stalled while every particle was paused (the
            # closing reset found no alive particles to re-arm); restart it
            # so rounds_completed advances again.
            self._reset_pending()
            self._pending_remaining = self._alive_count
        self._rebuild_distribution()

    def next(self) -> Activation:
        """Deliver the next activation, advancing time and round bookkeeping."""
        if self._alive_count == 0:
            raise SchedulerError("all particles are paused; no activations available")
        cursor = self._cursor
        if cursor >= len(self._winners):
            self._refill()
            cursor = 0
        slot = self._winners[cursor]
        self._time = self._times[cursor]
        self._cursor = cursor + 1
        self._activation_count += 1
        round_index = self._round_index
        if self._pending[slot]:
            self._pending[slot] = False
            self._pending_remaining -= 1
            if self._pending_remaining == 0:
                self._close_round()
        return Activation(
            time=self._time, particle_id=self._ids[slot], round_index=round_index
        )

    # ------------------------------------------------------------------ #
    # Internals (read directly by the fast engine's hot loop)
    # ------------------------------------------------------------------ #
    def _slot(self, particle_id: int) -> int:
        try:
            return self._slot_of[particle_id]
        except KeyError:
            raise SchedulerError(f"unknown particle {particle_id}") from None

    def _rebuild_distribution(self) -> None:
        """Recompute the race distribution over alive particles; drop the block."""
        alive_slots = [slot for slot, alive in enumerate(self._alive) if alive]
        self._alive_slots = np.array(alive_slots, dtype=np.int64)
        if alive_slots:
            alive_rates = [self._rates[slot] for slot in alive_slots]
            self._uniform_alive = min(alive_rates) == max(alive_rates)
            weights = np.array(alive_rates, dtype=np.float64)
            self._cum = np.cumsum(weights)
            self._total_rate = float(self._cum[-1])
        else:
            self._uniform_alive = True
            self._cum = np.empty(0, dtype=np.float64)
            self._total_rate = 0.0
        self._winners = []
        self._times = []
        self._cursor = 0

    def _refill(self) -> None:
        """Materialize the next block of ``(winner, time)`` pairs.

        The generator is consumed in a canonical order — one ``block``-sized
        winner draw (uniform integers when the alive rates are all equal,
        uniforms mapped through the cumulative rates otherwise) followed by
        ``block`` standard exponentials — so any two consumers with equal
        seeds, rates and block sizes replay the same stream.  Absolute
        activation times are precomputed as one cumulative sum per block,
        which makes the delivered time sequence identical however the block
        is consumed (``next()`` calls or the fast engine's span loop).
        """
        alive = len(self._alive_slots)
        if self._uniform_alive:
            raw = self._rng.integers(0, alive, size=self._block)
            if alive == len(self._alive):
                self._winners = raw.tolist()
            else:
                self._winners = self._alive_slots[raw].tolist()
        else:
            uniforms = self._rng.random(self._block)
            positions = np.searchsorted(
                self._cum, uniforms * self._total_rate, side="right"
            )
            self._winners = self._alive_slots[positions].tolist()
        exponentials = self._rng.standard_exponential(self._block)
        self._times = (self._time + np.cumsum(exponentials) / self._total_rate).tolist()
        self._cursor = 0

    def _reset_pending(self) -> None:
        """Re-arm the pending flags of every alive particle (round boundary)."""
        alive = self._alive
        pending = self._pending
        for slot in range(len(pending)):
            pending[slot] = alive[slot]

    def _close_round(self) -> None:
        self._round_index += 1
        self._reset_pending()
        self._pending_remaining = self._alive_count
