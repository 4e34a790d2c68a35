"""Deterministic random number handling.

Every stochastic component of the library accepts either ``None`` (fresh
entropy), an integer seed, or an existing :class:`numpy.random.Generator`.
This module centralizes the conversion so behaviour is reproducible and
uniform across the code base.

It also defines the *batched draw protocol* shared by the two Algorithm
M engines (:class:`~repro.core.markov_chain.CompressionMarkovChain` and
:class:`~repro.core.fast_chain.FastCompressionChain`): per chain
iteration every engine consumes exactly one ``(particle index, direction,
uniform)`` triple from a :class:`BatchedMoveDraws` tape, pre-generated in
fixed-size blocks.  Because consumption is one triple per iteration
regardless of how the proposal is resolved, engines seeded identically
and using the same block size see bit-identical randomness — which is
what makes the differential-testing harness able to demand identical
trajectories.  The tape is stored as numpy arrays (read in place by the
fast engine's compiled loops) with a memoized plain-list view for the
Python loops.

Both tapes are filled in C when the compiled library of
:mod:`repro.core._native` loads: its ``fill_tape`` makes numpy's own
bounded-integer and uniform draws, in numpy's call order, so the tape
and the generator state after each refill are bit-identical to what the
``Generator.integers`` and ``Generator.random`` calls would give.  It
steps a :class:`numpy.random.PCG64` (numpy's default) itself, with the
generator state held in registers for the whole fill, once
:func:`repro.core._native.pcg64_layout_matches` has checked that it
reads numpy's state correctly; any other bit generator is drawn through
its ``bitgen_t`` function pointers (numpy's documented C interface for
extending :mod:`numpy.random`).  A tape keeps its lanes and position in
a :class:`repro.core._native.Tape` struct, so the fast engine's compiled
loop reads and refills the tape itself (:meth:`BatchedMoveDraws.run_compiled`).
On a PCG64 tape that loop defers the uniform lane of the blocks it
refills, and draws each uniform only when a proposal reads it; reading
:attr:`BatchedMoveDraws.uniforms` draws the rest of the lane, so what
Python sees is the tape numpy would have drawn.
Without the library (no C compiler), and for more than ``2**32``
particles, numpy draws the tape.

The distributed amoebot layer has its own instance of the same idea:
:class:`BatchedActivationDraws` tapes one ``(direction, uniform)`` pair
per delivered activation, and the batched
:class:`~repro.amoebot.scheduler.PoissonScheduler` pre-generates
``(winner, time)`` pairs of the Poisson race, which together make the
object simulator and the table-driven fast engine bit-identical for
equal seeds.

The same protocol is what makes the parallel ensemble runner
(:mod:`repro.runtime`) exact: every ensemble job carries its own plain
integer seed (derived up front with :func:`spawn_seeds`) and builds its own
:class:`BatchedMoveDraws` tape, so a chain's trajectory depends only on its
``(seed, replica)`` pair — never on which worker process ran it or in what
order — and a 4-worker run is bit-identical to the serial run.

Doctest examples below double as the module's executable specification;
they run in the ``pytest --doctest-modules`` documentation lane (see
``pyproject.toml``) and in tier-1 via ``tests/test_doctests.py``.
"""

from __future__ import annotations

import ctypes
from typing import Any, Callable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

RandomState = Union[None, int, np.random.Generator]

#: Default number of (index, direction, uniform) triples generated per batch.
DEFAULT_DRAW_BLOCK = 1024

#: Default block size of the amoebot layer's activation tapes (the scheduler
#: race and the (direction, uniform) pairs).  Separate from
#: :data:`DEFAULT_DRAW_BLOCK` so retuning the distributed runtime never
#: perturbs the chain engines' pinned draw protocol.
DEFAULT_ACTIVATION_BLOCK = 4096


class BatchedMoveDraws:
    """Block-prefetched randomness for one Algorithm M engine.

    Each refill draws ``block`` particle indices (uniform on ``[0, n)``),
    ``block`` direction indices (uniform on ``[0, 6)``) and ``block``
    uniforms on ``[0, 1)`` from the underlying generator, in that order.
    With ``lanes=2`` a *second* uniform block follows the first on every
    refill — kernels with more than one move type (the separation chain's
    color swaps) consume the lane-2 uniform as their per-iteration
    move-type selector.  Because the extra lane is drawn strictly *after*
    the canonical triple blocks, single-lane tapes (``lanes=1``, the
    default) invoke the generator exactly as before the lane existed: the
    compression engines' committed golden traces pin this bit-for-bit.
    The draws are kept as numpy arrays — the fast engine's compiled
    loops read them in place — with a memoized plain-list view
    (:meth:`lists`) for the per-element Python loops.  The arrays hold
    one block; they are allocated once and every refill overwrites them
    in place.

    The compiled ``fill_tape`` of :mod:`repro.core._native` draws the
    refill when the library loads (resolved once, at construction) and
    ``n <= 2**32``; it reproduces ``rng.integers(0, n, size=block)``,
    ``rng.integers(0, 6, size=block)`` and ``rng.random(block)`` draw for
    draw, holding the bit generator's lock as numpy does.  Otherwise those
    numpy calls draw it.  Either way the stream is the same.  With the
    compiled fill the fast engine hands the whole tape to C
    (:meth:`run_compiled`), which refills it one block at a time as it
    reads, so the generator never runs ahead of the positions consumed.

    The uniform lane is deferred inside that loop on a PCG64 tape: the
    loop's refills draw the index and direction lanes, save the
    generator state the uniform lane starts from, and jump the generator
    past the lane (a PCG64 state can be moved ``k`` steps on in
    ``O(log k)`` operations); the loop draws a uniform on first read,
    which Algorithm M does only for the proposals that reach the
    Metropolis filter.  The first read of :attr:`uniforms` (and so of
    :meth:`lists`, :meth:`draw` and :meth:`draw2`) draws the whole lane
    from the saved state and leaves the generator where it is, so the
    lane and the generator state are always the ones the numpy calls
    give.  :meth:`refill` and every other draw source fill the lane
    eagerly.

    The uniform of a triple is consumed even when the proposal is rejected
    before the Metropolis filter (e.g. an occupied target); this keeps the
    tape position a pure function of the iteration count, so engines with
    the same seed and block size stay aligned forever.  The same rule
    applies to the second lane: one lane-2 uniform per iteration,
    unconditionally.

    Attributes
    ----------
    indices, directions, uniforms:
        The currently materialized draws as numpy arrays (``int64``,
        ``int64``, ``float64``).  Exposed (together with
        ``cursor``/``size``) so engine inner loops can read them without
        per-draw method-call overhead.  ``uniforms`` is a property that
        draws a deferred lane first.
    cursor:
        Position of the next unconsumed triple within the current tape.
    size:
        Number of triples currently materialized (0 before the first
        refill).

    Examples
    --------
    A triple is always ``(particle index, direction index, uniform)`` with
    the index in ``[0, n)``, the direction in ``[0, 6)`` and the uniform in
    ``[0, 1)``; equally seeded tapes agree triple for triple:

    >>> import numpy as np
    >>> tape = BatchedMoveDraws(np.random.default_rng(0), n=10, block=4)
    >>> index, direction, uniform = tape.draw()
    >>> 0 <= index < 10 and 0 <= direction < 6 and 0.0 <= uniform < 1.0
    True
    >>> twin = BatchedMoveDraws(np.random.default_rng(0), n=10, block=4)
    >>> twin.draw() == (index, direction, uniform)
    True

    The second lane is drawn after the triple blocks, so a two-lane tape's
    first block of triples matches a single-lane tape draw for draw:

    >>> two_lane = BatchedMoveDraws(np.random.default_rng(0), n=10, block=4, lanes=2)
    >>> two_lane.draw2()[:3] == (index, direction, uniform)
    True
    >>> 0.0 <= two_lane.draw2()[3] < 1.0
    True
    """

    __slots__ = (
        "_rng",
        "_n",
        "block",
        "lanes",
        "indices",
        "directions",
        "_uniforms",
        "uniforms2",
        "cursor",
        "size",
        "_lists",
        "_lists2",
        "_fill",
    )

    def __init__(
        self,
        rng: np.random.Generator,
        n: int,
        block: int = DEFAULT_DRAW_BLOCK,
        lanes: int = 1,
    ) -> None:
        if n <= 0:
            raise ValueError(f"need at least one particle to draw indices, got n={n}")
        if block <= 0:
            raise ValueError(f"block size must be positive, got {block}")
        if lanes not in (1, 2):
            raise ValueError(f"lanes must be 1 or 2, got {lanes}")
        self._rng = rng
        self._n = n
        self.block = block
        self.lanes = lanes
        self.indices = np.empty(block, dtype=np.int64)
        self.directions = np.empty(block, dtype=np.int64)
        self._uniforms = np.empty(block, dtype=np.float64)
        self.uniforms2: np.ndarray = np.empty(block if lanes == 2 else 0, dtype=np.float64)
        self.cursor = 0
        self.size = 0
        self._lists: Optional[Tuple[List[int], List[int], List[float]]] = None
        self._lists2: Optional[List[float]] = None
        self._fill = _compiled_fill(rng, n, block, lanes)
        if self._fill is not None:
            # The compiled fill (and loop) draw into these lanes for good.
            self._fill.point(
                self.indices, self.directions, self._uniforms,
                self.uniforms2 if lanes == 2 else None,
            )

    def refill(self) -> None:
        """Materialize the next block, discarding any unread remainder."""
        if self._fill is not None:
            self._fill.refill()
        else:
            rng = self._rng
            block = self.block
            self.indices[:] = rng.integers(0, self._n, size=block)
            self.directions[:] = rng.integers(0, 6, size=block)
            rng.random(out=self._uniforms)
            if self.lanes == 2:
                rng.random(out=self.uniforms2)
        self.cursor = 0
        self.size = self.block
        self._lists = None
        self._lists2 = None

    @property
    def uniforms(self) -> np.ndarray:
        """The uniform lane, drawn first if the compiled loop deferred it."""
        if self._fill is not None:
            self._fill.draw_lane()
        return self._uniforms

    @property
    def compiled(self) -> bool:
        """Whether ``fill_tape`` draws this tape, so that :meth:`run_compiled`
        can hand it to C."""
        return self._fill is not None

    def run_compiled(self, loop: Callable[..., int], *arguments: Any) -> int:
        """Call a compiled loop on the tape and return what it consumed.

        ``loop(tape, *arguments)`` gets the address of the tape's
        :class:`~repro.core._native.Tape` struct, reads positions from
        the cursor on and, when the cursor reaches the end, refills one
        block, deferring its uniform lane on a PCG64 tape; it returns the
        number of positions it consumed.  The call holds the bit
        generator's lock.  The cursor and size are copied back afterwards,
        and the list views dropped if the loop refilled, which it did
        exactly when it consumed more than was left.  Requires
        :attr:`compiled`.
        """
        fill = self._fill
        tape = fill.tape
        tape.cursor = self.cursor
        left = self.size - self.cursor
        with fill.lock:
            consumed = loop(fill.address, *arguments)
        self.cursor = tape.cursor
        if consumed > left:
            self.size = tape.size
            self._lists = None
            self._lists2 = None
        return consumed

    def lists(self) -> Tuple[List[int], List[int], List[float]]:
        """The materialized draws as plain Python lists (memoized per refill).

        The engines' Python inner loops read these: list indexing returns
        plain ``int``/``float`` objects, which CPython handles markedly
        faster than numpy scalars.  The conversion happens once per refill
        regardless of how many ``run()`` calls consume the block.
        """
        if self._lists is None:
            self._lists = (
                self.indices.tolist(),
                self.directions.tolist(),
                self.uniforms.tolist(),
            )
        return self._lists

    def lists2(self) -> List[float]:
        """The lane-2 uniforms as a plain Python list (memoized per refill).

        Requires ``lanes=2``, like :meth:`draw2`: on a single-lane tape
        the lane-2 buffer is never drawn, so returning it (always ``[]``)
        would let a two-lane consumer run off the end of the lane mid-block
        and silently desynchronize from the reference trajectory instead
        of failing at the first read.
        """
        if self.lanes != 2:
            raise ValueError("lists2() requires a tape constructed with lanes=2")
        if self._lists2 is None:
            self._lists2 = self.uniforms2.tolist()
        return self._lists2

    def draw(self) -> Tuple[int, int, float]:
        """Consume and return the next ``(index, direction, uniform)`` triple."""
        if self.cursor >= self.size:
            self.refill()
        indices, directions, uniforms = self.lists()
        cursor = self.cursor
        self.cursor = cursor + 1
        return indices[cursor], directions[cursor], uniforms[cursor]

    def draw2(self) -> Tuple[int, int, float, float]:
        """Consume the next ``(index, direction, uniform, uniform2)`` quadruple.

        The two-lane analogue of :meth:`draw` (requires ``lanes=2``): one
        tape position yields both the canonical triple and the lane-2
        uniform, so consumption stays one position per iteration no matter
        which lane the kernel ends up using.
        """
        if self.lanes != 2:
            raise ValueError("draw2() requires a tape constructed with lanes=2")
        if self.cursor >= self.size:
            self.refill()
        indices, directions, uniforms = self.lists()
        uniforms2 = self.lists2()
        cursor = self.cursor
        self.cursor = cursor + 1
        return indices[cursor], directions[cursor], uniforms[cursor], uniforms2[cursor]


class BatchedActivationDraws:
    """Block-prefetched ``(direction, uniform)`` pairs for the amoebot engines.

    The distributed simulator's analogue of :class:`BatchedMoveDraws`:
    per delivered activation both amoebot engines
    (:class:`~repro.amoebot.system.AmoebotSystem` and
    :class:`~repro.amoebot.fast_system.FastAmoebotSystem`) consume exactly
    one pair — a direction index in ``[0, 6)`` and a uniform in ``[0, 1)``
    — regardless of what the activation does with it (a contracted
    particle uses the direction, an expanded particle the uniform, an idle
    or Byzantine activation neither).  Unconditional consumption keeps the
    tape position a pure function of the activation count, which is what
    lets the table-driven engine replay the object simulator's randomness
    bit for bit.

    Each refill draws ``block`` direction indices followed by ``block``
    uniforms, so equally seeded tapes with equal block sizes replay the
    same stream regardless of who consumes them.  Like
    :class:`BatchedMoveDraws`, the tape is refilled in place, by the
    compiled ``fill_tape`` when the library loads and by numpy otherwise.

    Examples
    --------
    >>> import numpy as np
    >>> tape = BatchedActivationDraws(np.random.default_rng(0), block=4)
    >>> direction, uniform = tape.draw()
    >>> 0 <= direction < 6 and 0.0 <= uniform < 1.0
    True
    >>> twin = BatchedActivationDraws(np.random.default_rng(0), block=4)
    >>> twin.draw() == (direction, uniform)
    True
    """

    __slots__ = (
        "_rng", "block", "directions", "uniforms", "cursor", "size", "_lists", "_fill",
    )

    def __init__(self, rng: np.random.Generator, block: int = DEFAULT_ACTIVATION_BLOCK) -> None:
        if block <= 0:
            raise ValueError(f"block size must be positive, got {block}")
        self._rng = rng
        self.block = block
        self.directions = np.empty(block, dtype=np.int64)
        self.uniforms = np.empty(block, dtype=np.float64)
        self.cursor = 0
        self.size = 0
        self._lists: Optional[Tuple[List[int], List[float]]] = None
        self._fill = _compiled_fill(rng, 6, block, 1)
        if self._fill is not None:
            # No index lane: the compiled fill draws directions and uniforms only.
            self._fill.point(None, self.directions, self.uniforms, None)

    def refill(self) -> None:
        """Materialize the next block, discarding any unread remainder."""
        if self._fill is not None:
            self._fill.refill()
        else:
            self.directions[:] = self._rng.integers(0, 6, size=self.block)
            self._rng.random(out=self.uniforms)
        self.cursor = 0
        self.size = self.block
        self._lists = None

    def lists(self) -> Tuple[List[int], List[float]]:
        """The materialized pairs as plain Python lists (memoized per refill)."""
        if self._lists is None:
            self._lists = (self.directions.tolist(), self.uniforms.tolist())
        return self._lists

    def draw(self) -> Tuple[int, float]:
        """Consume and return the next ``(direction, uniform)`` pair."""
        if self.cursor >= self.size:
            self.refill()
        directions, uniforms = self.lists()
        cursor = self.cursor
        self.cursor = cursor + 1
        return directions[cursor], uniforms[cursor]


class _CompiledFill(NamedTuple):
    """A tape's handle on the compiled fill: the tape struct (and its
    address), the library's ``fill_tape`` and ``draw_deferred``, and the
    bit generator's lock."""

    tape: Any  # repro.core._native.Tape
    address: int
    fill_tape: Callable[[int], int]
    draw_deferred: Callable[[int], int]
    lock: Any

    def point(self, *lanes: Optional[np.ndarray]) -> None:
        """Point the struct at the tape's four lanes, NULL for a lane not drawn."""
        tape = self.tape
        tape.indices, tape.directions, tape.uniforms, tape.uniforms2 = (
            None if lane is None else lane.ctypes.data for lane in lanes
        )

    def refill(self) -> None:
        """Draw one block into the lanes, holding the generator's lock as
        numpy does (ctypes releases the GIL for the call)."""
        with self.lock:
            self.fill_tape(self.address)

    def draw_lane(self) -> None:
        """Write a deferred uniform lane into the tape.  It is drawn from
        the state saved in the struct, so the generator is not touched
        and its lock is not needed."""
        if self.tape.deferred:
            self.draw_deferred(self.address)


def _compiled_fill(
    rng: np.random.Generator, n: int, block: int, lanes: int
) -> Optional[_CompiledFill]:
    """The compiled fill of a tape over ``n`` particles, or ``None``.

    ``None`` when the library did not load, or when ``n > 2**32`` needs
    numpy's 64-bit bounded-integer path, which the C side does not carry.
    The struct draws through the inlined PCG64 step when
    :func:`~repro.core._native.pcg64_layout_matches` accepts the
    generator, and through its ``bitgen_t`` otherwise.
    """
    # Imported here: repro.core imports this module.
    from repro.core import _native

    library = _native.load_library()
    if library is None or n > 2**32:
        return None
    bit_generator = rng.bit_generator
    tape = _native.Tape(
        bitgen=bit_generator.ctypes.bit_generator.value,
        source=_native.PCG64 if _native.pcg64_layout_matches(bit_generator) else _native.BITGEN,
        n=n,
        block=block,
        lanes=lanes,
    )
    return _CompiledFill(
        tape, ctypes.addressof(tape), library.fill_tape, library.draw_deferred, bit_generator.lock
    )


def make_rng(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for the given seed spec.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` seed, or an existing generator
        (returned unchanged so that callers can thread one generator
        through a pipeline of components).

    Examples
    --------
    Equal integer seeds yield identical streams:

    >>> make_rng(7).integers(0, 100, size=3).tolist()
    [94, 62, 68]
    >>> make_rng(7).integers(0, 100, size=3).tolist()
    [94, 62, 68]

    An existing generator is passed through unchanged:

    >>> generator = make_rng(0)
    >>> make_rng(generator) is generator
    True
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seeds(seed: RandomState, count: int) -> List[int]:
    """Derive ``count`` independent plain-integer seeds from one root seed.

    This is the seeding scheme of the parallel ensemble runner
    (:mod:`repro.runtime`): the children are returned as plain ``int``
    values, so they can be embedded in picklable job descriptions,
    serialized into checkpoint manifests, and handed to worker processes —
    while remaining a pure function of ``(seed, count)``.
    Job ``k`` of an ensemble always receives ``spawn_seeds(base, count)[k]``
    regardless of worker count, which is what makes parallel ensembles
    bit-identical to serial ones.

    Derivation uses :class:`numpy.random.SeedSequence` spawning (for
    ``None``/``int`` roots) so the child streams are statistically
    independent, not merely distinct.

    Examples
    --------
    The derivation is deterministic and collision-free in practice:

    >>> spawn_seeds(0, 4) == spawn_seeds(0, 4)
    True
    >>> len(set(spawn_seeds(0, 64)))
    64

    A prefix of a larger spawn is stable, so growing an ensemble keeps
    the seeds (and therefore the trajectories) of existing replicas:

    >>> spawn_seeds(123, 8)[:3] == spawn_seeds(123, 3)
    True
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        return [int(s) for s in seed.integers(0, 2**63 - 1, size=count)]
    root = np.random.SeedSequence(seed)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in root.spawn(count)]
