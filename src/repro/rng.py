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

from typing import List, Optional, Tuple, Union

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
    (:meth:`lists`) for the per-element Python loops.

    The uniform of a triple is consumed even when the proposal is rejected
    before the Metropolis filter (e.g. an occupied target); this keeps the
    tape position a pure function of the iteration count, so engines with
    the same seed and block size stay aligned forever.  The same rule
    applies to the second lane: one lane-2 uniform per iteration,
    unconditionally.

    A refill may generate several blocks at once (``refill(blocks=k)``):
    the generator is still invoked once per ``block`` in the canonical
    ``(indices, directions, uniforms)`` order, so the underlying random
    stream — and therefore every trajectory — is unchanged; only the
    amount of tape materialized ahead of the cursor grows.  This is how
    the compiled ``run()`` amortizes its per-call overhead over spans
    longer than one block without breaking bit-identity with the
    one-block-at-a-time consumers.

    Attributes
    ----------
    indices, directions, uniforms:
        The currently materialized draws as numpy arrays (``int64``,
        ``int64``, ``float64``).  Exposed (together with
        ``cursor``/``size``) so engine inner loops can read them without
        per-draw method-call overhead.
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

    Materializing several blocks per refill leaves the stream unchanged:

    >>> wide = BatchedMoveDraws(np.random.default_rng(0), n=10, block=4)
    >>> wide.refill(blocks=3)
    >>> wide.draw() == (index, direction, uniform)
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
        "uniforms",
        "uniforms2",
        "cursor",
        "size",
        "_lists",
        "_lists2",
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
        self.indices: np.ndarray = np.empty(0, dtype=np.int64)
        self.directions: np.ndarray = np.empty(0, dtype=np.int64)
        self.uniforms: np.ndarray = np.empty(0, dtype=np.float64)
        self.uniforms2: np.ndarray = np.empty(0, dtype=np.float64)
        self.cursor = 0
        self.size = 0
        self._lists: Optional[Tuple[List[int], List[int], List[float]]] = None
        self._lists2: Optional[List[float]] = None

    def refill(self, blocks: int = 1) -> None:
        """Materialize the next ``blocks`` blocks, discarding any unread remainder.

        The generator is invoked exactly as ``blocks`` successive
        single-block refills would invoke it, so tapes that refill in
        different granularities still replay the same stream.
        """
        if blocks < 1:
            raise ValueError(f"blocks must be at least 1, got {blocks}")
        rng = self._rng
        if blocks == 1:
            self.indices = rng.integers(0, self._n, size=self.block)
            self.directions = rng.integers(0, 6, size=self.block)
            self.uniforms = rng.random(self.block)
            if self.lanes == 2:
                self.uniforms2 = rng.random(self.block)
        else:
            index_parts, direction_parts, uniform_parts = [], [], []
            uniform2_parts = []
            for _ in range(blocks):
                index_parts.append(rng.integers(0, self._n, size=self.block))
                direction_parts.append(rng.integers(0, 6, size=self.block))
                uniform_parts.append(rng.random(self.block))
                if self.lanes == 2:
                    uniform2_parts.append(rng.random(self.block))
            self.indices = np.concatenate(index_parts)
            self.directions = np.concatenate(direction_parts)
            self.uniforms = np.concatenate(uniform_parts)
            if self.lanes == 2:
                self.uniforms2 = np.concatenate(uniform2_parts)
        self.cursor = 0
        self.size = blocks * self.block
        self._lists = None
        self._lists2 = None

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
    same stream regardless of who consumes them.

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

    __slots__ = ("_rng", "block", "directions", "uniforms", "cursor", "size", "_lists")

    def __init__(self, rng: np.random.Generator, block: int = DEFAULT_ACTIVATION_BLOCK) -> None:
        if block <= 0:
            raise ValueError(f"block size must be positive, got {block}")
        self._rng = rng
        self.block = block
        self.directions: np.ndarray = np.empty(0, dtype=np.int64)
        self.uniforms: np.ndarray = np.empty(0, dtype=np.float64)
        self.cursor = 0
        self.size = 0
        self._lists: Optional[Tuple[List[int], List[float]]] = None

    def refill(self) -> None:
        """Materialize the next block, discarding any unread remainder."""
        self.directions = self._rng.integers(0, 6, size=self.block)
        self.uniforms = self._rng.random(self.block)
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


def spawn_rngs(seed: RandomState, count: int) -> list[np.random.Generator]:
    """Create ``count`` statistically independent child generators.

    Used by the distributed amoebot simulator to give each particle its own
    stream while keeping the whole run reproducible from a single seed.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    root = np.random.SeedSequence(seed if isinstance(seed, int) else None)
    if isinstance(seed, np.random.Generator):
        # Derive children deterministically from the provided generator.
        child_seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in child_seeds]
    return [np.random.default_rng(s) for s in root.spawn(count)]


def spawn_seeds(seed: RandomState, count: int) -> List[int]:
    """Derive ``count`` independent plain-integer seeds from one root seed.

    This is the seeding scheme of the parallel ensemble runner
    (:mod:`repro.runtime`): unlike :func:`spawn_rngs`, the children are
    returned as plain ``int`` values, so they can be embedded in picklable
    job descriptions, serialized into checkpoint manifests, and handed to
    worker processes — while remaining a pure function of ``(seed, count)``.
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
