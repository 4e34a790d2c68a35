"""Move legality and edge-count deltas for the compression chain.

A *move* displaces one contracted particle from its current location to an
adjacent unoccupied location.  Algorithm M accepts a proposed move only if

1. the particle does not currently have five neighbors (Condition (1),
   which prevents a hole from opening at the vacated node),
2. the pair of locations satisfies Property 1 or Property 2 (Condition (2),
   which preserves connectivity and prevents other new holes), and
3. a Metropolis coin with success probability ``min(1, lambda^(e' - e))``
   comes up heads (Condition (3), which shapes the stationary
   distribution).

This module implements Conditions (1) and (2) — the deterministic
"validity" part — together with the quantity ``e' - e`` needed by
Condition (3).  The stochastic part lives in
:mod:`repro.core.metropolis` and :mod:`repro.core.markov_chain`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, List, Literal, Optional, Tuple

import numpy as np

from repro.constants import FORBIDDEN_NEIGHBOR_COUNT
from repro.errors import InvalidMoveError
from repro.lattice.triangular import DIRECTIONS, Node, are_adjacent, neighbors
from repro.core.properties import (
    joint_neighborhood,
    satisfies_either_property,
    satisfies_property_1,
    satisfies_property_2,
)

MoveProperty = Literal["property1", "property2", "invalid"]

#: Ring offsets per direction: ``RING_OFFSETS[d]`` is the eight-node joint
#: neighborhood of the edge from the origin to ``DIRECTIONS[d]``, in the
#: canonical order of :func:`repro.core.properties.joint_neighborhood`.
RING_OFFSETS: Tuple[Tuple[Node, ...], ...] = tuple(
    joint_neighborhood((0, 0), delta) for delta in DIRECTIONS
)

_MOVE_TABLES: Optional[Tuple[List[int], List[int], List[bool]]] = None

_MOVE_TABLES_ARRAY: Optional[np.ndarray] = None


def move_tables() -> Tuple[List[int], List[int], List[bool]]:
    """Return the three 256-entry move-resolution tables, building them once.

    For every 8-bit occupancy mask of the ring around a move edge the
    tables give, in order: the particle's neighbor count at the source
    (``e`` in Algorithm M's Condition (3)), its neighbor count at the
    target (``e'``), and whether the pair satisfies Property 1 or
    Property 2.  The property entries are computed by running the
    *reference* property implementation on an explicit node set, which is
    what guarantees fast/reference equivalence.

    Both properties and the neighbor counts are invariant under lattice
    rotation, so one table built for the East direction serves all six
    (asserted for every direction by the equivalence test suite).

    These tables are the shared source of truth for every table-driven
    engine in the repo: the fast chain engine resolves Algorithm M
    proposals through them (its Python and compiled loops alike), and the distributed
    :class:`~repro.amoebot.fast_system.FastAmoebotSystem` resolves the
    expanded step of Algorithm A through the very same masks (the
    expanded particle's tail/head pair is the move edge and the
    ``N*``-effective occupancy of the ring is the mask).
    """
    global _MOVE_TABLES
    if _MOVE_TABLES is None:
        ring = RING_OFFSETS[0]
        source: Node = (0, 0)
        target: Node = DIRECTIONS[0]
        source_bits = [k for k, node in enumerate(ring) if node in neighbors(source)]
        target_bits = [k for k, node in enumerate(ring) if node in neighbors(target)]
        neighbors_before: List[int] = []
        neighbors_after: List[int] = []
        property_ok: List[bool] = []
        for mask in range(256):
            neighbors_before.append(sum(mask >> k & 1 for k in source_bits))
            neighbors_after.append(sum(mask >> k & 1 for k in target_bits))
            occupied = {source}
            occupied.update(ring[k] for k in range(8) if mask >> k & 1)
            property_ok.append(satisfies_either_property(occupied, source, target))
        _MOVE_TABLES = (neighbors_before, neighbors_after, property_ok)
    return _MOVE_TABLES


def move_tables_array() -> np.ndarray:
    """The move tables as one read-only ``(256, 3)`` ``int16`` array.

    Column 0 is the source neighbor count, column 1 the target neighbor
    count, column 2 the Property 1/2 verdict as ``0``/``1``.  Built from
    (and memoized alongside) :func:`move_tables`.  No engine reads it:
    the fast engine's Python loops index the lists, and its compiled
    loops get their own ``uint8`` copies.  It remains a public export of
    :mod:`repro.core`.
    """
    global _MOVE_TABLES_ARRAY
    if _MOVE_TABLES_ARRAY is None:
        array = np.array(move_tables(), dtype=np.int16).T
        array.setflags(write=False)
        _MOVE_TABLES_ARRAY = array
    return _MOVE_TABLES_ARRAY


@dataclass(frozen=True)
class Move:
    """A proposed displacement of one particle.

    Attributes
    ----------
    source:
        The particle's current location ``l``.
    target:
        The adjacent unoccupied location ``l'`` it proposes to move to.
    """

    source: Node
    target: Node

    def reversed(self) -> "Move":
        """The reverse move (used when checking reversibility, Lemma 3.9)."""
        return Move(source=self.target, target=self.source)


def neighbor_count(
    occupied: AbstractSet[Node], location: Node, exclude: Iterable[Node] = ()
) -> int:
    """Count occupied neighbors of ``location``, ignoring nodes in ``exclude``.

    The moving particle's own position must be excluded when evaluating the
    neighbor count it *would* have after moving.
    """
    excluded = set(exclude)
    return sum(
        1 for nb in neighbors(location) if nb in occupied and nb not in excluded
    )


def move_edge_delta(occupied: AbstractSet[Node], move: Move) -> int:
    """Return ``e' - e``: the change in the particle's neighbor count under ``move``.

    ``e`` is the number of neighbors the particle has at ``move.source``;
    ``e'`` is the number it would have at ``move.target`` (not counting its
    own vacated node).  Because the move changes no other particle's
    position, ``e' - e`` is also the change in the configuration's total
    edge count ``e(sigma)``, and by Lemma 2.3 the perimeter changes by
    ``-(e' - e)``.
    """
    before = neighbor_count(occupied, move.source, exclude=(move.source,))
    after = neighbor_count(occupied, move.target, exclude=(move.source, move.target))
    return after - before


def classify_move(occupied: AbstractSet[Node], move: Move) -> MoveProperty:
    """Classify a move as satisfying Property 1, Property 2, or neither.

    The classification only covers Condition (2); callers must check
    Condition (1) (the five-neighbor rule) and target vacancy separately,
    or use :func:`is_valid_move`.
    """
    if satisfies_property_1(occupied, move.source, move.target):
        return "property1"
    if satisfies_property_2(occupied, move.source, move.target):
        return "property2"
    return "invalid"


def is_valid_move(occupied: AbstractSet[Node], move: Move) -> bool:
    """Check Conditions (1) and (2) of Algorithm M for ``move``.

    The target must be an unoccupied node adjacent to the source, the
    source particle must not have five neighbors, and the location pair
    must satisfy Property 1 or Property 2.
    """
    if move.source not in occupied:
        raise InvalidMoveError(f"no particle at {move.source!r}")
    if move.target in occupied:
        return False
    if not are_adjacent(move.source, move.target):
        return False
    if neighbor_count(occupied, move.source, exclude=(move.source,)) == FORBIDDEN_NEIGHBOR_COUNT:
        return False
    return satisfies_either_property(occupied, move.source, move.target)


def apply_move(occupied: AbstractSet[Node], move: Move) -> frozenset[Node]:
    """Return the occupied node set after performing ``move`` (no validity check)."""
    if move.source not in occupied:
        raise InvalidMoveError(f"no particle at {move.source!r}")
    if move.target in occupied:
        raise InvalidMoveError(f"target {move.target!r} is occupied")
    updated = set(occupied)
    updated.discard(move.source)
    updated.add(move.target)
    return frozenset(updated)


def enumerate_valid_moves(occupied: AbstractSet[Node]) -> List[Move]:
    """Enumerate every move satisfying Conditions (1) and (2) from the given configuration.

    Used by the exact transition-matrix construction for small systems and
    by tests of the ergodicity argument.  The list is sorted for
    determinism.
    """
    moves: List[Move] = []
    for source in sorted(occupied):
        if neighbor_count(occupied, source, exclude=(source,)) == FORBIDDEN_NEIGHBOR_COUNT:
            continue
        for target in neighbors(source):
            if target in occupied:
                continue
            candidate = Move(source=source, target=target)
            if satisfies_either_property(occupied, source, target):
                moves.append(candidate)
    return moves


def enumerate_moves_by_property(
    occupied: AbstractSet[Node]
) -> dict[MoveProperty, List[Move]]:
    """Group every valid move of the configuration by the property it satisfies.

    A move satisfying both properties is impossible (Property 1 requires
    ``|S| >= 1`` while Property 2 requires ``|S| = 0``), so the two lists
    are disjoint.  Used to reproduce the point of Figure 3: some hole-free
    configurations admit only Property-2 moves.
    """
    grouped: dict[MoveProperty, List[Move]] = {"property1": [], "property2": []}
    for source in sorted(occupied):
        if neighbor_count(occupied, source, exclude=(source,)) == FORBIDDEN_NEIGHBOR_COUNT:
            continue
        for target in neighbors(source):
            if target in occupied:
                continue
            label = classify_move(occupied, Move(source, target))
            if label != "invalid":
                grouped[label].append(Move(source, target))
    return grouped
