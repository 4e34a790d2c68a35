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
:mod:`repro.core.kernels` (the acceptance tables) and
:mod:`repro.core.markov_chain`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, List, Literal, Optional, Tuple

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

#: The three move tables of :func:`move_tables`, one byte per 8-bit ring
#: mask.  Shipped as literals rather than derived in every process; the
#: move-table tests of ``tests/core/test_fast_chain_equivalence.py``
#: regenerate them from the reference property code.
_NEIGHBORS_BEFORE = bytes.fromhex(
    "0001010201020203010202030203030401020203020303040203030403040405"
    "0001010201020203010202030203030401020203020303040203030403040405"
    "0001010201020203010202030203030401020203020303040203030403040405"
    "0001010201020203010202030203030401020203020303040203030403040405"
    "0001010201020203010202030203030401020203020303040203030403040405"
    "0001010201020203010202030203030401020203020303040203030403040405"
    "0001010201020203010202030203030401020203020303040203030403040405"
    "0001010201020203010202030203030401020203020303040203030403040405"
)

_NEIGHBORS_AFTER = bytes.fromhex(
    "0001000100010001000100010001000101020102010201020102010201020102"
    "0102010201020102010201020102010202030203020302030203020302030203"
    "0102010201020102010201020102010202030203020302030203020302030203"
    "0203020302030203020302030203020303040304030403040304030403040304"
    "0102010201020102010201020102010202030203020302030203020302030203"
    "0203020302030203020302030203020303040304030403040304030403040304"
    "0203020302030203020302030203020303040304030403040304030403040304"
    "0304030403040304030403040304030404050405040504050405040504050405"
)

_PROPERTY_OK = bytes.fromhex(
    "0001000100000001000000000000000101010001000000010101000101010101"
    "0000010001000100010000000100010001010001000000010101000101010101"
    "0000010001000100010000000100010000000000000000000000000000000000"
    "0000010001000100010000000100010001010001000000010101000101010101"
    "0001010101000101010000000100010100010001000000010001000100010001"
    "0000000000000000000000000000000000010001000000010001000100010001"
    "0001010101000101010000000100010100010001000000010001000100010001"
    "0001010101000101010000000100010101010001000000010101000101010101"
)

#: The same tables in the order of :func:`move_tables`, as bytes: the
#: compiled loop reads them through uint8 views of these objects.
MOVE_TABLE_BYTES: Tuple[bytes, bytes, bytes] = (_NEIGHBORS_BEFORE, _NEIGHBORS_AFTER, _PROPERTY_OK)

_MOVE_TABLES: Optional[Tuple[List[int], List[int], List[bool]]] = None


def move_tables() -> Tuple[List[int], List[int], List[bool]]:
    """Return the three 256-entry move-resolution tables as lists.

    For every 8-bit occupancy mask of the ring around a move edge the
    tables give, in order: the particle's neighbor count at the source
    (``e`` in Algorithm M's Condition (3)), its neighbor count at the
    target (``e'``), and whether the pair satisfies Property 1 or
    Property 2.  They are the literals :data:`MOVE_TABLE_BYTES`, which the
    tests regenerate by running the *reference* property implementation
    on an explicit node set for every mask and every direction: that is
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
    ``N*``-effective occupancy of the ring is the mask).  The lists are
    built once per process and shared.
    """
    global _MOVE_TABLES
    if _MOVE_TABLES is None:
        _MOVE_TABLES = (
            list(_NEIGHBORS_BEFORE),
            list(_NEIGHBORS_AFTER),
            [bool(ok) for ok in _PROPERTY_OK],
        )
    return _MOVE_TABLES


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
