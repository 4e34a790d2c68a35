"""Properties 1 and 2: the local conditions that keep moves safe.

A particle at location ``l`` may move to an adjacent unoccupied location
``l'`` only if the pair satisfies Property 1 or Property 2 (Section 3.1).
These purely local conditions guarantee that the particle system stays
connected (Lemma 3.1) and that no new holes form once the configuration is
hole-free (Lemma 3.2), while still being permissive enough for the chain to
be ergodic on the hole-free state space (Section 3.5).

Notation: ``S = N(l) ∩ N(l')`` is the set of particles adjacent to both
locations (``|S| ∈ {0, 1, 2}``), and ``N(l ∪ l') = (N(l) ∪ N(l')) \\ {l, l'}``
is the eight-node joint neighborhood of the edge ``(l, l')``.

* **Property 1**: ``|S| ∈ {1, 2}`` and every particle in ``N(l ∪ l')`` is
  connected to a particle of ``S`` by a path inside ``N(l ∪ l')``.
* **Property 2**: ``|S| = 0``, both ``l`` and ``l'`` have at least one
  neighboring particle, all particles in ``N(l) \\ {l'}`` are connected by
  paths within that set, and likewise for ``N(l') \\ {l}``.

Both properties are symmetric in ``l`` and ``l'``, which is what makes the
chain's moves reversible (Lemma 3.9).  The moving particle itself is never
counted as a neighbor: callers pass the full occupied node set and the
functions exclude ``l`` and ``l'`` from every neighborhood.

These checks are evaluated in two places that must agree: literally, per
proposal, by the reference engine, and once per 8-bit ring mask when the
tests regenerate the fast engines' 256-entry move tables
(:func:`repro.core.moves.move_tables`) — together with the perimeter
identity ``p = 3n - 3 - e + 3h`` they are the entire local theory the
engines rely on.  The doctests below are the executable spec for the
canonical small cases; they run in the ``pytest --doctest-modules``
documentation lane (see ``pyproject.toml``) and in tier-1 via
``tests/test_doctests.py``.

Examples
--------
At the end of a line of three particles, sliding the end particle around
its neighbor keeps the configuration connected (Property 1 holds: the
single common neighbor ``(1, 0)`` anchors the occupied ring), while
detaching it outright fails both properties:

>>> line3 = {(0, 0), (1, 0), (2, 0)}
>>> common_occupied_neighbors(line3, (0, 0), (0, 1))
((1, 0),)
>>> satisfies_property_1(line3, (0, 0), (0, 1))
True
>>> satisfies_either_property(line3, (0, 0), (-1, 0))
False

Property 2 covers the ``|S| = 0`` case — bridging two groups that share no
common neighbor with the move edge, each group internally connected:

>>> occupied = {(-1, 0), (0, 0), (1, 1)}
>>> satisfies_property_1(occupied, (0, 0), (0, 1))
False
>>> satisfies_property_2(occupied, (0, 0), (0, 1))
True
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet, Iterable, Sequence, Tuple

from repro.errors import LatticeError
from repro.lattice.triangular import Node, are_adjacent, common_neighbors, neighbors


def common_occupied_neighbors(
    occupied: AbstractSet[Node], source: Node, target: Node
) -> Tuple[Node, ...]:
    """Return ``S``: the occupied nodes adjacent to both ``source`` and ``target``.

    ``source`` and ``target`` must be adjacent lattice nodes.  The moving
    particle's own location is never in ``S`` because the two common
    neighbors of an edge are distinct from its endpoints.
    """
    first, second = common_neighbors(source, target)
    return tuple(cell for cell in (first, second) if cell in occupied)


def joint_neighborhood(source: Node, target: Node) -> Tuple[Node, ...]:
    """Return the eight nodes of ``N(source ∪ target)`` in ring order.

    The union of the two hexagonal neighborhoods minus the endpoints forms
    an eight-node cycle around the edge; consecutive nodes in the returned
    tuple are lattice-adjacent, which makes connectivity checks along the
    ring straightforward.  The fast engine packs the occupancy of exactly
    this ring, in exactly this order, into the 8-bit index of its move
    tables.

    >>> joint_neighborhood((0, 0), (1, 0))
    ((0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (2, -1), (2, 0), (1, 1))
    """
    from repro.lattice.triangular import add, rotate_ccw, subtract

    delta = subtract(target, source)
    if not are_adjacent(source, target):
        raise LatticeError(f"{source!r} and {target!r} are not adjacent")
    # Walking counterclockwise around the edge: five neighbors of the source
    # (starting at the first common neighbor) followed by three neighbors of
    # the target, ending adjacent to the starting node.
    ring = [add(source, rotate_ccw(delta, k)) for k in range(1, 6)]
    ring.extend(add(target, rotate_ccw(delta, k)) for k in (5, 0, 1))
    return tuple(ring)


def _connected_within(
    occupied_subset: Sequence[Node], targets: AbstractSet[Node]
) -> bool:
    """Check that every node of ``occupied_subset`` reaches ``targets`` within the subset."""
    if not occupied_subset:
        return True
    subset = set(occupied_subset)
    reachable = set(t for t in targets if t in subset)
    frontier = list(reachable)
    while frontier:
        current = frontier.pop()
        for nb in neighbors(current):
            if nb in subset and nb not in reachable:
                reachable.add(nb)
                frontier.append(nb)
    return reachable == subset


def satisfies_property_1(
    occupied: AbstractSet[Node], source: Node, target: Node
) -> bool:
    """Check Property 1 for a move of the particle at ``source`` to ``target``."""
    separating = common_occupied_neighbors(occupied, source, target)
    if len(separating) not in (1, 2):
        return False
    ring = joint_neighborhood(source, target)
    occupied_ring = [node for node in ring if node in occupied]
    return _connected_within(occupied_ring, set(separating))


def satisfies_property_2(
    occupied: AbstractSet[Node], source: Node, target: Node
) -> bool:
    """Check Property 2 for a move of the particle at ``source`` to ``target``."""
    separating = common_occupied_neighbors(occupied, source, target)
    if separating:
        return False
    source_side = [
        node for node in neighbors(source) if node != target and node in occupied
    ]
    target_side = [
        node for node in neighbors(target) if node != source and node in occupied
    ]
    if not source_side or not target_side:
        return False
    return _all_mutually_connected(source_side) and _all_mutually_connected(target_side)


def _all_mutually_connected(nodes: Sequence[Node]) -> bool:
    """Check that ``nodes`` form a single connected cluster among themselves."""
    if len(nodes) <= 1:
        return True
    subset = set(nodes)
    start = nodes[0]
    reachable = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for nb in neighbors(current):
            if nb in subset and nb not in reachable:
                reachable.add(nb)
                frontier.append(nb)
    return reachable == subset


def satisfies_either_property(
    occupied: AbstractSet[Node], source: Node, target: Node
) -> bool:
    """Check whether the move satisfies Property 1 or Property 2 (Condition (2) of Algorithm M)."""
    return satisfies_property_1(occupied, source, target) or satisfies_property_2(
        occupied, source, target
    )
