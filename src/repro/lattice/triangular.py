"""Coordinates and adjacency on the infinite triangular lattice ``G_Delta``.

Nodes are represented as integer axial coordinates ``(x, y)``.  The six
lattice directions, listed counterclockwise starting from East, are

    E  = ( 1,  0)      NE = ( 0,  1)      NW = (-1,  1)
    W  = (-1,  0)      SW = ( 0, -1)      SE = ( 1, -1)

Under the Cartesian embedding ``(x + y/2, y * sqrt(3)/2)`` these six unit
vectors point at 0, 60, 120, 180, 240 and 300 degrees, so every node has
exactly six neighbors at unit Euclidean distance, as in Figure 1a of the
paper.

Plain tuples are used for nodes (rather than a class) because particle
configurations store and hash millions of them during long chain runs;
the helper functions below keep the code readable without the overhead.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from repro.errors import LatticeError

#: Type alias for a lattice node in axial coordinates.
Node = Tuple[int, int]

#: The six lattice directions in counterclockwise order starting from East.
DIRECTIONS: tuple[Node, ...] = (
    (1, 0),  # E
    (0, 1),  # NE
    (-1, 1),  # NW
    (-1, 0),  # W
    (0, -1),  # SW
    (1, -1),  # SE
)

#: Human-readable names of :data:`DIRECTIONS`, index-aligned.
DIRECTION_NAMES: tuple[str, ...] = ("E", "NE", "NW", "W", "SW", "SE")

#: Number of lattice directions (degree of every node of ``G_Delta``).
NUM_DIRECTIONS: int = 6

_DIRECTION_INDEX: dict[Node, int] = {d: i for i, d in enumerate(DIRECTIONS)}

_SQRT3_OVER_2 = math.sqrt(3.0) / 2.0


def add(node: Node, delta: Node) -> Node:
    """Return ``node + delta`` componentwise."""
    return (node[0] + delta[0], node[1] + delta[1])


def subtract(node: Node, other: Node) -> Node:
    """Return ``node - other`` componentwise."""
    return (node[0] - other[0], node[1] - other[1])


def scale(node: Node, factor: int) -> Node:
    """Return ``factor * node`` componentwise."""
    return (node[0] * factor, node[1] * factor)


def neighbors(node: Node) -> tuple[Node, ...]:
    """Return the six neighbors of ``node`` in counterclockwise order."""
    x, y = node
    return (
        (x + 1, y),
        (x, y + 1),
        (x - 1, y + 1),
        (x - 1, y),
        (x, y - 1),
        (x + 1, y - 1),
    )


def neighbor(node: Node, direction: int) -> Node:
    """Return the neighbor of ``node`` in direction index ``direction`` (mod 6)."""
    dx, dy = DIRECTIONS[direction % NUM_DIRECTIONS]
    return (node[0] + dx, node[1] + dy)


def neighborhood(node: Node, radius: int = 1) -> set[Node]:
    """Return all nodes within hex distance ``radius`` of ``node`` (excluding it).

    ``radius=1`` gives the six immediate neighbors; larger radii give the
    filled hexagonal ball minus the center.
    """
    if radius < 0:
        raise LatticeError(f"radius must be non-negative, got {radius}")
    result: set[Node] = set()
    frontier = {node}
    for _ in range(radius):
        new_frontier: set[Node] = set()
        for v in frontier:
            for w in neighbors(v):
                if w != node and w not in result:
                    new_frontier.add(w)
        result |= new_frontier
        frontier = new_frontier
    return result


def are_adjacent(a: Node, b: Node) -> bool:
    """Return ``True`` if ``a`` and ``b`` are joined by a lattice edge."""
    return subtract(b, a) in _DIRECTION_INDEX


def direction_index(delta: Node) -> int:
    """Return the index into :data:`DIRECTIONS` for the unit vector ``delta``.

    Raises
    ------
    LatticeError
        If ``delta`` is not one of the six lattice directions.
    """
    try:
        return _DIRECTION_INDEX[delta]
    except KeyError as exc:
        raise LatticeError(f"{delta!r} is not a lattice direction") from exc


def direction_between(a: Node, b: Node) -> int:
    """Return the direction index pointing from ``a`` to adjacent node ``b``."""
    return direction_index(subtract(b, a))


def opposite_direction(direction: int) -> int:
    """Return the index of the direction opposite to ``direction``."""
    return (direction + 3) % NUM_DIRECTIONS


def rotate_ccw(delta: Node, steps: int = 1) -> Node:
    """Rotate the lattice vector ``delta`` by ``steps * 60`` degrees counterclockwise.

    Works for arbitrary lattice vectors, not only unit directions.  A single
    counterclockwise step maps ``(x, y)`` to ``(-y, x + y)``.
    """
    x, y = delta
    for _ in range(steps % NUM_DIRECTIONS):
        x, y = -y, x + y
    return (x, y)


def rotate_cw(delta: Node, steps: int = 1) -> Node:
    """Rotate the lattice vector ``delta`` by ``steps * 60`` degrees clockwise."""
    return rotate_ccw(delta, (-steps) % NUM_DIRECTIONS)


def common_neighbors(a: Node, b: Node) -> tuple[Node, Node]:
    """Return the two lattice nodes adjacent to both adjacent nodes ``a`` and ``b``.

    On the triangular lattice every edge lies in exactly two triangular
    faces, so two adjacent nodes always have exactly two common neighbors.
    """
    delta = subtract(b, a)
    if delta not in _DIRECTION_INDEX:
        raise LatticeError(f"nodes {a!r} and {b!r} are not adjacent")
    return (add(a, rotate_ccw(delta)), add(a, rotate_cw(delta)))


def hex_distance(a: Node, b: Node) -> int:
    """Return the graph (hop) distance between ``a`` and ``b`` on ``G_Delta``.

    Using cube coordinates ``(x, y, -x-y)``, the distance is half the L1
    norm of the difference.
    """
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    dz = -dx - dy
    return (abs(dx) + abs(dy) + abs(dz)) // 2


def to_cartesian(node: Node) -> tuple[float, float]:
    """Return the Cartesian embedding of ``node`` (unit edge length)."""
    x, y = node
    return (x + 0.5 * y, _SQRT3_OVER_2 * y)


def triangle_faces_at(node: Node) -> tuple[tuple[Node, Node, Node], tuple[Node, Node, Node]]:
    """Return the two canonical triangular faces anchored at ``node``.

    Every triangular face of ``G_Delta`` has a unique bottom-left anchor
    node; the "up" face is ``{v, v+E, v+NE}`` and the "down" face is
    ``{v, v+E, v+SE}``.  Iterating these two faces over all nodes visits
    each face of the lattice exactly once, which is how the configuration
    triangle count ``t(sigma)`` is computed.
    """
    x, y = node
    up = (node, (x + 1, y), (x, y + 1))
    down = (node, (x + 1, y), (x + 1, y - 1))
    return (up, down)


def nodes_bounding_box(nodes: Iterable[Node]) -> tuple[int, int, int, int]:
    """Return ``(min_x, min_y, max_x, max_y)`` over ``nodes``.

    Raises
    ------
    LatticeError
        If ``nodes`` is empty.
    """
    it = iter(nodes)
    try:
        first = next(it)
    except StopIteration as exc:
        raise LatticeError("cannot compute the bounding box of an empty node set") from exc
    min_x = max_x = first[0]
    min_y = max_y = first[1]
    for x, y in it:
        if x < min_x:
            min_x = x
        elif x > max_x:
            max_x = x
        if y < min_y:
            min_y = y
        elif y > max_y:
            max_y = y
    return (min_x, min_y, max_x, max_y)


def translate(nodes: Iterable[Node], delta: Node) -> frozenset[Node]:
    """Translate every node in ``nodes`` by ``delta``."""
    dx, dy = delta
    return frozenset((x + dx, y + dy) for x, y in nodes)


def canonical_translation(nodes: Iterable[Node]) -> frozenset[Node]:
    """Translate ``nodes`` so the bounding box corner is at the origin.

    Two node sets are translations of each other iff their canonical
    translations are equal; this realizes the paper's notion of a particle
    system *configuration* (an equivalence class of arrangements under
    translation, Section 2.2).
    """
    node_list = list(nodes)
    min_x, min_y, _, _ = nodes_bounding_box(node_list)
    return frozenset((x - min_x, y - min_y) for x, y in node_list)
