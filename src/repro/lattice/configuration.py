"""Particle configurations on the triangular lattice.

A :class:`ParticleConfiguration` is an immutable set of occupied lattice
nodes together with cached derived quantities: the number of induced edges
``e(sigma)``, the number of induced triangles ``t(sigma)``, the perimeter
``p(sigma)``, connectivity and holes.  It realizes the paper's notion of a
particle system *arrangement*; the translation-equivalence class (the
*configuration* of Section 2.2) is obtained through :meth:`canonical`.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import chain
from typing import AbstractSet, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, DisconnectedConfigurationError, InvalidMoveError
from repro.lattice import boundary as boundary_module
from repro.lattice import holes as holes_module
from repro.lattice.triangular import (
    Node,
    are_adjacent,
    canonical_translation,
    neighbors,
    nodes_bounding_box,
    to_cartesian,
)


class ParticleConfiguration:
    """An immutable set of particle positions on the triangular lattice.

    Parameters
    ----------
    nodes:
        The occupied lattice nodes, as any iterable of ``(x, y)`` pairs
        (read once, so a generator will do).  Must be non-empty and free
        of duplicates; nodes that coincide once converted to ``int``
        count as duplicates, and any repeat raises.

    Notes
    -----
    Instances are hashable and compare equal when they occupy exactly the
    same nodes (i.e. equality is on *arrangements*).  Use
    :meth:`canonical` before comparing configurations up to translation.

    Besides the frozenset :attr:`nodes`, an instance keeps the nodes as a
    tuple in the order they were given, which is what
    :func:`repro.core.fast_chain.occupy` reads coordinates off.  When
    every given node is already an exact ``tuple`` holding two exact
    ``int`` values, that tuple holds the caller's own node objects; the
    check is three ``set(map(...))`` passes that run at C speed.  Any
    other input (lists, numpy integers, ``bool``, floats, tuple
    subclasses) is normalized node by node with ``(int(x), int(y))``,
    which is the specification.
    """

    __slots__ = ("_nodes", "_ordered", "__dict__")

    def __init__(self, nodes: Iterable[Node]):
        ordered = tuple(nodes)
        if not (
            set(map(type, ordered)) == {tuple}
            and set(map(len, ordered)) == {2}
            and set(map(type, chain.from_iterable(ordered))) == {int}
        ):
            ordered = tuple([(int(x), int(y)) for x, y in ordered])
        node_set = frozenset(ordered)
        if not node_set:
            raise ConfigurationError("a particle configuration must contain at least one particle")
        if len(node_set) != len(ordered):
            raise ConfigurationError("duplicate particle positions supplied")
        self._nodes: FrozenSet[Node] = node_set
        self._ordered: Tuple[Node, ...] = ordered

    def __reduce__(self):
        # The nodes travel once, in the given order; cached properties are
        # recomputed on demand after unpickling.
        return (type(self), (self._ordered,))

    # ------------------------------------------------------------------ #
    # Basic container protocol
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> FrozenSet[Node]:
        """The frozenset of occupied nodes."""
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __contains__(self, node: object) -> bool:
        return node in self._nodes

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ParticleConfiguration):
            return self._nodes == other._nodes
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._nodes)

    def __repr__(self) -> str:
        return f"ParticleConfiguration(n={len(self)}, nodes={sorted(self._nodes)!r})"

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of particles."""
        return len(self._nodes)

    @cached_property
    def edge_count(self) -> int:
        """Number of induced lattice edges ``e(sigma)``."""
        count = 0
        for node in self._nodes:
            x, y = node
            # Count each edge once by only looking at three of the six
            # directions (E, NE, NW); the opposite directions are covered
            # from the other endpoint.
            for nb in ((x + 1, y), (x, y + 1), (x - 1, y + 1)):
                if nb in self._nodes:
                    count += 1
        return count

    @cached_property
    def triangle_count(self) -> int:
        """Number of induced triangular faces ``t(sigma)``."""
        count = 0
        for node in self._nodes:
            x, y = node
            east = (x + 1, y)
            if east not in self._nodes:
                continue
            if (x, y + 1) in self._nodes:
                count += 1
            if (x + 1, y - 1) in self._nodes:
                count += 1
        return count

    @cached_property
    def is_connected(self) -> bool:
        """Whether the configuration graph is connected."""
        start = next(iter(self._nodes))
        seen = {start}
        queue: deque[Node] = deque([start])
        while queue:
            current = queue.popleft()
            for nb in neighbors(current):
                if nb in self._nodes and nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        return len(seen) == len(self._nodes)

    @cached_property
    def holes(self) -> Tuple[FrozenSet[Node], ...]:
        """The holes of the configuration (tuples of enclosed unoccupied cells)."""
        return tuple(holes_module.find_holes(self._nodes))

    @property
    def has_holes(self) -> bool:
        """Whether the configuration encloses at least one unoccupied cell."""
        return bool(self.holes)

    @property
    def is_hole_free(self) -> bool:
        """Whether the configuration has no holes (i.e. lies in ``Omega*``)."""
        return not self.holes

    @cached_property
    def perimeter(self) -> int:
        """Total perimeter ``p(sigma)`` (external boundary plus hole boundaries).

        Raises
        ------
        DisconnectedConfigurationError
            If the configuration is disconnected.
        """
        if not self.is_connected:
            raise DisconnectedConfigurationError(
                "perimeter is only defined for connected configurations"
            )
        return boundary_module.total_perimeter(self._nodes)

    @cached_property
    def external_boundary(self) -> boundary_module.BoundaryWalk:
        """The traced external boundary walk."""
        return boundary_module.external_boundary_walk(self._nodes)

    @cached_property
    def bounding_box(self) -> Tuple[int, int, int, int]:
        """``(min_x, min_y, max_x, max_y)`` of the occupied nodes."""
        return nodes_bounding_box(self._nodes)

    @cached_property
    def diameter(self) -> int:
        """Graph diameter (longest shortest path) of the configuration graph.

        Only intended for moderate configuration sizes; used to check the
        claim that alpha-compression implies ``O(sqrt(n))`` diameter.
        """
        if not self.is_connected:
            raise DisconnectedConfigurationError("diameter requires a connected configuration")
        best = 0
        for source in self._nodes:
            distances = self._bfs_distances(source)
            best = max(best, max(distances.values()))
        return best

    def _bfs_distances(self, source: Node) -> dict[Node, int]:
        distances = {source: 0}
        queue: deque[Node] = deque([source])
        while queue:
            current = queue.popleft()
            for nb in neighbors(current):
                if nb in self._nodes and nb not in distances:
                    distances[nb] = distances[current] + 1
                    queue.append(nb)
        return distances

    # ------------------------------------------------------------------ #
    # Local queries
    # ------------------------------------------------------------------ #
    def occupied_neighbors(self, node: Node) -> Tuple[Node, ...]:
        """Return the occupied neighbors of ``node`` (which need not be occupied)."""
        return tuple(nb for nb in neighbors(node) if nb in self._nodes)

    def degree(self, node: Node) -> int:
        """Return the number of occupied neighbors of ``node``."""
        return sum(1 for nb in neighbors(node) if nb in self._nodes)

    def empty_neighbors(self, node: Node) -> Tuple[Node, ...]:
        """Return the unoccupied neighbors of ``node``."""
        return tuple(nb for nb in neighbors(node) if nb not in self._nodes)

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def move(self, source: Node, target: Node) -> "ParticleConfiguration":
        """Return a new configuration with the particle at ``source`` moved to ``target``.

        The move must be to an adjacent unoccupied node; no other legality
        conditions (Properties 1/2 etc.) are checked here — those belong to
        :mod:`repro.core.moves`.
        """
        if source not in self._nodes:
            raise InvalidMoveError(f"no particle at {source!r}")
        if target in self._nodes:
            raise InvalidMoveError(f"target {target!r} is already occupied")
        if not are_adjacent(source, target):
            raise InvalidMoveError(f"{source!r} and {target!r} are not adjacent")
        new_nodes = set(self._nodes)
        new_nodes.discard(source)
        new_nodes.add(target)
        return ParticleConfiguration(new_nodes)

    def add(self, node: Node) -> "ParticleConfiguration":
        """Return a new configuration with ``node`` added."""
        if node in self._nodes:
            raise ConfigurationError(f"{node!r} is already occupied")
        return ParticleConfiguration(self._nodes | {node})

    def remove(self, node: Node) -> "ParticleConfiguration":
        """Return a new configuration with ``node`` removed."""
        if node not in self._nodes:
            raise ConfigurationError(f"{node!r} is not occupied")
        if len(self._nodes) == 1:
            raise ConfigurationError("cannot remove the last particle")
        return ParticleConfiguration(self._nodes - {node})

    def translate(self, delta: Node) -> "ParticleConfiguration":
        """Return the configuration translated by ``delta``."""
        dx, dy = delta
        return ParticleConfiguration((x + dx, y + dy) for x, y in self._nodes)

    def canonical(self) -> "ParticleConfiguration":
        """Return the translation-canonical representative of this configuration.

        Two arrangements are the same *configuration* in the paper's sense
        (Section 2.2) iff their canonical representatives are equal.
        """
        return ParticleConfiguration(canonical_translation(self._nodes))

    def to_cartesian(self) -> List[Tuple[float, float]]:
        """Return the Cartesian embedding of the occupied nodes (for rendering)."""
        return [to_cartesian(node) for node in sorted(self._nodes)]

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_sorted(cls, nodes: Sequence[Sequence[int]]) -> "ParticleConfiguration":
        """Build a configuration from a sequence of ``(x, y)`` pairs (e.g. JSON data)."""
        return cls((int(x), int(y)) for x, y in nodes)

    def sorted_nodes(self) -> List[Node]:
        """Return the occupied nodes sorted by ``(y, x)`` for stable serialization."""
        return sorted(self._nodes, key=lambda node: (node[1], node[0]))

    def require_connected(self) -> "ParticleConfiguration":
        """Return ``self`` if connected, otherwise raise.

        Convenience for algorithm entry points that require connectivity.
        """
        if not self.is_connected:
            raise DisconnectedConfigurationError("this operation requires a connected configuration")
        return self

    def require_hole_free(self) -> "ParticleConfiguration":
        """Return ``self`` if hole-free, otherwise raise."""
        if self.has_holes:
            raise ConfigurationError("this operation requires a hole-free configuration")
        return self
