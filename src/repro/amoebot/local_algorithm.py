"""Algorithm A: the local, distributed, asynchronous compression rule.

Each particle runs the same code on every activation, seeing only its own
constant-size memory and the memories of its immediate neighbors
(Section 3.2).  The information the rule consumes is packaged in a
:class:`NeighborhoodView`, which the simulator builds from global state
but which deliberately exposes nothing beyond what the amoebot model
allows a particle to read:

* which of the adjacent locations (of its tail, and of its head if
  expanded) are occupied;
* which of those occupants are *heads* of expanded particles (a particle
  can distinguish a neighbor's head from its tail);
* its own ``flag`` bit.

The rule returns an :class:`Action`; the simulator applies it atomically.
Keeping the decision logic separate from the simulator both mirrors the
model (computation happens inside the particle) and lets the fault module
substitute Byzantine behaviour without touching the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, Optional, Union

from repro.constants import FORBIDDEN_NEIGHBOR_COUNT
from repro.core.kernels import CompressionKernel
from repro.core.properties import satisfies_either_property
from repro.errors import AlgorithmError
from repro.lattice.triangular import DIRECTIONS, Node, add, neighbors


# --------------------------------------------------------------------------- #
# Actions
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Expand:
    """Expand into the adjacent unoccupied node ``target``.

    After the simulator applies the expansion, it calls
    :meth:`CompressionAlgorithm.flag_after_expansion` with the particle's
    new (expanded) view so the particle can write its flag bit — still
    within the same activation, exactly as in Steps 4-7 of Algorithm A.
    """

    target: Node


@dataclass(frozen=True)
class ContractForward:
    """Contract into the head, completing the move."""


@dataclass(frozen=True)
class ContractBack:
    """Contract back into the tail, abandoning the move."""


@dataclass(frozen=True)
class Idle:
    """Do nothing this activation."""


Action = Union[Expand, ContractForward, ContractBack, Idle]


# --------------------------------------------------------------------------- #
# The local view
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class NeighborhoodView:
    """What one particle can observe during an activation.

    Attributes
    ----------
    tail:
        The particle's tail location.
    head:
        The particle's head location, or ``None`` if contracted.
    occupied:
        Locations adjacent to the particle's node(s) that are occupied by
        *other* particles (either of their nodes).
    expanded_heads:
        The subset of ``occupied`` that are heads of expanded neighbors.
    expanded_tails:
        The subset of ``occupied`` that are tails of expanded neighbors.
    flag:
        The particle's own flag bit.
    """

    tail: Node
    head: Optional[Node]
    occupied: FrozenSet[Node]
    expanded_heads: FrozenSet[Node]
    expanded_tails: FrozenSet[Node]
    flag: bool

    def is_occupied(self, node: Node) -> bool:
        """Whether ``node`` is occupied by another particle (head or tail)."""
        return node in self.occupied

    def has_expanded_neighbor(self) -> bool:
        """Whether any neighbor of the particle's node(s) is currently expanded."""
        return bool(self.expanded_heads or self.expanded_tails)

    def effective_occupied(self) -> FrozenSet[Node]:
        """The occupied locations with heads of expanded neighbors removed.

        This realizes the ``N*`` notation of Algorithm A: neighbors that
        are mid-move are treated as if still contracted at their tails.
        """
        return self.occupied - self.expanded_heads


# --------------------------------------------------------------------------- #
# The compression rule
# --------------------------------------------------------------------------- #
class CompressionAlgorithm:
    """The per-particle compression rule of Algorithm A with bias ``lam``.

    The same instance is shared by all particles (the rule is homogeneous
    and stateless); per-particle state lives in the particle records.
    """

    def __init__(self, lam: float) -> None:
        if lam <= 0:
            raise AlgorithmError(f"lambda must be positive, got {lam}")
        self.lam = float(lam)
        # Algorithm M's table, min(1, lam ** delta) at [delta + 6]: every
        # uniform is below 1, so the clip changes no decision.
        self._acceptance = CompressionKernel(self.lam).acceptance_list()

    def decide(self, view: NeighborhoodView, direction_index: int, uniform: float) -> Action:
        """Execute one activation of Algorithm A as a pure function of its draws.

        The rule's one entry point.  Both amoebot engines feed it one
        ``(direction, uniform)`` pair per activation from the shared
        :class:`repro.rng.BatchedActivationDraws` tape — a contracted
        particle consumes the direction, an expanded one the uniform —
        which is what keeps their seeded trajectories bit-identical.
        """
        if view.head is None:
            return self._contracted_step(view, direction_index)
        return self._expanded_step(view, uniform)

    # ----------------------------- contracted ----------------------------- #
    def _contracted_step(self, view: NeighborhoodView, direction_index: int) -> Action:
        location = view.tail
        direction = DIRECTIONS[direction_index]
        target = add(location, direction)
        if view.is_occupied(target):
            return Idle()
        # Step 3: only expand if no neighbor is currently expanded.
        if view.has_expanded_neighbor():
            return Idle()
        return Expand(target=target)

    def flag_after_expansion(self, view: NeighborhoodView) -> bool:
        """Steps 5-7 of Algorithm A: set the flag just after expanding.

        The flag is ``True`` exactly when no particle adjacent to either of
        the two occupied locations is currently expanded; it guarantees the
        particle is the only one in its neighborhood completing a move.
        """
        return not view.has_expanded_neighbor()

    # ------------------------------ expanded ------------------------------ #
    def _expanded_step(self, view: NeighborhoodView, uniform: float) -> Action:
        tail, head = view.tail, view.head
        assert head is not None
        effective = view.effective_occupied()
        neighbors_at_tail = sum(
            1 for node in neighbors(tail) if node in effective and node != head
        )
        neighbors_at_head = sum(
            1 for node in neighbors(head) if node in effective and node != tail
        )
        if neighbors_at_tail == FORBIDDEN_NEIGHBOR_COUNT:
            return ContractBack()
        if not view.flag:
            return ContractBack()
        if not satisfies_either_property(effective, tail, head):
            return ContractBack()
        if uniform < self._acceptance[neighbors_at_head - neighbors_at_tail + 6]:
            return ContractForward()
        return ContractBack()
