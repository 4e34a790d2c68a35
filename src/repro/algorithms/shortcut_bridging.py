"""Shortcut bridging on heterogeneous terrain, after [2].

Army ants build living bridges across gaps, trading a shorter foraging
path against the number of workers locked up in the bridge.  Andres
Arroyo, Cannon, Daymude, Randall and Richa [2] model this with the same
stochastic approach as compression: the lattice is partitioned into *land*
and *gap* nodes, and the chain's weight penalizes both perimeter and the
portion of the boundary that lies over the gap,

    w(sigma) = lambda^{-p(sigma)} * gamma^{-g(sigma)},

where ``g(sigma)`` counts the perimeter contribution over gap nodes.  For
``gamma > 1`` the system "dislikes" hanging over the gap and shortens the
bridge; the competition with ``lambda`` reproduces the ants'
cost/benefit trade-off.

Locally, a particle move changes the weight by
``lambda^(e' - e) * gamma^(c(l) - c(l'))`` where ``c(v)`` is 1 on gap
nodes and 0 on land (moving off the gap is rewarded), which keeps the
algorithm purely local.  This is a faithful simplification of [2]'s
perimeter-weighted objective; ``docs/DESIGN.md`` records the
substitution.

:class:`BridgingMarkovChain` is a thin wrapper over the shared engine
stack: the terrain weight lives in
:class:`repro.core.kernels.BridgingKernel`, and ``engine="reference"``
or ``engine="fast"`` (terrain byte plane over the dense grid, read by
the compiled ``edge_site`` loop — fastest at every n; ``"vector"`` is
its alias key) selects the execution engine — bit-identical
trajectories for equal seeds, enforced by
``tests/algorithms/test_bridging_engines.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Set

from repro.core.compression import ENGINES
from repro.core.kernels import BridgingKernel
from repro.errors import AlgorithmError, ConfigurationError
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.triangular import Node, neighbors
from repro.rng import DEFAULT_DRAW_BLOCK, RandomState

@dataclass(frozen=True)
class Terrain:
    """A partition of the lattice into land and gap nodes.

    Attributes
    ----------
    land:
        The set of land nodes.  Every node not in ``land`` is gap.
    anchors:
        Two designated land nodes (e.g. the tips of a V) that the bridge
        should keep connected; used by the metrics, not by the dynamics.
    """

    land: FrozenSet[Node]
    anchors: tuple[Node, Node]

    def is_gap(self, node: Node) -> bool:
        """Whether ``node`` lies over the gap."""
        return node not in self.land

    def site_weight(self, node: Node) -> int:
        """``c(node)``: 1 over the gap, 0 on land (the chain's site weight)."""
        return 0 if node in self.land else 1

    def gap_occupancy(self, configuration: ParticleConfiguration) -> int:
        """Number of particles currently sitting on gap nodes.

        The from-scratch reference computation of ``g(sigma)`` under the
        site-weighted substitution (see ``docs/DESIGN.md``); the engines
        maintain the same quantity incrementally, and the invariant tests
        check the two against each other on random configurations.
        """
        return sum(1 for node in configuration.nodes if self.is_gap(node))


def v_shaped_terrain(arm_length: int, opening: int = 2) -> Terrain:
    """The classic V-shaped land terrain of the shortcut-bridging experiments.

    Two land arms meet at an apex; the region between them is gap.  The
    anchors are the two arm tips.  ``opening`` controls how wide the V is
    (in lattice rows per column step).
    """
    if arm_length < 2:
        raise AlgorithmError("arm_length must be at least 2")
    if opening < 1:
        raise AlgorithmError("opening must be at least 1")
    land: Set[Node] = set()
    # Apex at the origin; arms go up-right and down-right with a thickness
    # of two rows so the arms themselves can host particles comfortably.
    for step in range(arm_length + 1):
        upper = (step, step * opening // 2)
        lower = (step + step * opening // 2, -(step * opening // 2))
        for base in (upper, lower):
            land.add(base)
            for nb in neighbors(base):
                land.add(nb)
    upper_tip = (arm_length, arm_length * opening // 2)
    lower_tip = (arm_length + arm_length * opening // 2, -(arm_length * opening // 2))
    return Terrain(land=frozenset(land), anchors=(upper_tip, lower_tip))


def initial_bridge_configuration(terrain: Terrain, n: int) -> ParticleConfiguration:
    """Place ``n`` particles on land, hugging the terrain starting from the apex.

    Grows a connected cluster by breadth-first search over land nodes from
    the land node closest to the midpoint of the anchors (the apex of a V).
    Used as the standard starting state of the bridging experiments: the
    system begins entirely on land and must decide how far to bridge the
    gap.
    """
    if n < 1:
        raise AlgorithmError("need at least one particle")
    from collections import deque

    midpoint = (
        (terrain.anchors[0][0] + terrain.anchors[1][0]) / 2.0,
        (terrain.anchors[0][1] + terrain.anchors[1][1]) / 2.0,
    )
    start = min(
        terrain.land,
        key=lambda node: (node[0] - midpoint[0]) ** 2 + (node[1] - midpoint[1]) ** 2,
    )
    chosen: Set[Node] = {start}
    queue = deque([start])
    while queue and len(chosen) < n:
        current = queue.popleft()
        for nb in neighbors(current):
            if nb in terrain.land and nb not in chosen:
                chosen.add(nb)
                queue.append(nb)
                if len(chosen) == n:
                    break
    if len(chosen) < n:
        raise AlgorithmError(
            f"terrain has only {len(chosen)} reachable land nodes; cannot place {n} particles"
        )
    return ParticleConfiguration(chosen)


class BridgingMarkovChain:
    """The shortcut-bridging chain: compression bias ``lam``, gap aversion ``gamma``.

    A thin wrapper binding a :class:`~repro.core.kernels.BridgingKernel`
    to one of the shared engines; all dynamics (structural move filter,
    draw protocol, terrain plane) live in the engine stack.

    Parameters
    ----------
    initial:
        Connected starting configuration (typically hugging the land arms).
    terrain:
        The land/gap partition.
    lam:
        Compression bias (``> 2 + sqrt(2)`` keeps the system gathered).
    gamma:
        Gap aversion; larger values pull the bridge back toward land,
        shortening the shortcut.
    seed:
        Seed or generator for reproducible runs.
    engine:
        ``"reference"`` (default), ``"fast"`` or its alias ``"vector"``
        — any key of :data:`repro.core.ENGINES`; bit-identical
        trajectories for equal seeds.
    draw_block:
        Block size of the batched draw tape.
    """

    def __init__(
        self,
        initial: ParticleConfiguration,
        terrain: Terrain,
        lam: float,
        gamma: float,
        seed: RandomState = None,
        engine: str = "reference",
        draw_block: int = DEFAULT_DRAW_BLOCK,
    ) -> None:
        try:
            engine_factory = ENGINES[engine]
        except KeyError:
            raise ConfigurationError(
                f"unknown bridging engine {engine!r}; "
                f"expected one of {sorted(ENGINES)}"
            ) from None
        kernel = BridgingKernel(lam=lam, gamma=gamma, land=terrain.land)
        self.terrain = terrain
        self.engine = engine
        self.lam = kernel.lam
        self.gamma = kernel.gamma
        self.chain = engine_factory(
            initial,
            seed=seed,
            draw_block=draw_block,
            kernel=kernel,
        )

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    @property
    def configuration(self) -> ParticleConfiguration:
        """The current configuration."""
        return self.chain.configuration

    @property
    def iterations(self) -> int:
        """Iterations performed so far."""
        return self.chain.iterations

    @property
    def accepted_moves(self) -> int:
        """Accepted particle movements."""
        return self.chain.accepted_moves

    def gap_occupancy(self) -> int:
        """Number of particles currently over the gap (the "bridge cost").

        Maintained incrementally by the engine (one addition per accepted
        move); equal to ``terrain.gap_occupancy(configuration)`` recomputed
        from scratch, which the invariant tests enforce.
        """
        return self.chain.site_count

    def g_sigma(self) -> int:
        """``g(sigma)`` under the site-weighted substitution of the fast path.

        The quantity the chain's weight actually penalizes:
        ``w(sigma) ∝ lambda^{e(sigma)} * gamma^{-g(sigma)}`` with
        ``g(sigma) = sum_{l in sigma} c(l)``, i.e. :meth:`gap_occupancy`.
        See ``docs/DESIGN.md`` for how this relates to [2]'s
        perimeter-weighted ``g``.
        """
        return self.chain.site_count

    def anchor_path_length(self) -> Optional[int]:
        """Length of the shortest path between the anchors through occupied nodes.

        Returns ``None`` when the anchors are not connected through the
        particle structure.  Shorter values mean a more effective shortcut
        (the "benefit" side of the ants' trade-off).
        """
        from collections import deque

        occupied = self.chain.occupied
        start, goal = self.terrain.anchors
        sources = [node for node in occupied if node == start or start in neighbors(node)]
        if not sources:
            return None
        seen = {node: 0 for node in sources}
        queue = deque(sources)
        while queue:
            node = queue.popleft()
            if node == goal or goal in neighbors(node):
                return seen[node]
            for nb in neighbors(node):
                if nb in occupied and nb not in seen:
                    seen[nb] = seen[node] + 1
                    queue.append(nb)
        return None

    # ------------------------------------------------------------------ #
    # Dynamics
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """One iteration; returns ``True`` when a particle moved."""
        return self.chain.step().moved

    def run(self, iterations: int) -> None:
        """Perform a number of iterations."""
        if iterations < 0:
            raise AlgorithmError("iterations must be non-negative")
        self.chain.run(iterations)
