"""The amoebot system simulator: particles + scheduler + Algorithm A.

:class:`AmoebotSystem` wires together the particle records, the Poisson
activation scheduler and the per-particle compression rule, and maintains
the global occupancy map.  Although the simulator holds global state, the
decision logic of each particle only ever receives the local
:class:`~repro.amoebot.local_algorithm.NeighborhoodView`, so the
implementation mirrors the model's information constraints.

The paper's Section 3.2 argues that executions of Algorithm A and of the
Markov chain M are equivalent: treating every expanded particle as
contracted at its tail turns any reachable system state into a
configuration reachable by M with the same perimeter.  The test suite
checks the invariants implied by that argument (tail-configuration
connectivity, no new holes once hole-free, perimeter trajectories
comparable to the chain's).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.amoebot.local_algorithm import (
    Action,
    CompressionAlgorithm,
    ContractBack,
    ContractForward,
    Expand,
    Idle,
    NeighborhoodView,
)
from repro.amoebot.particle import Particle
from repro.amoebot.scheduler import PoissonScheduler
from repro.errors import ConfigurationError, SchedulerError
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.geometry import max_perimeter, min_perimeter
from repro.lattice.triangular import Node, neighbors
from repro.rng import (
    DEFAULT_ACTIVATION_BLOCK,
    BatchedActivationDraws,
    RandomState,
    make_rng,
)


@dataclass
class SystemStats:
    """Counters describing one simulation run."""

    activations: int = 0
    expansions: int = 0
    completed_moves: int = 0
    aborted_moves: int = 0
    idle_activations: int = 0


class AmoebotSystem:
    """A self-organizing particle system executing Algorithm A.

    Parameters
    ----------
    initial:
        The initial (connected) configuration; every particle starts
        contracted.
    lam:
        Compression bias parameter.
    seed:
        Seed or generator for reproducibility; drives both the scheduler
        and the particles' own coin flips.
    rates:
        Optional per-particle Poisson rates keyed by particle identifier
        (identifiers are assigned in sorted node order, starting at 0).
    draw_block:
        Block size of the batched randomness tapes (scheduler race and
        per-activation ``(direction, uniform)`` pairs).  Engines being
        compared in differential tests must use the same value.
    """

    def __init__(
        self,
        initial: ParticleConfiguration,
        lam: float,
        seed: RandomState = None,
        rates: Optional[Dict[int, float]] = None,
        draw_block: int = DEFAULT_ACTIVATION_BLOCK,
    ) -> None:
        if not initial.is_connected:
            raise ConfigurationError("the initial configuration must be connected")
        self.lam = float(lam)
        if self.lam <= 0:
            raise ConfigurationError(f"lambda must be positive, got {lam}")
        self._rng = make_rng(seed)
        self.algorithm = CompressionAlgorithm(lam)
        self.particles: Dict[int, Particle] = {}
        # Every occupied node (head or tail) and the particle and role there.
        self._occupancy: Dict[Node, Tuple[int, str]] = {}
        for identifier, node in enumerate(sorted(initial.nodes)):
            particle = Particle(identifier=identifier, tail=node)
            self.particles[identifier] = particle
            self._occupancy[node] = (identifier, "tail")
        self.scheduler = PoissonScheduler(
            sorted(self.particles), rates=rates, seed=self._rng, draw_block=draw_block
        )
        # One (direction, uniform) pair per delivered activation, consumed
        # unconditionally — the shared protocol that keeps this simulator
        # and FastAmoebotSystem bit-identical for equal seeds.
        self._draws = BatchedActivationDraws(self._rng, block=draw_block)
        self.stats = SystemStats()
        self.n = len(self.particles)
        self._pmin = min_perimeter(self.n)
        self._pmax = max_perimeter(self.n)
        # Metric caches; _apply invalidates them on applied actions so the
        # metrics polling inside run-loops stops being O(n) per call.
        self._occupied_cache: Optional[frozenset[Node]] = frozenset(self._occupancy)
        self._configuration_cache: Optional[ParticleConfiguration] = initial
        self._perimeter_cache: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    @property
    def configuration(self) -> ParticleConfiguration:
        """The current configuration: tail locations only (Section 2.2).

        Cached between tail-changing actions (only a completed move —
        ``ContractForward`` — moves a tail).
        """
        if self._configuration_cache is None:
            self._configuration_cache = ParticleConfiguration(
                p.tail for p in self.particles.values()
            )
        return self._configuration_cache

    @property
    def particle_ids(self) -> List[int]:
        """All particle identifiers, sorted (shared with the fast engine)."""
        return sorted(self.particles)

    def occupied_nodes(self) -> frozenset[Node]:
        """All nodes currently occupied (heads and tails); cached between actions."""
        if self._occupied_cache is None:
            self._occupied_cache = frozenset(self._occupancy)
        return self._occupied_cache

    def perimeter(self) -> int:
        """The perimeter of the tail configuration (cached between completed moves)."""
        if self._perimeter_cache is None:
            self._perimeter_cache = self.configuration.perimeter
        return self._perimeter_cache

    def compression_ratio(self) -> float:
        """``p(sigma) / pmin(n)`` for the current tail configuration."""
        if self._pmin == 0:
            return 1.0
        return self.perimeter() / self._pmin

    def expanded_particles(self) -> List[int]:
        """Identifiers of currently expanded particles."""
        return [p.identifier for p in self.particles.values() if p.is_expanded]

    def tails(self) -> List[Node]:
        """Tail node per particle, in identifier order (differential harness probe)."""
        return [self.particles[i].tail for i in sorted(self.particles)]

    def heads(self) -> List[Optional[Node]]:
        """Head node (or ``None``) per particle, in identifier order."""
        return [self.particles[i].head for i in sorted(self.particles)]

    def flags(self) -> List[bool]:
        """Flag bit per particle, in identifier order."""
        return [self.particles[i].flag for i in sorted(self.particles)]

    # ------------------------------------------------------------------ #
    # Dynamics
    # ------------------------------------------------------------------ #
    def step(self) -> Action:
        """Deliver one activation to the next scheduled particle and apply its action."""
        activation = self.scheduler.next()
        direction, uniform = self._draws.draw()
        particle = self.particles[activation.particle_id]
        self.stats.activations += 1
        if particle.crashed:
            self.stats.idle_activations += 1
            return Idle()
        if particle.byzantine:
            action = self._byzantine_action(particle)
        else:
            view = self._view(particle)
            action = self.algorithm.decide(view, direction, uniform)
        self._apply(particle, action)
        return action

    def run(self, activations: int) -> None:
        """Deliver a fixed number of activations."""
        if activations < 0:
            raise ConfigurationError("activations must be non-negative")
        for _ in range(activations):
            self.step()

    def run_rounds(self, rounds: int) -> None:
        """Run until the given number of additional asynchronous rounds completes."""
        if rounds < 0:
            raise ConfigurationError("rounds must be non-negative")
        target = self.scheduler.rounds_completed + rounds
        while self.scheduler.rounds_completed < target:
            self.step()

    # ------------------------------------------------------------------ #
    # Fault injection hooks (see repro.amoebot.faults)
    # ------------------------------------------------------------------ #
    def crash(self, particle_id: int) -> None:
        """Crash a particle: it stops responding to activations forever.

        An expanded particle is contracted back to its tail first so that
        the occupancy map stays consistent; thereafter it acts as a fixed
        obstacle, which is the behaviour Section 3.3 describes.
        """
        particle = self.particles[particle_id]
        if particle.is_expanded:
            self._apply(particle, ContractBack())
        particle.crashed = True
        self.scheduler.pause(particle_id)

    def mark_byzantine(self, particle_id: int) -> None:
        """Mark a particle as Byzantine; its behaviour is supplied by the fault model."""
        self.particles[particle_id].byzantine = True

    def _byzantine_action(self, particle: Particle) -> Action:
        """Default Byzantine behaviour: refuse to move and keep the flag poisoned.

        Section 3.3 argues Byzantine particles cannot corrupt others because
        communication is limited to reading flags; the worst they can do is
        act as fixed points.  Richer adversaries can be modelled by
        subclassing :class:`AmoebotSystem` or via
        :mod:`repro.amoebot.faults`.
        """
        particle.flag = False
        self.stats.idle_activations += 1
        return Idle()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _view(self, particle: Particle) -> NeighborhoodView:
        nodes = particle.occupied_nodes()
        adjacent: set[Node] = set()
        for node in nodes:
            adjacent.update(neighbors(node))
        adjacent -= set(nodes)
        occupied: set[Node] = set()
        heads: set[Node] = set()
        tails_of_expanded: set[Node] = set()
        for node in adjacent:
            entry = self._occupancy.get(node)
            if entry is None:
                continue
            other_id, role = entry
            if other_id == particle.identifier:
                continue
            occupied.add(node)
            other = self.particles[other_id]
            if other.is_expanded:
                if role == "head":
                    heads.add(node)
                else:
                    tails_of_expanded.add(node)
        return NeighborhoodView(
            tail=particle.tail,
            head=particle.head,
            occupied=frozenset(occupied),
            expanded_heads=frozenset(heads),
            expanded_tails=frozenset(tails_of_expanded),
            flag=particle.flag,
        )

    def _apply(self, particle: Particle, action: Action) -> None:
        if isinstance(action, Idle):
            if not particle.crashed and not particle.byzantine:
                self.stats.idle_activations += 1
            return
        if isinstance(action, Expand):
            if action.target in self._occupancy:
                # Another particle occupies the target (conflict resolution:
                # the expansion simply does not happen).
                self.stats.idle_activations += 1
                return
            particle.expand(action.target)
            self._occupancy[action.target] = (particle.identifier, "head")
            self._occupancy[particle.tail] = (particle.identifier, "tail")
            self._occupied_cache = None  # tails unchanged: keep configuration cache
            particle.flag = self.algorithm.flag_after_expansion(self._view(particle))
            self.stats.expansions += 1
            return
        if isinstance(action, ContractForward):
            if particle.head is None:
                raise SchedulerError("cannot contract a contracted particle")
            vacated = particle.tail
            del self._occupancy[vacated]
            particle.contract_forward()
            self._occupancy[particle.tail] = (particle.identifier, "tail")
            particle.flag = False
            self.stats.completed_moves += 1
            self._occupied_cache = None
            self._configuration_cache = None
            self._perimeter_cache = None
            return
        if isinstance(action, ContractBack):
            if particle.head is None:
                raise SchedulerError("cannot contract a contracted particle")
            vacated = particle.head
            del self._occupancy[vacated]
            particle.contract_back()
            self._occupancy[particle.tail] = (particle.identifier, "tail")
            particle.flag = False
            self.stats.aborted_moves += 1
            self._occupied_cache = None  # tails unchanged: keep configuration cache
            return
        raise SchedulerError(f"unknown action {action!r}")
