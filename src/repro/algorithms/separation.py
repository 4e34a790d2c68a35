"""Separation of heterogeneous (colored) particle systems, after [9].

The paper's conclusion describes the separation problem: particles carry
colors and the goal is for the colors either to intermingle or to
segregate into monochromatic clusters, controlled by two biases.  Cannon,
Daymude, Gokmen, Randall and Richa [9] solve it with the same stochastic
approach used for compression.  This module implements that chain:

* the state is a connected configuration plus a color per particle;
* a *movement* move is exactly a compression move, accepted with
  probability ``min(1, lambda^(e'-e) * gamma^(a'-a))`` where ``a`` counts
  same-color (homogeneous) edges;
* a *swap* move exchanges the colors of two adjacent particles, accepted
  with probability ``min(1, gamma^(a'-a))``.

For ``gamma > 1`` the chain favors homogeneous neighborhoods
(segregation); ``gamma < 1`` favors mixed neighborhoods (integration); and
``lambda`` plays its usual compression role.

:class:`SeparationMarkovChain` is a thin wrapper over the shared engine
stack: the chain-specific weight lives in
:class:`repro.core.kernels.SeparationKernel`, and ``engine="reference"``
(hash-map state, literal property checks) or ``engine="fast"`` (dense
grid, move tables, color byte plane, and the compiled ``edge_color``
loop — fastest at every n; ``"vector"`` is its alias key) selects the
execution engine.  Both consume the two-lane batched draw tape, so for
equal seeds they produce bit-identical trajectories — the same
differential contract the compression engines obey
(``tests/algorithms/test_separation_engines.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

from repro.core.compression import ENGINES
from repro.core.kernels import SeparationKernel
from repro.core.markov_chain import StepResult
from repro.errors import AlgorithmError, ConfigurationError
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.triangular import Node
from repro.rng import DEFAULT_DRAW_BLOCK, RandomState, make_rng

@dataclass(frozen=True)
class ColoredConfiguration:
    """A particle configuration together with an integer color per node."""

    colors: Dict[Node, int]

    def __post_init__(self) -> None:
        if not self.colors:
            raise ConfigurationError("a colored configuration must contain at least one particle")

    @property
    def nodes(self) -> FrozenSet[Node]:
        """The occupied nodes."""
        return frozenset(self.colors)

    @property
    def configuration(self) -> ParticleConfiguration:
        """The underlying (uncolored) configuration."""
        return ParticleConfiguration(self.colors)

    def color_counts(self) -> Dict[int, int]:
        """Number of particles of each color."""
        counts: Dict[int, int] = {}
        for color in self.colors.values():
            counts[color] = counts.get(color, 0) + 1
        return counts

    def homogeneous_edges(self) -> int:
        """Number of induced edges whose endpoints have the same color."""
        count = 0
        for node, color in self.colors.items():
            x, y = node
            for nb in ((x + 1, y), (x, y + 1), (x - 1, y + 1)):
                if self.colors.get(nb) == color:
                    count += 1
        return count

    def heterogeneous_edges(self) -> int:
        """Number of induced edges whose endpoints have different colors."""
        return self.configuration.edge_count - self.homogeneous_edges()

    @classmethod
    def halves(cls, configuration: ParticleConfiguration) -> "ColoredConfiguration":
        """Color the left half of the configuration 0 and the right half 1 (a segregated start)."""
        ordered = sorted(configuration.nodes)
        half = len(ordered) // 2
        colors = {node: (0 if index < half else 1) for index, node in enumerate(ordered)}
        return cls(colors)

    @classmethod
    def random_colors(
        cls,
        configuration: ParticleConfiguration,
        num_colors: int = 2,
        seed: RandomState = None,
    ) -> "ColoredConfiguration":
        """Assign colors uniformly at random (a well-mixed start)."""
        if num_colors < 1:
            raise ConfigurationError("need at least one color")
        rng = make_rng(seed)
        colors = {
            node: int(rng.integers(0, num_colors)) for node in sorted(configuration.nodes)
        }
        return cls(colors)


class SeparationMarkovChain:
    """The separation chain of [9]: compression bias ``lam``, homogeneity bias ``gamma``.

    A thin wrapper binding a :class:`~repro.core.kernels.SeparationKernel`
    to one of the shared engines; all dynamics (structural move filter,
    draw protocol, byte planes) live in the engine stack.

    Parameters
    ----------
    initial:
        Colored starting configuration (underlying configuration must be
        connected).
    lam:
        Compression bias; ``lam > 2 + sqrt(2)`` keeps the system compressed.
    gamma:
        Homogeneity bias; ``gamma > 1`` favors separation into
        monochromatic clusters, ``gamma < 1`` favors integration.
    swap_probability:
        Probability that an iteration attempts a color swap instead of a
        particle movement.
    seed:
        Seed or generator for reproducible runs.
    engine:
        ``"reference"`` (default), ``"fast"`` or its alias ``"vector"``
        — any key of :data:`repro.core.ENGINES`; bit-identical
        trajectories for equal seeds.  ``fast`` runs a compiled loop,
        orders of magnitude above ``reference`` (see
        ``benchmarks/BENCH_chain.json``).
    draw_block:
        Block size of the batched draw tape (engines compared in
        differential tests must use equal blocks).
    """

    def __init__(
        self,
        initial: ColoredConfiguration,
        lam: float,
        gamma: float,
        swap_probability: float = 0.5,
        seed: RandomState = None,
        engine: str = "reference",
        draw_block: int = DEFAULT_DRAW_BLOCK,
    ) -> None:
        try:
            engine_factory = ENGINES[engine]
        except KeyError:
            raise ConfigurationError(
                f"unknown separation engine {engine!r}; "
                f"expected one of {sorted(ENGINES)}"
            ) from None
        kernel = SeparationKernel(
            lam=lam,
            gamma=gamma,
            colors=initial.colors,
            swap_probability=swap_probability,
        )
        self.engine = engine
        self.lam = kernel.lam
        self.gamma = kernel.gamma
        self.swap_probability = kernel.swap_probability
        self.chain = engine_factory(
            initial.configuration,
            seed=seed,
            draw_block=draw_block,
            kernel=kernel,
        )

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> ColoredConfiguration:
        """The current colored configuration."""
        return ColoredConfiguration(self.chain.color_map())

    @property
    def iterations(self) -> int:
        """Iterations performed so far."""
        return self.chain.iterations

    @property
    def accepted_moves(self) -> int:
        """Accepted particle movements."""
        return self.chain.accepted_moves

    @property
    def accepted_swaps(self) -> int:
        """Accepted color swaps."""
        return self.chain.accepted_swaps

    # ------------------------------------------------------------------ #
    # Dynamics
    # ------------------------------------------------------------------ #
    def step(self) -> StepResult:
        """Perform one iteration: a movement attempt or a color-swap attempt."""
        return self.chain.step()

    def run(self, iterations: int) -> None:
        """Perform a number of iterations."""
        if iterations < 0:
            raise AlgorithmError("iterations must be non-negative")
        self.chain.run(iterations)
