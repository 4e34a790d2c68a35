"""Weight kernels: the swappable acceptance rule of the engine stack.

Algorithm M and its follow-up chains share everything *except* the
Metropolis acceptance weight.  One iteration of every chain in this family
picks a particle and a direction, applies the same structural move filter
(target vacancy, the five-neighbor rule, Property 1 or Property 2), and
then flips a Metropolis coin whose success probability is where the
chains differ:

* **compression** (this paper):  ``min(1, lambda^(e' - e))``;
* **shortcut bridging** (Andrés Arroyo, Cannon, Daymude, Randall, Richa
  [2]):  ``min(1, lambda^(e' - e) * gamma^(c(l) - c(l')))`` where ``c``
  is 1 on gap terrain and 0 on land;
* **separation** (Cannon, Daymude, Gökmen, Randall, Richa [9]):
  ``min(1, lambda^(e' - e) * gamma^(a' - a))`` where ``a`` counts
  same-color edges — plus a second move type, the *color swap*, accepted
  with ``min(1, gamma^(a' - a))``.

A :class:`WeightKernel` packages exactly that difference: the per-move
acceptance probability as precomputed tables over the small integer
deltas (``e' - e`` is in ``[-6, 6]``; the auxiliary deltas have similarly
tiny ranges), plus whatever auxiliary *byte plane* the weight reads — a
terrain plane for bridging, a color plane for separation — and the
declaration of extra move types (separation's swaps) with the draw-tape
lanes they consume.  Both engines — the hash-map reference
:class:`~repro.core.markov_chain.CompressionMarkovChain` and the
table-driven :class:`~repro.core.fast_chain.FastCompressionChain` with
its compiled loops — consume the same kernel tables, so for equal seeds
the two engines of *any* registered kernel mode produce bit-identical
trajectories, exactly like the compression engines always have.

Kernels are immutable parameter objects; all mutable chain state (the
occupancy grid, the auxiliary planes, counters) lives in the engines.
The three kernel *modes* an engine must know how to drive:

``"edge"``
    The weight depends only on the edge delta ``e' - e``.  One uniform
    lane, one 13-entry acceptance table.  (:class:`CompressionKernel`.)
``"edge_site"``
    The weight additionally reads a static 0/1 *site plane* at the
    source and target (``site_delta = site(l') - site(l)`` in
    ``{-1, 0, 1}``).  One uniform lane, a 3x13 acceptance table.
    (:class:`BridgingKernel`.)
``"edge_color"``
    The weight additionally reads a *color plane* (one byte per occupied
    node: color index + 1) around the move edge, and iterations split
    between movements and color swaps on a second uniform lane.  An
    11x13 movement table and a 21-entry swap table.
    (:class:`SeparationKernel`.)
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Tuple

from repro.errors import AlgorithmError, ConfigurationError
from repro.lattice.triangular import Node

#: Ways a movement proposal can fail, in the order the engines test them.
#: (Shared with :mod:`repro.core.markov_chain`, which re-exports the tuple
#: as ``REJECTION_REASONS`` for backward compatibility.)
MOVEMENT_REJECTION_REASONS = (
    "target_occupied",
    "five_neighbors",
    "property_failed",
    "metropolis_rejected",
)

#: Ways a color-swap proposal can fail, in the order the engines test them.
SWAP_REJECTION_REASONS = (
    "swap_target_empty",
    "swap_same_color",
    "swap_rejected",
)

#: The kernel modes the engines know how to drive.
KERNEL_MODES = ("edge", "edge_site", "edge_color")

#: Inclusive range of the edge delta ``e' - e`` (a node has six neighbors,
#: one of which is the other endpoint of the move edge).
EDGE_DELTA_RANGE = range(-6, 7)

#: Inclusive range of separation's movement homogeneity delta ``a' - a``.
COLOR_DELTA_RANGE = range(-5, 6)

#: Inclusive range of separation's swap homogeneity delta.
SWAP_DELTA_RANGE = range(-10, 11)


class WeightKernel:
    """Base class of the swappable acceptance rule consumed by the engines.

    Subclasses set the class attributes below and provide the acceptance
    tables for their mode.  All tables are plain nested lists of floats
    built from the same ``min(1.0, ...)`` expressions on both engine
    sides, which is what makes reference/fast trajectories bit-identical.

    Attributes
    ----------
    name:
        Stable identifier (used in job descriptions and benchmarks).
    mode:
        One of :data:`KERNEL_MODES`; tells an engine which inner loop to
        run and which auxiliary plane to maintain.
    lanes:
        Number of uniform lanes the kernel consumes from the
        :class:`repro.rng.BatchedMoveDraws` tape per iteration (2 when
        the kernel has a second move type).
    swap_probability:
        Probability that an iteration attempts the secondary move type
        instead of a movement (0.0 for single-move-type kernels).
    rejection_reasons:
        Every rejection reason an engine driving this kernel can report;
        the engines initialize their tally dicts from this tuple.
    """

    name: str = "abstract"
    mode: str = "edge"
    lanes: int = 1
    swap_probability: float = 0.0
    rejection_reasons: Tuple[str, ...] = MOVEMENT_REJECTION_REASONS

    def __init__(self, lam: float) -> None:
        if lam <= 0:
            raise ConfigurationError(f"lambda must be positive, got {lam}")
        self.lam = float(lam)

    # ------------------------------------------------------------------ #
    # Acceptance tables (mode "edge")
    # ------------------------------------------------------------------ #
    def acceptance_list(self) -> List[float]:
        """The 13-entry movement acceptance table, indexed ``[e_delta + 6]``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        params = ", ".join(
            f"{key}={value!r}"
            for key, value in sorted(vars(self).items())
            if not key.startswith("_")
        )
        return f"{type(self).__name__}({params})"


class CompressionKernel(WeightKernel):
    """The paper's compression weight ``min(1, lambda^(e' - e))``.

    The default kernel of every engine: constructing an engine without an
    explicit kernel builds one of these from the engine's ``lam``, and the
    resulting trajectories are bit-identical to the pre-kernel engines
    (pinned by the committed golden traces).
    """

    name = "compression"
    mode = "edge"

    def acceptance_list(self) -> List[float]:
        # The exact expression the engines always used, so the floats --
        # and therefore every Metropolis comparison -- are unchanged.
        return [min(1.0, self.lam ** delta) for delta in EDGE_DELTA_RANGE]


class BridgingKernel(WeightKernel):
    """The shortcut-bridging weight of [2] on land/gap terrain.

    A movement from ``l`` to ``l'`` is accepted with probability
    ``min(1, lambda^(e' - e) * gamma^(c(l) - c(l')))`` where ``c`` is 1 on
    gap nodes and 0 on land: moving off the gap is rewarded, onto it
    penalized.  This is the site-weighted form of [2]'s perimeter-weighted
    objective (see ``docs/DESIGN.md`` for the substitution note).

    Parameters
    ----------
    lam:
        Compression bias ``lambda > 0``.
    gamma:
        Gap aversion ``gamma > 0``; larger values pull the bridge back
        toward land.
    land:
        The set of land nodes; every other node is gap.
    """

    name = "bridging"
    mode = "edge_site"

    def __init__(self, lam: float, gamma: float, land: FrozenSet[Node]) -> None:
        if lam <= 0 or gamma <= 0:
            raise AlgorithmError("lam and gamma must be positive")
        super().__init__(lam)
        self.gamma = float(gamma)
        self.land = frozenset(land)

    def site_weight(self, node: Node) -> int:
        """``c(node)``: 1 over the gap, 0 on land."""
        return 0 if node in self.land else 1

    def acceptance_rows(self) -> List[List[float]]:
        """The 3x13 acceptance table, indexed ``[site_delta + 1][e_delta + 6]``.

        ``site_delta = c(l') - c(l)``; the weight rewards negative site
        deltas (off the gap), hence the ``-site_delta`` exponent.
        """
        return [
            [
                min(1.0, (self.lam ** delta) * (self.gamma ** (-site_delta)))
                for delta in EDGE_DELTA_RANGE
            ]
            for site_delta in (-1, 0, 1)
        ]

    def build_site_plane(self, grid) -> bytearray:
        """A 0/1 site plane aligned with an :class:`OccupancyGrid` window.

        Flat layout identical to ``grid.cells``; rebuilt by the fast
        engine whenever the grid re-centers.  Gap is the default (the
        land set is finite, the lattice is not).
        """
        plane = bytearray(b"\x01" * (grid.width * grid.height))
        for node in self.land:
            if grid.contains(node):
                plane[grid.flat_index(node)] = 0
        return plane


class SeparationKernel(WeightKernel):
    """The separation weight of [9] over colored particles, with swaps.

    Iterations split between two move types on the tape's second uniform
    lane (``u2 < swap_probability`` selects a swap):

    * a *movement* is structurally filtered like compression and accepted
      with ``min(1, lambda^(e' - e) * gamma^(a' - a))``, ``a`` counting
      the moving particle's same-color edges;
    * a *swap* exchanges the colors of the two edge endpoints (both
      occupied, colors distinct) and is accepted with
      ``min(1, gamma^(a' - a))`` for the local homogeneity delta.

    Parameters
    ----------
    lam:
        Compression bias ``lambda > 0``.
    gamma:
        Homogeneity bias; ``> 1`` favors segregation, ``< 1`` integration.
    colors:
        Initial color per occupied node (small non-negative integers).
    swap_probability:
        Probability an iteration attempts a swap instead of a movement.
    """

    name = "separation"
    mode = "edge_color"
    lanes = 2
    rejection_reasons = MOVEMENT_REJECTION_REASONS + SWAP_REJECTION_REASONS

    def __init__(
        self,
        lam: float,
        gamma: float,
        colors: Mapping[Node, int],
        swap_probability: float = 0.5,
    ) -> None:
        if lam <= 0 or gamma <= 0:
            raise AlgorithmError("lam and gamma must be positive")
        if not 0 <= swap_probability <= 1:
            raise AlgorithmError("swap_probability must lie in [0, 1]")
        if not colors:
            raise ConfigurationError("a separation kernel needs at least one colored node")
        super().__init__(lam)
        self.gamma = float(gamma)
        self.swap_probability = float(swap_probability)
        frozen: Dict[Node, int] = {}
        for node, color in colors.items():
            color = int(color)
            if not 0 <= color <= 254:
                raise ConfigurationError(
                    f"colors must be integers in [0, 254] (they live in a byte "
                    f"plane as color + 1), got {color} at {node!r}"
                )
            frozen[tuple(node)] = color
        self.colors: Dict[Node, int] = frozen

    def movement_rows(self) -> List[List[float]]:
        """The 11x13 movement table, indexed ``[a_delta + 5][e_delta + 6]``."""
        return [
            [
                min(1.0, (self.lam ** delta) * (self.gamma ** a_delta))
                for delta in EDGE_DELTA_RANGE
            ]
            for a_delta in COLOR_DELTA_RANGE
        ]

    def swap_row(self) -> List[float]:
        """The 21-entry swap table, indexed ``[swap_delta + 10]``."""
        return [min(1.0, self.gamma ** delta) for delta in SWAP_DELTA_RANGE]

    def build_color_plane(self, grid, positions: List[int]) -> bytearray:
        """A color byte plane (color + 1 per occupied cell, 0 elsewhere).

        ``positions`` are the flat grid indices of the particles in sorted
        node order — the same order every engine assigns particle indices —
        so plane bytes line up with the engines' position lists.
        """
        plane = bytearray(grid.width * grid.height)
        ordered = sorted(self.colors)
        if len(positions) != len(ordered):
            raise ConfigurationError(
                f"color map covers {len(ordered)} nodes but the engine tracks "
                f"{len(positions)} particles"
            )
        for flat, node in zip(positions, ordered):
            plane[flat] = self.colors[node] + 1
        return plane


def default_kernel(lam: float) -> CompressionKernel:
    """The kernel an engine builds when none is supplied."""
    return CompressionKernel(lam)
