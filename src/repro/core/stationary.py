"""Exact stationary-distribution analysis for small particle systems.

For small ``n`` the full state space of Algorithm M can be enumerated:
the states are connected configurations of ``n`` particles up to
translation, and transitions correspond to single particle moves.  This
module builds the exact transition matrix, computes the stationary
distribution ``pi(sigma) ∝ lambda^{e(sigma)}`` on the hole-free states
(Lemma 3.13), and verifies the structural claims of Section 3: detailed
balance (used in the proof of Lemma 3.13), irreducibility on ``Omega*``
(Lemma 3.10) and aperiodicity (Corollary 3.11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.enumeration import enumerate_configurations
from repro.core.kernels import CompressionKernel
from repro.core.moves import Move, enumerate_valid_moves, move_edge_delta

#: Practical cap on the enumerable system size (186 states at n=5, 814 at n=6).
MAX_EXACT_PARTICLES = 7


@dataclass
class StateSpace:
    """The enumerated state space of Algorithm M for a fixed particle count.

    Attributes
    ----------
    n:
        Number of particles.
    states:
        Canonical (translation-normalized) configurations, sorted for
        determinism.
    index:
        Mapping from each canonical configuration to its row/column index.
    hole_free:
        Boolean mask; ``hole_free[i]`` is ``True`` when ``states[i]`` has no
        holes (i.e. lies in ``Omega*``).
    """

    n: int
    states: List[ParticleConfiguration]
    index: Dict[ParticleConfiguration, int]
    hole_free: np.ndarray

    @property
    def size(self) -> int:
        """Total number of states (``|Omega|``)."""
        return len(self.states)

    @property
    def hole_free_indices(self) -> np.ndarray:
        """Indices of the hole-free states (``Omega*``)."""
        return np.flatnonzero(self.hole_free)


def build_state_space(n: int, include_holes: bool = True) -> StateSpace:
    """Enumerate the state space of connected configurations of ``n`` particles.

    Parameters
    ----------
    n:
        Number of particles; limited to :data:`MAX_EXACT_PARTICLES` because
        the state space grows exponentially.
    include_holes:
        If ``True`` (default) the full space ``Omega`` is built, including
        configurations with holes (which are transient for the chain).  If
        ``False``, only ``Omega*`` is built.
    """
    if n < 1:
        raise AnalysisError(f"need at least one particle, got n={n}")
    if n > MAX_EXACT_PARTICLES:
        raise AnalysisError(
            f"exact analysis is limited to n <= {MAX_EXACT_PARTICLES}; got n={n}"
        )
    states = [
        configuration.canonical()
        for configuration in enumerate_configurations(n, hole_free_only=not include_holes)
    ]
    states.sort(key=lambda configuration: configuration.sorted_nodes())
    index = {configuration: i for i, configuration in enumerate(states)}
    hole_free = np.array([configuration.is_hole_free for configuration in states], dtype=bool)
    return StateSpace(n=n, states=states, index=index, hole_free=hole_free)


def transition_matrix(space: StateSpace, lam: float) -> np.ndarray:
    """Build the exact transition matrix of Algorithm M on the given state space.

    From a configuration of ``n`` particles, Algorithm M picks one of the
    ``n`` particles and one of the six directions uniformly, so each valid
    move ``(l -> l')`` is proposed with probability ``1 / (6 n)`` and
    accepted with probability ``min(1, lambda^(e' - e))``, read from the
    :class:`~repro.core.kernels.CompressionKernel` table both engines
    use.  The remaining probability mass stays on the diagonal.
    """
    if lam <= 0:
        raise AnalysisError(f"lambda must be positive, got {lam}")
    acceptance_list = CompressionKernel(lam).acceptance_list()
    size = space.size
    matrix = np.zeros((size, size), dtype=float)
    proposal = 1.0 / (6.0 * space.n)
    for row, configuration in enumerate(space.states):
        occupied = configuration.nodes
        total_out = 0.0
        for move in enumerate_valid_moves(occupied):
            delta = move_edge_delta(occupied, move)
            acceptance = acceptance_list[delta + 6]
            successor = configuration.move(move.source, move.target).canonical()
            try:
                column = space.index[successor]
            except KeyError as exc:
                raise AnalysisError(
                    "a valid move left the enumerated state space; "
                    "build the space with include_holes=True"
                ) from exc
            probability = proposal * acceptance
            matrix[row, column] += probability
            total_out += probability
        matrix[row, row] += 1.0 - total_out
    return matrix


def exact_stationary_distribution(space: StateSpace, lam: float) -> np.ndarray:
    """The stationary distribution ``pi(sigma) ∝ lambda^{e(sigma)}`` on ``Omega*``.

    Configurations with holes receive probability zero (Lemma 3.12).
    """
    if lam <= 0:
        raise AnalysisError(f"lambda must be positive, got {lam}")
    weights = np.zeros(space.size, dtype=float)
    for i, configuration in enumerate(space.states):
        if space.hole_free[i]:
            weights[i] = lam ** configuration.edge_count
    total = weights.sum()
    if total <= 0:
        raise AnalysisError("the state space contains no hole-free configurations")
    return weights / total


def stationary_distribution_from_matrix(matrix: np.ndarray) -> np.ndarray:
    """Compute a stationary distribution of ``matrix`` by solving ``pi M = pi``.

    Used by tests to confirm that the algebraic form of Lemma 3.13 agrees
    with the transition matrix actually implemented by the chain.
    """
    size = matrix.shape[0]
    # Solve (M^T - I) pi = 0 with the normalization sum(pi) = 1.
    system = np.vstack([matrix.T - np.eye(size), np.ones((1, size))])
    rhs = np.zeros(size + 1)
    rhs[-1] = 1.0
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    solution[np.abs(solution) < 1e-12] = 0.0
    return solution


def verify_detailed_balance(
    space: StateSpace, matrix: np.ndarray, distribution: np.ndarray, tolerance: float = 1e-10
) -> bool:
    """Check ``pi(x) M(x, y) == pi(y) M(y, x)`` for all hole-free pairs ``x, y``."""
    indices = space.hole_free_indices
    for i in indices:
        for j in indices:
            if i == j:
                continue
            left = distribution[i] * matrix[i, j]
            right = distribution[j] * matrix[j, i]
            if abs(left - right) > tolerance:
                return False
    return True


def _reachable(adjacency: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The states reachable from the ``start`` mask along ``adjacency``.

    A breadth-first search over the boolean matrix ``adjacency``
    (``adjacency[i, j]`` is an edge ``i -> j``), one frontier per level;
    the result includes ``start``.  Pass ``adjacency.T`` for the states
    that can reach ``start``.
    """
    seen = start.copy()
    frontier = start
    while frontier.any():
        frontier = adjacency[frontier].any(axis=0) & ~seen
        seen |= frontier
    return seen


def verify_irreducibility(space: StateSpace, matrix: np.ndarray) -> bool:
    """Check that the chain restricted to ``Omega*`` is irreducible (Lemma 3.10).

    It is when one hole-free state reaches every other one inside
    ``Omega*`` and every other one reaches it.
    """
    indices = space.hole_free_indices
    adjacency = matrix[np.ix_(indices, indices)] > 0
    start = np.zeros(len(indices), dtype=bool)
    start[0] = True
    return bool(_reachable(adjacency, start).all() and _reachable(adjacency.T, start).all())


def verify_aperiodicity(space: StateSpace, matrix: np.ndarray) -> bool:
    """Check aperiodicity on ``Omega*``.

    For ``n > 1`` every configuration has a positive probability of
    proposing a move into an occupied neighboring location, which is
    rejected, so every state has a self-loop and the chain is aperiodic
    (Corollary 3.11).
    """
    indices = space.hole_free_indices
    return bool(np.all(matrix[indices, indices] > 0))


def verify_transience_of_holes(space: StateSpace, matrix: np.ndarray) -> bool:
    """Check that every configuration with a hole can reach ``Omega*`` but not vice versa.

    This is the structural content of Lemmas 3.2 and 3.8: states with holes
    are transient; hole-free states are absorbing as a set.
    """
    adjacency = matrix > 0
    hole_free = space.hole_free
    # No escape from Omega*.
    if adjacency[np.ix_(hole_free, ~hole_free)].any():
        return False
    # Every holey state reaches Omega*: the states that can reach it,
    # searched backwards from all of Omega* at once, are all the states.
    return bool(_reachable(adjacency.T, hole_free).all())
