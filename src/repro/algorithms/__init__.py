"""Extensions and baselines built on the compression substrate.

* :mod:`repro.algorithms.expansion` — the same chain run in the expansion
  regime (``lambda < 2.17``), Section 5.
* :mod:`repro.algorithms.line_formation` — certified witness generator for
  the ergodicity argument (any configuration can be transformed into a
  line by valid moves, Lemma 3.7).
* :mod:`repro.algorithms.hexagon_formation` — a leader-based hexagon
  formation baseline in the spirit of [19, 20], used for comparison with
  the fully decentralized stochastic approach.
* :mod:`repro.algorithms.separation` — the heterogeneous separation
  extension of [9] (colored particles, two biases).
* :mod:`repro.algorithms.shortcut_bridging` — the shortcut bridging
  extension of [2] (gap/land terrain, weighted objective).
"""

from repro.algorithms.expansion import ExpansionSimulation
from repro.algorithms.line_formation import LineFormationResult, moves_to_line
from repro.algorithms.hexagon_formation import HexagonFormationResult, hexagon_formation
from repro.algorithms.separation import ColoredConfiguration, SeparationMarkovChain
from repro.algorithms.shortcut_bridging import (
    BridgingMarkovChain,
    Terrain,
    initial_bridge_configuration,
    v_shaped_terrain,
)

__all__ = [
    "ExpansionSimulation",
    "LineFormationResult",
    "moves_to_line",
    "HexagonFormationResult",
    "hexagon_formation",
    "ColoredConfiguration",
    "SeparationMarkovChain",
    "BridgingMarkovChain",
    "Terrain",
    "initial_bridge_configuration",
    "v_shaped_terrain",
]
