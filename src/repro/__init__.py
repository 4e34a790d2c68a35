"""repro: a reproduction of "A Markov Chain Algorithm for Compression in
Self-Organizing Particle Systems" (Cannon, Daymude, Randall, Richa).

The package provides:

* :mod:`repro.lattice` — the triangular-lattice substrate ``G_Delta``:
  configurations, perimeters, holes, enumeration, the hexagonal dual and
  self-avoiding walks;
* :mod:`repro.core` — the compression Markov chain (Algorithm M), its move
  rules (Properties 1 and 2), the Metropolis machinery, the high-level
  simulation API and exact stationary-distribution analysis;
* :mod:`repro.amoebot` — the geometric amoebot model and the distributed
  local algorithm (Algorithm A), with fault injection;
* :mod:`repro.algorithms` — the expansion regime, ergodicity witnesses, a
  leader-based baseline and the separation and bridging extensions;
* :mod:`repro.analysis` — metrics, counting, partition-function bounds,
  Peierls thresholds, mixing diagnostics, scaling studies and the
  experiment harness;
* :mod:`repro.runtime` — the parallel ensemble runner: lambda sweeps,
  n-scaling studies and replica ensembles over worker processes, with
  bit-identical-to-serial results, checkpoint/resume, and supervised
  fault-tolerant execution (retries, timeouts, quarantine);
* :mod:`repro.viz` and :mod:`repro.io` — dependency-free rendering and
  JSON serialization.

Quickstart
----------
>>> from repro import CompressionSimulation
>>> simulation = CompressionSimulation.from_line(50, lam=4.0, seed=0, engine="fast")
>>> _ = simulation.run(100_000)
>>> simulation.compression_ratio() < 4.0
True
"""

from repro.constants import (
    COMPRESSION_THRESHOLD,
    EXPANSION_THRESHOLD,
    HEXAGONAL_CONNECTIVE_CONSTANT,
    N50,
)
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.shapes import hexagon, line, random_connected, ring, spiral, staircase
from repro.core.compression import CompressionSimulation, CompressionTrace
from repro.core.fast_chain import FastCompressionChain
from repro.core.kernels import (
    BridgingKernel,
    CompressionKernel,
    SeparationKernel,
    WeightKernel,
)
from repro.core.markov_chain import CompressionMarkovChain
from repro.core.vector_chain import VectorCompressionChain
from repro.algorithms.separation import ColoredConfiguration, SeparationMarkovChain
from repro.algorithms.shortcut_bridging import (
    BridgingMarkovChain,
    Terrain,
    initial_bridge_configuration,
    v_shaped_terrain,
)
from repro.amoebot import AmoebotSystem, FastAmoebotSystem, create_system
from repro.algorithms.expansion import ExpansionSimulation
from repro.runtime import (
    ChainJob,
    ChainResult,
    EnsembleRunner,
    ResultsTable,
    lambda_sweep_jobs,
    replica_jobs,
    run_ensemble,
    scaling_time_jobs,
)

__version__ = "2.0.0"

__all__ = [
    "COMPRESSION_THRESHOLD",
    "EXPANSION_THRESHOLD",
    "HEXAGONAL_CONNECTIVE_CONSTANT",
    "N50",
    "ParticleConfiguration",
    "hexagon",
    "line",
    "random_connected",
    "ring",
    "spiral",
    "staircase",
    "CompressionSimulation",
    "CompressionTrace",
    "CompressionMarkovChain",
    "FastCompressionChain",
    "VectorCompressionChain",
    "WeightKernel",
    "CompressionKernel",
    "SeparationKernel",
    "BridgingKernel",
    "ColoredConfiguration",
    "SeparationMarkovChain",
    "BridgingMarkovChain",
    "Terrain",
    "initial_bridge_configuration",
    "v_shaped_terrain",
    "AmoebotSystem",
    "FastAmoebotSystem",
    "create_system",
    "ExpansionSimulation",
    "ChainJob",
    "ChainResult",
    "EnsembleRunner",
    "ResultsTable",
    "lambda_sweep_jobs",
    "replica_jobs",
    "run_ensemble",
    "scaling_time_jobs",
    "__version__",
]
