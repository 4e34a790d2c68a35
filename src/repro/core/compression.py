"""High-level compression simulation API.

:class:`CompressionSimulation` wraps an Algorithm M engine with the
bookkeeping needed by the paper's experiments: periodic recording of
perimeter/edge metrics (the data behind Figures 2 and 10), detection of
alpha-compression and beta-expansion, and convenience constructors for the
standard starting configurations.

Two interchangeable engines are available through the ``engine``
parameter: ``"reference"`` — the transparent
:class:`~repro.core.markov_chain.CompressionMarkovChain` — and
``"fast"`` — the grid-based
:class:`~repro.core.fast_chain.FastCompressionChain`, whose ``run()``
is a compiled C loop, orders of magnitude faster.  ``"vector"`` is an
alias key of ``"fast"``, kept for stored job documents.  Both engines
are bit-identical in trajectory for equal seeds.  Trace metrics are
pulled from the engine's incrementally maintained counters, so
recording a trace point no longer rebuilds the configuration from
scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.geometry import max_perimeter, min_perimeter
from repro.lattice.shapes import line as line_shape
from repro.core.fast_chain import FastCompressionChain
from repro.core.markov_chain import CompressionMarkovChain
from repro.rng import RandomState

#: The Algorithm M engines selectable via ``CompressionSimulation(engine=...)``.
#: ``"vector"`` is an alias key of ``"fast"``, kept for stored job documents.
ENGINES: Dict[str, type] = {
    "reference": CompressionMarkovChain,
    "fast": FastCompressionChain,
    "vector": FastCompressionChain,
}


def engine_class(engine: str) -> type:
    """The engine class of ``engine``, a key of :data:`ENGINES`."""
    try:
        return ENGINES[engine]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {sorted(ENGINES)}"
        ) from None


@dataclass(frozen=True)
class TracePoint:
    """A single recorded sample of the simulation state.

    Attributes
    ----------
    iteration:
        Number of chain iterations performed when the sample was taken.
    perimeter:
        Exact perimeter ``p(sigma)`` at that time.
    edges:
        Induced edge count ``e(sigma)`` at that time.
    holes:
        Number of holes in the configuration at that time.
    alpha:
        The compression ratio ``p(sigma) / pmin(n)``.
    beta:
        The expansion ratio ``p(sigma) / pmax(n)``.
    """

    iteration: int
    perimeter: int
    edges: int
    holes: int
    alpha: float
    beta: float


@dataclass
class CompressionTrace:
    """The time series of recorded samples from one simulation run."""

    n: int
    lam: float
    points: List[TracePoint] = field(default_factory=list)

    def iterations(self) -> List[int]:
        """The iteration counts of the recorded samples."""
        return [point.iteration for point in self.points]

    def perimeters(self) -> List[int]:
        """The recorded perimeters."""
        return [point.perimeter for point in self.points]

    def alphas(self) -> List[float]:
        """The recorded compression ratios ``p / pmin``."""
        return [point.alpha for point in self.points]

    def final(self) -> TracePoint:
        """The last recorded sample."""
        if not self.points:
            raise ConfigurationError("the trace is empty; run the simulation first")
        return self.points[-1]


class CompressionSimulation:
    """Run Algorithm M on a particle system and record compression metrics.

    Parameters
    ----------
    initial:
        The starting configuration (connected).  Use
        :meth:`from_line` for the paper's standard line start.
    lam:
        Bias parameter ``lambda``.
    seed:
        Seed or generator for reproducibility.
    engine:
        ``"reference"`` (default) for the transparent engine, ``"fast"``
        (or its alias ``"vector"``) for the production engine with
        compiled loops, fastest at every ``n``.  Both produce the same
        trajectory for the same seed; see :mod:`repro.core.fast_chain`.
    trace_sink:
        Optional streaming hook: an object with an ``append(point)``
        method (e.g. :class:`repro.io.trace_store.TraceStoreSink`) that
        receives every recorded :class:`TracePoint` as it is recorded.
        ``None`` (default) changes
        nothing: the in-memory trace is maintained either way, and the
        chain's trajectory never depends on the sink (it consumes no
        randomness) — streamed runs are byte-identical to in-memory runs,
        which the lockstep tests pin.
    """

    def __init__(
        self,
        initial: ParticleConfiguration,
        lam: float,
        seed: RandomState = None,
        engine: str = "reference",
        trace_sink: Optional[object] = None,
    ) -> None:
        self.engine = engine
        self.chain = engine_class(engine)(initial, lam=lam, seed=seed)
        self.lam = float(lam)
        self.n = initial.n
        self._pmin = min_perimeter(self.n)
        self._pmax = max_perimeter(self.n)
        self.trace = CompressionTrace(n=self.n, lam=self.lam)
        self.trace_sink = trace_sink
        self._record(0)  # an empty trace first records the starting state

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_line(
        cls,
        n: int,
        lam: float,
        seed: RandomState = None,
        engine: str = "reference",
        trace_sink: Optional[object] = None,
    ) -> "CompressionSimulation":
        """The paper's standard experiment: ``n`` particles starting in a line."""
        return cls(
            line_shape(n),
            lam=lam,
            seed=seed,
            engine=engine,
            trace_sink=trace_sink,
        )

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    @property
    def configuration(self) -> ParticleConfiguration:
        """The current configuration."""
        return self.chain.configuration

    @property
    def min_possible_perimeter(self) -> int:
        """``pmin(n)`` for this system size."""
        return self._pmin

    @property
    def max_possible_perimeter(self) -> int:
        """``pmax(n) = 2n - 2`` for this system size."""
        return self._pmax

    def compression_ratio(self) -> float:
        """The current value of ``p(sigma) / pmin(n)`` (the "alpha" actually achieved)."""
        if self._pmin == 0:
            return 1.0
        return self.chain.perimeter() / self._pmin

    def expansion_ratio(self) -> float:
        """The current value of ``p(sigma) / pmax(n)`` (the "beta" actually achieved)."""
        if self._pmax == 0:
            return 0.0
        return self.chain.perimeter() / self._pmax

    def is_alpha_compressed(self, alpha: float) -> bool:
        """Whether the current configuration is alpha-compressed (Definition 2.2)."""
        if alpha <= 1:
            raise ConfigurationError(f"alpha must exceed 1, got {alpha}")
        return self.chain.perimeter() <= alpha * self._pmin

    def is_beta_expanded(self, beta: float) -> bool:
        """Whether the current configuration is beta-expanded (Section 5)."""
        if not 0 < beta < 1:
            raise ConfigurationError(f"beta must lie in (0, 1), got {beta}")
        return self.chain.perimeter() >= beta * self._pmax

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def run(self, iterations: int, record_every: Optional[int] = None) -> CompressionTrace:
        """Run the chain, recording a trace point every ``record_every`` iterations.

        Parameters
        ----------
        iterations:
            Total number of chain iterations to perform in this call.
        record_every:
            Sampling interval; defaults to ``max(1, iterations // 100)``.

        Returns
        -------
        CompressionTrace
            The cumulative trace (shared with ``self.trace``).
        """
        return self._record(iterations, record_every)

    def run_until_compressed(
        self,
        alpha: float,
        max_iterations: int,
        check_every: int = 1000,
    ) -> Optional[int]:
        """Run until the configuration is alpha-compressed or a budget is exhausted.

        Returns the number of iterations at which alpha-compression was
        first observed (at the sampling granularity of ``check_every``), or
        ``None`` if the budget ran out first.  Used by the convergence-time
        scaling experiment (Section 3.7).
        """
        if alpha <= 1:
            raise ConfigurationError(f"alpha must exceed 1, got {alpha}")
        if max_iterations < 0:
            raise ConfigurationError("max_iterations must be non-negative")
        if check_every <= 0:
            raise ConfigurationError("check_every must be positive")
        return self._run_until(
            lambda: self.is_alpha_compressed(alpha), max_iterations, check_every
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _run_until(
        self, reached: Callable[[], bool], max_iterations: int, check_every: int
    ) -> Optional[int]:
        """Run in ``check_every`` blocks until ``reached()`` holds.

        Returns the iteration count at which it was first seen to hold, or
        ``None`` if ``max_iterations`` ran out first.
        """
        if not reached():
            self._record(max_iterations, check_every, until=reached)
            if not reached():
                return None
        return self.chain.iterations

    def _record(
        self,
        iterations: int,
        record_every: Optional[int] = None,
        until: Optional[Callable[[], bool]] = None,
    ) -> CompressionTrace:
        chain = self.chain
        return record_trace(
            chain.run,
            lambda: engine_metrics(chain),
            iterations,
            record_every,
            self.trace,
            self.trace_sink,
            until,
            sampled_run(chain),
        )


def engine_metrics(engine) -> Tuple[int, int, int, int]:
    """``(iteration, perimeter, edges, holes)`` read from an engine's counters.

    Every engine maintains these counters incrementally for every kernel
    (the hole count is cached), so a sample never rebuilds the
    configuration, and compression, separation and bridging chains share
    one trace sampler.
    """
    return engine.iterations, engine.perimeter(), engine.edge_count, engine.hole_count()


def sampled_run(engine) -> Optional[Callable[[int, int], List[int]]]:
    """``engine.run(k, sample_every=stride)`` for an engine that samples its
    edge count inside one run call (a :class:`FastCompressionChain` on the
    compiled build), else ``None``.  The bound method is looked up at each
    call."""
    if isinstance(engine, FastCompressionChain) and engine._library is not None:
        return lambda steps, stride: engine.run(steps, sample_every=stride)
    return None


#: Most points one sampled run call records: one default trace-store
#: segment (:data:`repro.io.trace_store.DEFAULT_ROWS_PER_SEGMENT`), so a
#: sink still streams a long run segment by segment.
SAMPLES_PER_CALL = 4096


def record_trace(
    run: Callable[[int], object],
    sample: Callable[[], Tuple[int, int, int, int]],
    iterations: int,
    record_every: Optional[int],
    trace: CompressionTrace,
    sink: Optional[object] = None,
    until: Optional[Callable[[], bool]] = None,
    run_sampled: Optional[Callable[[int, int], List[int]]] = None,
) -> CompressionTrace:
    """Advance a chain in blocks, recording a :class:`TracePoint` after each.

    The one trace-recording loop behind :class:`CompressionSimulation` and
    every ensemble job kind.  ``run(k)`` advances the chain ``k`` steps
    (iterations or activations) and ``sample()`` returns ``(iteration,
    perimeter, edges, holes)``.  An empty ``trace`` first records the
    starting state.  Blocks are ``record_every`` steps long (default
    ``max(1, iterations // 100)``); the last one may be shorter.  Every
    recorded point is also appended to ``sink`` when given — the sink
    consumes no randomness, so streamed and in-memory runs are identical.
    ``until`` is checked after each recorded point and ends the loop early
    once it returns true.

    ``run_sampled(k, stride)`` (:func:`sampled_run`), when given, advances
    the chain ``k`` steps and returns its edge count after every
    ``stride``-th step.  Without ``until``, on a hole-free chain, the
    blocks then run through it, up to :data:`SAMPLES_PER_CALL` of them per
    call, and each point is ``(iteration, 3n - 3 - e, e, 0)``: a chain
    without holes never makes one (Lemma 3.2), and that is the perimeter
    ``sample()`` reports.  The points are the ones the per-block loop
    records.
    """
    if iterations < 0:
        raise ConfigurationError(f"iterations must be non-negative, got {iterations}")
    if record_every is None:
        record_every = max(1, iterations // 100)
    if record_every <= 0:
        raise ConfigurationError(f"record_every must be positive, got {record_every}")
    pmin = min_perimeter(trace.n)
    pmax = max_perimeter(trace.n)

    def record() -> None:
        record_point(*sample())

    def record_point(iteration: int, perimeter: int, edges: int, holes: int) -> None:
        point = TracePoint(
            iteration=iteration,
            perimeter=perimeter,
            edges=edges,
            holes=holes,
            alpha=perimeter / pmin if pmin else 1.0,
            beta=perimeter / pmax if pmax else 0.0,
        )
        trace.points.append(point)
        if sink is not None:
            sink.append(point)

    if not trace.points:
        record()
    remaining = iterations
    if run_sampled is not None and until is None and remaining > 0:
        iteration, _, _, holes = sample()
        if holes == 0:
            top = 3 * trace.n - 3
            while remaining > 0:
                steps = min(remaining, SAMPLES_PER_CALL * record_every)
                for edges in run_sampled(steps, record_every):
                    iteration += record_every
                    record_point(iteration, top - edges, edges, 0)
                remaining -= steps
                if steps % record_every:
                    record()
    while remaining > 0:
        block = min(record_every, remaining)
        run(block)
        remaining -= block
        record()
        if until is not None and until():
            break
    return trace
