"""Job descriptions for the parallel ensemble runner.

A :class:`ChainJob` is a complete, picklable, JSON-serializable description
of one independent Algorithm M run: the starting configuration (a line of
``n`` particles or an explicit node set), the bias ``lambda``, the engine,
a plain integer seed, and what to measure (a fixed-iteration trace or the
first hitting time of alpha-compression).  Because a job carries everything
needed to execute it, :func:`run_job` is a pure function — running a job in
a worker process, in-process, or after a checkpoint resume produces the
same :class:`ChainResult`, bit for bit.

Seeds are plain integers by design (see :func:`repro.rng.spawn_seeds`):
each job builds its own :class:`repro.rng.BatchedMoveDraws` tape from its
seed, so trajectories are a function of the ``(seed, replica)`` pair only,
never of scheduling.  The builders at the bottom of the module
(:func:`lambda_sweep_jobs`, :func:`scaling_time_jobs`, :func:`replica_jobs`)
encode the repo's standard ensembles — lambda sweeps across the phase
boundary, n-scaling studies, and replica ensembles for mixing estimates.
"""

from __future__ import annotations

import operator
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.compression import (
    ENGINES,
    CompressionSimulation,
    CompressionTrace,
    engine_metrics,
    record_trace,
    sampled_run,
)
from repro.errors import ConfigurationError
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.shapes import line as line_shape
from repro.rng import spawn_seeds

#: The measurement kinds a job can request.
JOB_KINDS = ("trace", "compression_time")

#: The measurement kind of distributed-simulator jobs.
AMOEBOT_JOB_KIND = "amoebot_trace"

#: The measurement kinds of the extension-chain jobs (separation [9] and
#: shortcut bridging [2], running on the shared engine stack via weight
#: kernels).
SEPARATION_JOB_KIND = "separation_trace"
BRIDGING_JOB_KIND = "bridging_trace"

#: Allowed characters in a job id (ids double as checkpoint file names).
_JOB_ID_PATTERN = re.compile(r"^[A-Za-z0-9._\-]+$")


#: The least value of each count field; a job type checks the ones it has.
_COUNT_FLOORS = {
    "seed": 0, "n": 1, "iterations": 0, "activations": 0, "max_iterations": 0,
    "record_every": 1, "check_every": 1, "num_colors": 1, "arm_length": 2, "opening": 1,
}


def _number_label(value: float) -> str:
    """A job-id-safe compact rendering of a number (no ``+`` from ``%g``)."""
    return f"{value:g}".replace("+", "")


def _validate_job(
    job: "Job",
    engines: Sequence[str],
    kinds: Sequence[str],
    start: Optional[str] = None,
) -> None:
    """The construction-time checks every job type shares.

    ``engines`` and ``kinds`` are the job type's allowed values, and
    ``start`` names the explicit-start field that excludes ``n`` (``None``
    when the type has no such field, and ``n`` is then required).  Each
    count in :data:`_COUNT_FLOORS` the type has must pass ``operator.index``
    (numpy integers do; bools and floats, such as a JSON client's
    ``1000.0``, do not) and its floor.
    """
    if not _JOB_ID_PATTERN.match(job.job_id):
        raise ConfigurationError(
            f"job_id must match [A-Za-z0-9._-]+ (it names checkpoint files), "
            f"got {job.job_id!r}"
        )
    name = type(job).__name__
    if job.engine not in engines:
        raise ConfigurationError(
            f"unknown {name} engine {job.engine!r}; expected one of {sorted(engines)}"
        )
    if job.kind not in kinds:
        raise ConfigurationError(
            f"unknown {name} kind {job.kind!r}; expected one of {tuple(kinds)}"
        )
    if not job.lam > 0:
        raise ConfigurationError(f"lambda must be positive, got {job.lam}")
    if start is not None and (job.n is None) == (getattr(job, start) is None):
        raise ConfigurationError(f"exactly one of n / {start} must be given")
    if job.seed is not None and not isinstance(job.seed, int):
        raise ConfigurationError(
            f"job seeds must be plain integers (picklable, serializable), "
            f"got {type(job.seed).__name__}"
        )
    optional = {"seed", "record_every", "max_iterations"} | ({"n"} if start else set())
    for key, floor in _COUNT_FLOORS.items():
        value = getattr(job, key, floor)  # a field the type lacks passes
        if value is None and key in optional:
            continue
        try:
            count = operator.index(value)
        except TypeError:
            count = None
        if count is None or isinstance(value, bool):
            raise ConfigurationError(f"{key} must be an integer, got {value!r}")
        if count < floor:
            bound = {0: "non-negative", 1: "positive"}.get(floor, f"at least {floor}")
            raise ConfigurationError(f"{key} must be {bound}, got {value}")
    if job.trace_store is not None and not isinstance(job.trace_store, (str, Path)):
        raise ConfigurationError(
            f"trace_store must be a path string (picklable, serializable), "
            f"got {type(job.trace_store).__name__}"
        )


def _open_job_sink(job: "Job", n: int):
    """Create the streaming trace sink for a job, or ``None`` without one.

    The store lands in ``<job.trace_store>/<job.job_id>`` with the job's
    canonical JSON fingerprint in the manifest meta — the same fingerprint
    the checkpoint layer stores, so a resumed ensemble can verify a trace
    directory belongs to the job it is re-attaching to.
    """
    if getattr(job, "trace_store", None) is None:
        return None
    from repro.io.trace_store import TraceStoreSink
    from repro.runtime.checkpoint import job_to_json

    directory = Path(job.trace_store) / job.job_id
    meta = {
        "job": job_to_json(job),
        "job_id": job.job_id,
        "kind": job.kind,
        "n": int(n),
        "lambda": float(job.lam),
    }
    return TraceStoreSink(directory, meta=meta)


def _finish_job_sink(sink) -> Optional[str]:
    """Mark a job's stream complete; returns the store path for the result."""
    if sink is None:
        return None
    sink.close()
    return str(sink.directory)


@dataclass(frozen=True)
class ChainJob:
    """One independent chain run inside an ensemble.

    Attributes
    ----------
    job_id:
        Unique identifier within the ensemble; also the checkpoint file
        stem, hence restricted to ``[A-Za-z0-9._-]``.
    lam:
        Bias parameter ``lambda > 0``.
    seed:
        Plain integer seed for the job's own draw tape (``None`` draws OS
        entropy and forfeits reproducibility/resumability guarantees).
    n:
        Build the paper's standard line start of ``n`` particles.  Mutually
        exclusive with ``initial_nodes``.
    initial_nodes:
        Explicit starting configuration as a tuple of ``(x, y)`` nodes.
    engine:
        Algorithm M engine, a key of :data:`repro.core.ENGINES`: ``"fast"``
        (default, the compiled loops; ``"vector"`` is its alias key) or
        ``"reference"``.
    kind:
        ``"trace"`` runs ``iterations`` steps recording a metrics trace;
        ``"compression_time"`` runs until alpha-compression (or budget).
    iterations:
        Iteration count for ``kind="trace"``.
    record_every:
        Positive trace sampling interval (defaults to ``iterations // 100``).
    alpha:
        Compression target for ``kind="compression_time"`` (must exceed 1).
    max_iterations:
        Iteration budget for ``kind="compression_time"``.
    check_every:
        Compression-check granularity for ``kind="compression_time"``.
    metadata:
        Free-form JSON-able annotations (replica index, sweep position,
        ...); flattened into the ensemble results table rows.
    trace_store:
        Optional root directory for streaming trace storage.  When set,
        the worker streams every recorded trace point into a
        :class:`repro.io.trace_store.TraceStoreWriter` under
        ``<trace_store>/<job_id>`` (manifest stamped with the job
        fingerprint), and checkpoint documents reference that directory
        instead of embedding the trace inline.  ``None`` (default) keeps
        traces purely in memory, byte-identical to before the field
        existed.
    """

    job_id: str
    lam: float
    seed: Optional[int]
    n: Optional[int] = None
    initial_nodes: Optional[Tuple[Tuple[int, int], ...]] = None
    engine: str = "fast"
    kind: str = "trace"
    iterations: int = 0
    record_every: Optional[int] = None
    alpha: Optional[float] = None
    max_iterations: Optional[int] = None
    check_every: int = 2000
    metadata: Dict[str, Any] = field(default_factory=dict)
    trace_store: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_job(self, ENGINES, JOB_KINDS, start="initial_nodes")
        if self.kind == "compression_time":
            if self.alpha is None or self.alpha <= 1:
                raise ConfigurationError("compression_time jobs need alpha > 1")
            if self.max_iterations is None:
                raise ConfigurationError(
                    "compression_time jobs need a non-negative max_iterations budget"
                )

    def build_initial(self) -> ParticleConfiguration:
        """Materialize the starting configuration described by the job."""
        if self.initial_nodes is not None:
            return ParticleConfiguration(tuple(map(tuple, self.initial_nodes)))
        return line_shape(self.n)


@dataclass
class ChainResult:
    """The outcome of executing one :class:`ChainJob`.

    Everything except ``wall_seconds`` (and the bookkeeping flag
    ``from_checkpoint``) is a deterministic function of the job, which is
    what the ensemble determinism tests assert.
    """

    job: ChainJob
    trace: CompressionTrace
    iterations: int
    accepted_moves: int
    rejection_counts: Dict[str, int]
    compression_time: Optional[int] = None
    wall_seconds: float = 0.0
    from_checkpoint: bool = False
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Directory of the streamed on-disk trace for store-backed jobs
    #: (``job.trace_store`` set); ``None`` for purely in-memory results.
    trace_store_path: Optional[str] = None
    #: How many executions this result took: ``1`` everywhere except under
    #: a retrying supervisor, where earlier attempts failed.  Bookkeeping
    #: like ``wall_seconds`` — never part of the deterministic payload.
    attempts: int = 1

    def row(self) -> Dict[str, Any]:
        """Flatten the result into one results-table row (plain scalars only).

        Kernel-specific measurements (``extra`` — e.g. a separation job's
        final homogeneous-edge count, a bridging job's gap occupancy) are
        merged in as first-class columns.
        """
        job = self.job
        final = self.trace.final()
        first = self.trace.points[0]
        row: Dict[str, Any] = {
            "job_id": job.job_id,
            "kind": job.kind,
            "engine": job.engine,
            "n": self.trace.n,
            "lambda": job.lam,
            "seed": job.seed,
            "iterations": self.iterations,
            "accepted_moves": self.accepted_moves,
            "acceptance_rate": (
                self.accepted_moves / self.iterations if self.iterations else 0.0
            ),
            "initial_perimeter": first.perimeter,
            "final_perimeter": final.perimeter,
            "final_edges": final.edges,
            "final_holes": final.holes,
            "final_alpha": final.alpha,
            "final_beta": final.beta,
            "compression_time": self.compression_time,
            "wall_seconds": self.wall_seconds,
            "status": "ok",
            "attempts": self.attempts,
        }
        row.update(self.extra)
        for key, value in job.metadata.items():
            row.setdefault(key, value)
        return row


def run_job(job: ChainJob) -> ChainResult:
    """Execute one job to completion; the worker entry point of the runner.

    Pure in the sense that matters for ensembles: the returned trace,
    counters and compression time depend only on the job (its seed
    included), so serial and multiprocessing execution agree exactly.
    """
    started = time.perf_counter()
    initial = job.build_initial()
    sink = _open_job_sink(job, initial.n)
    simulation = CompressionSimulation(
        initial,
        lam=job.lam,
        seed=job.seed,
        engine=job.engine,
        trace_sink=sink,
    )
    compression_time: Optional[int] = None
    if job.kind == "trace":
        simulation.run(job.iterations, record_every=job.record_every)
    else:
        compression_time = simulation.run_until_compressed(
            alpha=job.alpha,
            max_iterations=job.max_iterations,
            check_every=job.check_every,
        )
    chain = simulation.chain
    return ChainResult(
        job=job,
        trace=simulation.trace,
        iterations=chain.iterations,
        accepted_moves=chain.accepted_moves,
        rejection_counts=chain.rejection_counts,
        compression_time=compression_time,
        wall_seconds=time.perf_counter() - started,
        trace_store_path=_finish_job_sink(sink),
    )


# ---------------------------------------------------------------------- #
# Distributed-simulator jobs
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class AmoebotJob:
    """One independent distributed-simulator (Algorithm A) run in an ensemble.

    The amoebot analogue of :class:`ChainJob`: a complete, picklable,
    JSON-serializable description of one seeded
    :func:`repro.amoebot.create_system` run.  Executing it yields a
    :class:`ChainResult` whose trace samples the tail configuration's
    perimeter metrics against the *activation* count, so the existing
    results table, checkpointing and statistics layers consume
    distributed-simulator ensembles unchanged.

    Attributes
    ----------
    job_id:
        Unique identifier within the ensemble (also the checkpoint file
        stem).
    lam:
        Compression bias ``lambda > 0``.
    seed:
        Plain integer seed for the system's shared randomness tapes.
    n:
        Build the standard line start of ``n`` particles.  Mutually
        exclusive with ``initial_nodes``.
    initial_nodes:
        Explicit starting configuration as a tuple of ``(x, y)`` nodes.
    engine:
        Distributed engine: ``"fast"`` (default, table-driven) or
        ``"reference"`` (object simulator).
    activations:
        Number of scheduler activations to deliver.
    record_every:
        Positive trace sampling interval in activations (defaults to
        ``activations // 100``).
    rates:
        Optional non-uniform Poisson rates as ``((particle_id, rate), ...)``
        pairs (a tuple so the job stays hashable and JSON-canonical).
    metadata:
        Free-form JSON-able annotations, flattened into results rows.
    """

    job_id: str
    lam: float
    seed: Optional[int]
    n: Optional[int] = None
    initial_nodes: Optional[Tuple[Tuple[int, int], ...]] = None
    engine: str = "fast"
    activations: int = 0
    record_every: Optional[int] = None
    rates: Optional[Tuple[Tuple[int, float], ...]] = None
    kind: str = AMOEBOT_JOB_KIND
    metadata: Dict[str, Any] = field(default_factory=dict)
    trace_store: Optional[str] = None

    def __post_init__(self) -> None:
        from repro.amoebot import AMOEBOT_ENGINES

        _validate_job(self, AMOEBOT_ENGINES, (AMOEBOT_JOB_KIND,), start="initial_nodes")
        if self.rates is not None and not all(rate > 0 for _, rate in self.rates):
            raise ConfigurationError(f"every rate must be positive, got {self.rates}")

    def build_initial(self) -> ParticleConfiguration:
        """Materialize the starting configuration described by the job."""
        if self.initial_nodes is not None:
            return ParticleConfiguration(tuple(map(tuple, self.initial_nodes)))
        return line_shape(self.n)


def run_amoebot_job(job: AmoebotJob) -> ChainResult:
    """Execute one distributed-simulator job to completion.

    Pure in the ensemble sense: the trace and counters depend only on the
    job (its seed and engine included — and because the engines are
    bit-identical, the numbers are the same under either engine; only
    ``wall_seconds`` differs).
    """
    from repro.amoebot import create_system

    started = time.perf_counter()
    initial = job.build_initial()
    system = create_system(
        initial,
        lam=job.lam,
        seed=job.seed,
        rates=dict(job.rates) if job.rates is not None else None,
        engine=job.engine,
    )
    sink = _open_job_sink(job, initial.n)

    def sample() -> Tuple[int, int, int, int]:
        configuration = system.configuration
        return (
            system.stats.activations,
            system.perimeter(),
            configuration.edge_count,
            len(configuration.holes),
        )

    trace = record_trace(
        system.run,
        sample,
        job.activations,
        job.record_every,
        CompressionTrace(n=initial.n, lam=job.lam),
        sink,
    )
    stats = system.stats
    return ChainResult(
        job=job,
        trace=trace,
        iterations=stats.activations,
        accepted_moves=stats.completed_moves,
        rejection_counts={
            "expansions": stats.expansions,
            "aborted_moves": stats.aborted_moves,
            "idle_activations": stats.idle_activations,
        },
        compression_time=None,
        wall_seconds=time.perf_counter() - started,
        trace_store_path=_finish_job_sink(sink),
    )


# ---------------------------------------------------------------------- #
# Extension-chain jobs (weight kernels on the shared engine stack)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SeparationJob:
    """One independent separation chain ([9]) run inside an ensemble.

    A complete, picklable, JSON-serializable description of one seeded
    :class:`repro.algorithms.separation.SeparationMarkovChain` run.
    Executing it yields a :class:`ChainResult` whose trace samples the
    usual perimeter metrics and whose ``extra`` dict carries the
    chain-specific measurements (homogeneous edges, accepted swaps).

    Attributes
    ----------
    job_id, lam, seed, engine, iterations, record_every, metadata:
        As on :class:`ChainJob`.
    gamma:
        Homogeneity bias (``> 1`` segregates, ``< 1`` integrates).
    swap_probability:
        Probability an iteration attempts a color swap.
    n:
        Build a spiral of ``n`` particles colored by ``coloring``.
        Mutually exclusive with ``colored_nodes``.
    coloring:
        ``"random"`` (uniform colors drawn from the job seed) or
        ``"halves"`` (left/right split) for the ``n`` start.
    num_colors:
        Number of colors for ``coloring="random"``.
    colored_nodes:
        Explicit start as ``((x, y, color), ...)`` triples.
    """

    job_id: str
    lam: float
    gamma: float
    seed: Optional[int]
    swap_probability: float = 0.5
    n: Optional[int] = None
    coloring: str = "random"
    num_colors: int = 2
    colored_nodes: Optional[Tuple[Tuple[int, int, int], ...]] = None
    engine: str = "fast"
    iterations: int = 0
    record_every: Optional[int] = None
    kind: str = SEPARATION_JOB_KIND
    metadata: Dict[str, Any] = field(default_factory=dict)
    trace_store: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_job(self, ENGINES, (SEPARATION_JOB_KIND,), start="colored_nodes")
        if not self.gamma > 0:
            raise ConfigurationError(f"gamma must be positive, got {self.gamma}")
        if not 0 <= self.swap_probability <= 1:
            raise ConfigurationError(
                f"swap_probability must lie in [0, 1], got {self.swap_probability}"
            )
        if self.coloring not in ("random", "halves"):
            raise ConfigurationError(
                f"coloring must be 'random' or 'halves', got {self.coloring!r}"
            )

    def build_initial(self):
        """Materialize the colored starting configuration.

        A random coloring draws from a seed *spawned* from the job seed,
        not the job seed itself — the chain's draw tape also starts from
        the job seed, and reusing it verbatim would make the initial
        colors deterministically correlated with the trajectory's
        randomness.
        """
        from repro.algorithms.separation import ColoredConfiguration
        from repro.lattice.shapes import spiral

        if self.colored_nodes is not None:
            return ColoredConfiguration(
                {(int(x), int(y)): int(color) for x, y, color in self.colored_nodes}
            )
        if self.coloring == "halves":
            return ColoredConfiguration.halves(spiral(self.n))
        coloring_seed = None if self.seed is None else spawn_seeds(self.seed, 1)[0]
        return ColoredConfiguration.random_colors(
            spiral(self.n), num_colors=self.num_colors, seed=coloring_seed
        )


def run_separation_job(job: SeparationJob) -> ChainResult:
    """Execute one separation job to completion (pure in the ensemble sense)."""
    from repro.algorithms.separation import SeparationMarkovChain

    started = time.perf_counter()
    colored = job.build_initial()
    chain = SeparationMarkovChain(
        colored,
        lam=job.lam,
        gamma=job.gamma,
        swap_probability=job.swap_probability,
        seed=job.seed,
        engine=job.engine,
    )
    initial_homogeneous = colored.homogeneous_edges()
    sink = _open_job_sink(job, chain.chain.n)
    trace = _trace_engine(chain.chain, job, sink)
    state = chain.state
    return ChainResult(
        job=job,
        trace=trace,
        iterations=chain.iterations,
        accepted_moves=chain.accepted_moves,
        rejection_counts=chain.chain.rejection_counts,
        compression_time=None,
        wall_seconds=time.perf_counter() - started,
        extra={
            "accepted_swaps": chain.accepted_swaps,
            "initial_homogeneous_edges": initial_homogeneous,
            "final_homogeneous_edges": state.homogeneous_edges(),
            "final_heterogeneous_edges": state.heterogeneous_edges(),
        },
        trace_store_path=_finish_job_sink(sink),
    )


@dataclass(frozen=True)
class BridgingJob:
    """One independent shortcut-bridging chain ([2]) run inside an ensemble.

    Describes a V-shaped-terrain experiment parametrically (``arm_length``,
    ``opening``, ``n``) so the job stays a compact pure-JSON value; the
    terrain and the standard land-hugging start are rebuilt in the worker
    via :func:`repro.algorithms.shortcut_bridging.v_shaped_terrain` /
    ``initial_bridge_configuration``.  The result's ``extra`` dict carries
    the bridge metrics (gap occupancy, anchor path length).
    """

    job_id: str
    lam: float
    gamma: float
    seed: Optional[int]
    n: int = 0
    arm_length: int = 0
    opening: int = 2
    engine: str = "fast"
    iterations: int = 0
    record_every: Optional[int] = None
    kind: str = BRIDGING_JOB_KIND
    metadata: Dict[str, Any] = field(default_factory=dict)
    trace_store: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_job(self, ENGINES, (BRIDGING_JOB_KIND,))
        if not self.gamma > 0:
            raise ConfigurationError(f"gamma must be positive, got {self.gamma}")

    def build_terrain(self):
        """Materialize the V-shaped terrain described by the job."""
        from repro.algorithms.shortcut_bridging import v_shaped_terrain

        return v_shaped_terrain(self.arm_length, opening=self.opening)


def run_bridging_job(job: BridgingJob) -> ChainResult:
    """Execute one bridging job to completion (pure in the ensemble sense)."""
    from repro.algorithms.shortcut_bridging import (
        BridgingMarkovChain,
        initial_bridge_configuration,
    )

    started = time.perf_counter()
    terrain = job.build_terrain()
    initial = initial_bridge_configuration(terrain, job.n)
    chain = BridgingMarkovChain(
        initial,
        terrain,
        lam=job.lam,
        gamma=job.gamma,
        seed=job.seed,
        engine=job.engine,
    )
    sink = _open_job_sink(job, chain.chain.n)
    trace = _trace_engine(chain.chain, job, sink)
    path_length = chain.anchor_path_length()
    return ChainResult(
        job=job,
        trace=trace,
        iterations=chain.iterations,
        accepted_moves=chain.accepted_moves,
        rejection_counts=chain.chain.rejection_counts,
        compression_time=None,
        wall_seconds=time.perf_counter() - started,
        extra={
            "final_gap_occupancy": chain.gap_occupancy(),
            "final_anchor_path_length": path_length,
        },
        trace_store_path=_finish_job_sink(sink),
    )


def _trace_engine(engine, job: "Job", sink) -> CompressionTrace:
    """Run an extension chain's engine for the job, sampling the standard
    trace metrics (the engines keep them for every kernel)."""
    return record_trace(
        engine.run,
        lambda: engine_metrics(engine),
        job.iterations,
        job.record_every,
        CompressionTrace(n=engine.n, lam=job.lam),
        sink,
        run_sampled=sampled_run(engine),
    )


#: Any job the ensemble runner can execute.
Job = Union["ChainJob", "AmoebotJob", "SeparationJob", "BridgingJob"]


def execute_job(job: Job) -> ChainResult:
    """Run any supported job kind; the generic worker entry point."""
    if isinstance(job, AmoebotJob):
        return run_amoebot_job(job)
    if isinstance(job, SeparationJob):
        return run_separation_job(job)
    if isinstance(job, BridgingJob):
        return run_bridging_job(job)
    return run_job(job)


def amoebot_replica_jobs(
    n: int,
    lam: float,
    activations: int,
    replicas: int,
    seed: Optional[int] = 0,
    engine: str = "fast",
    rates: Optional[Tuple[Tuple[int, float], ...]] = None,
    record_every: Optional[int] = None,
) -> List[AmoebotJob]:
    """Jobs for a distributed-simulator replica ensemble at fixed ``(n, lambda)``.

    Seeds follow the same :func:`repro.rng.spawn_seeds` scheme as the
    chain builders, so parallel amoebot ensembles are bit-identical to
    serial ones and growing ``replicas`` keeps existing trajectories.
    """
    if replicas < 1:
        raise ConfigurationError(f"replicas must be at least 1, got {replicas}")
    seeds = spawn_seeds(seed, replicas)
    return [
        AmoebotJob(
            job_id=f"amoebot-lam{_number_label(lam)}-r{replica}",
            lam=float(lam),
            seed=seeds[replica],
            n=n,
            engine=engine,
            activations=activations,
            record_every=record_every,
            rates=rates,
            metadata={"replica": replica},
        )
        for replica in range(replicas)
    ]


# ---------------------------------------------------------------------- #
# Standard ensemble builders
# ---------------------------------------------------------------------- #
def lambda_sweep_jobs(
    n: int,
    lambdas: Sequence[float],
    iterations: int,
    seed: Optional[int] = 0,
    engine: str = "fast",
    replicas: int = 1,
    record_every: Optional[int] = None,
) -> List[ChainJob]:
    """Jobs for a lambda sweep: ``replicas`` independent chains per lambda.

    Seeds are spawned once from ``seed`` and indexed replica-major
    (``seeds[replica * len(lambdas) + i]``), so the job list — and
    therefore every trajectory — is a pure function of the arguments,
    independent of how the jobs are later scheduled; and because
    :func:`repro.rng.spawn_seeds` prefixes are stable, *raising*
    ``replicas`` extends the ensemble without reseeding the jobs that
    already exist (checkpointed sweeps keep their completed chains).
    Job ids embed the sweep position (``i``) as well as the lambda value,
    so lambdas that agree to the printed precision (a fine-grained probe
    of the critical window) still get distinct ids.
    """
    if replicas < 1:
        raise ConfigurationError(f"replicas must be at least 1, got {replicas}")
    seeds = spawn_seeds(seed, len(lambdas) * replicas)
    jobs: List[ChainJob] = []
    for i, lam in enumerate(lambdas):
        for replica in range(replicas):
            jobs.append(
                ChainJob(
                    job_id=f"sweep-i{i}-lam{_number_label(lam)}-r{replica}",
                    lam=float(lam),
                    seed=seeds[replica * len(lambdas) + i],
                    n=n,
                    engine=engine,
                    kind="trace",
                    iterations=iterations,
                    record_every=record_every,
                    metadata={"lambda_index": i, "replica": replica},
                )
            )
    return jobs


def scaling_time_jobs(
    sizes: Sequence[int],
    lam: float,
    alpha: float,
    repetitions: int,
    budget_factor: float,
    seed: Optional[int] = 0,
    engine: str = "fast",
    check_every: int = 2000,
) -> List[ChainJob]:
    """Jobs for an n-scaling study: compression hitting times per size.

    Each job's iteration budget is ``budget_factor * n**3``, matching the
    conjectured ``Theta(n^3)``-to-``O(n^4)`` scaling of Section 3.7.
    Seeds are indexed repetition-major (like :func:`lambda_sweep_jobs`),
    so raising ``repetitions`` extends a checkpointed study without
    reseeding its completed measurements.
    """
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be at least 1, got {repetitions}")
    seeds = spawn_seeds(seed, len(sizes) * repetitions)
    jobs: List[ChainJob] = []
    for i, n in enumerate(sizes):
        for repetition in range(repetitions):
            jobs.append(
                ChainJob(
                    job_id=f"scale-i{i}-n{n}-r{repetition}",
                    lam=float(lam),
                    seed=seeds[repetition * len(sizes) + i],
                    n=int(n),
                    engine=engine,
                    kind="compression_time",
                    alpha=float(alpha),
                    max_iterations=int(budget_factor * n**3),
                    check_every=check_every,
                    metadata={"size_index": i, "replica": repetition},
                )
            )
    return jobs


def replica_jobs(
    n: int,
    lam: float,
    iterations: int,
    replicas: int,
    seed: Optional[int] = 0,
    engine: str = "fast",
    record_every: Optional[int] = None,
) -> List[ChainJob]:
    """Jobs for a replica ensemble at fixed ``(n, lambda)``.

    The workhorse of mixing/convergence estimation: independent replicas
    give i.i.d. samples of trace observables, so cross-replica spread (see
    :func:`repro.analysis.statistics.ensemble_summary`) measures how far
    the chains are from agreeing on stationarity.
    """
    if replicas < 1:
        raise ConfigurationError(f"replicas must be at least 1, got {replicas}")
    seeds = spawn_seeds(seed, replicas)
    return [
        ChainJob(
            job_id=f"replica-lam{_number_label(lam)}-r{replica}",
            lam=float(lam),
            seed=seeds[replica],
            n=n,
            engine=engine,
            kind="trace",
            iterations=iterations,
            record_every=record_every,
            metadata={"replica": replica},
        )
        for replica in range(replicas)
    ]


def separation_replica_jobs(
    n: int,
    lam: float,
    gamma: float,
    iterations: int,
    replicas: int,
    seed: Optional[int] = 0,
    swap_probability: float = 0.5,
    coloring: str = "random",
    num_colors: int = 2,
    engine: str = "fast",
    record_every: Optional[int] = None,
) -> List[SeparationJob]:
    """Jobs for a separation replica ensemble at fixed ``(n, lambda, gamma)``.

    Seeds follow the same :func:`repro.rng.spawn_seeds` scheme as every
    other builder, so parallel colored ensembles are bit-identical to
    serial ones and growing ``replicas`` keeps existing trajectories.
    """
    if replicas < 1:
        raise ConfigurationError(f"replicas must be at least 1, got {replicas}")
    seeds = spawn_seeds(seed, replicas)
    return [
        SeparationJob(
            job_id=f"separation-gam{_number_label(gamma)}-r{replica}",
            lam=float(lam),
            gamma=float(gamma),
            seed=seeds[replica],
            swap_probability=swap_probability,
            n=n,
            coloring=coloring,
            num_colors=num_colors,
            engine=engine,
            iterations=iterations,
            record_every=record_every,
            metadata={"replica": replica},
        )
        for replica in range(replicas)
    ]


def bridging_gamma_sweep_jobs(
    n: int,
    lam: float,
    gammas: Sequence[float],
    iterations: int,
    arm_length: int,
    opening: int = 2,
    seed: Optional[int] = 0,
    engine: str = "fast",
    replicas: int = 1,
    record_every: Optional[int] = None,
) -> List[BridgingJob]:
    """Jobs for the shortcut-bridging gamma sweep of [2]'s experiments.

    ``replicas`` independent chains per gamma on the same V-shaped
    terrain; seeds are indexed replica-major like
    :func:`lambda_sweep_jobs`, so raising ``replicas`` extends a
    checkpointed sweep without reseeding existing jobs.
    """
    if replicas < 1:
        raise ConfigurationError(f"replicas must be at least 1, got {replicas}")
    seeds = spawn_seeds(seed, len(gammas) * replicas)
    jobs: List[BridgingJob] = []
    for i, gamma in enumerate(gammas):
        for replica in range(replicas):
            jobs.append(
                BridgingJob(
                    job_id=f"bridging-i{i}-gam{_number_label(gamma)}-r{replica}",
                    lam=float(lam),
                    gamma=float(gamma),
                    seed=seeds[replica * len(gammas) + i],
                    n=n,
                    arm_length=arm_length,
                    opening=opening,
                    engine=engine,
                    iterations=iterations,
                    record_every=record_every,
                    metadata={"gamma_index": i, "replica": replica},
                )
            )
    return jobs
