"""The experiment harness: one entry point per paper figure/table.

Every experiment returns an :class:`ExperimentRecord` that carries the
parameters actually used, the measured series/rows, and the paper's
qualitative expectation, so that EXPERIMENTS.md can be regenerated
directly from harness output.  The benchmarks under ``benchmarks/`` call
these functions with reduced default workloads; passing ``full_scale=True``
reproduces the paper's original parameters (100 particles, millions of
iterations) at the cost of minutes-to-hours of runtime.

Multi-chain experiments (the lambda sweep here, the scaling study in
:mod:`repro.analysis.convergence`) submit their runs through the parallel
ensemble runner (:mod:`repro.runtime`) instead of hand-rolled loops: pass
``workers=4`` to spread the chains over worker processes with bit-identical
per-seed results, and ``checkpoint="some/dir"`` to make long sweeps
resumable.  (Those imports are function-local: the io/runtime layers import
this module for :class:`ExperimentRecord`, and the late binding keeps the
load-time dependency graph acyclic.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.algorithms.expansion import ExpansionSimulation
from repro.core.compression import CompressionSimulation
from repro.errors import AnalysisError
from repro.rng import RandomState


@dataclass
class ExperimentRecord:
    """A self-describing record of one experiment run.

    Attributes
    ----------
    experiment_id:
        The identifier from DESIGN.md's per-experiment index (e.g. ``"E1"``).
    description:
        What the experiment reproduces.
    parameters:
        The parameters actually used for this run.
    results:
        Measured values (series, tables, summary statistics).
    expectation:
        The qualitative behaviour the paper reports, for side-by-side
        comparison in EXPERIMENTS.md.
    """

    experiment_id: str
    description: str
    parameters: Dict[str, Any]
    results: Dict[str, Any]
    expectation: str


def run_fig2_compression(
    n: int = 100,
    lam: float = 4.0,
    iterations: int = 200_000,
    snapshots: int = 5,
    seed: RandomState = 0,
    engine: str = "fast",
) -> ExperimentRecord:
    """Experiment E1 (Figure 2): compression of a line of particles at ``lambda = 4``.

    The paper shows 100 particles compressing visibly within 1-5 million
    iterations.  The default workload here is reduced; the shape of the
    result (monotone-ish perimeter decrease, final perimeter well below the
    starting ``2n - 2``) is what the record captures.
    """
    if snapshots < 1:
        raise AnalysisError("snapshots must be at least 1")
    simulation = CompressionSimulation.from_line(n, lam=lam, seed=seed, engine=engine)
    block = iterations // snapshots
    perimeters = [simulation.chain.perimeter()]
    alphas = [simulation.compression_ratio()]
    for _ in range(snapshots):
        simulation.run(block, record_every=max(1, block // 10))
        perimeters.append(simulation.chain.perimeter())
        alphas.append(simulation.compression_ratio())
    return ExperimentRecord(
        experiment_id="E1",
        description="Figure 2: perimeter of an n-particle line under lambda=4",
        parameters={"n": n, "lambda": lam, "iterations": iterations, "snapshots": snapshots},
        results={
            "perimeter_snapshots": perimeters,
            "alpha_snapshots": alphas,
            "initial_perimeter": perimeters[0],
            "final_perimeter": perimeters[-1],
            "min_possible_perimeter": simulation.min_possible_perimeter,
        },
        expectation=(
            "Perimeter decreases substantially from the line's 2n-2 toward a few times "
            "pmin; Figure 2 shows visually compressed blobs after a few million iterations."
        ),
    )


def run_fig10_expansion(
    n: int = 100,
    lam: float = 2.0,
    iterations: int = 200_000,
    seed: RandomState = 0,
    engine: str = "fast",
) -> ExperimentRecord:
    """Experiment E2 (Figure 10): the same system at ``lambda = 2`` does not compress."""
    simulation = ExpansionSimulation.from_line(n, lam=lam, seed=seed, engine=engine)
    simulation.run(iterations, record_every=max(1, iterations // 20))
    final = simulation.trace.final()
    return ExperimentRecord(
        experiment_id="E2",
        description="Figure 10: perimeter of an n-particle line under lambda=2",
        parameters={"n": n, "lambda": lam, "iterations": iterations},
        results={
            "initial_perimeter": simulation.trace.points[0].perimeter,
            "final_perimeter": final.perimeter,
            "final_alpha": final.alpha,
            "final_beta": final.beta,
            "max_possible_perimeter": simulation.max_possible_perimeter,
        },
        expectation=(
            "Even after 10-20 million iterations the lambda=2 system remains spread out: "
            "perimeter stays a constant fraction of pmax and far above alpha*pmin."
        ),
    )


def run_lambda_sweep(
    n: int = 50,
    lambdas: Sequence[float] = (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0),
    iterations: int = 150_000,
    seed: Optional[int] = 0,
    engine: str = "fast",
    replicas: int = 1,
    workers: int = 1,
    checkpoint: Optional[Any] = None,
) -> ExperimentRecord:
    """Experiment E14: final perimeter ratio as a function of the bias ``lambda``.

    Straddles the proven expansion regime (``lambda < 2.17``) and the proven
    compression regime (``lambda > 2 + sqrt(2) ~ 3.41``); the paper
    conjectures a phase transition somewhere in between.

    Jobs are submitted through the parallel ensemble runner
    (:mod:`repro.runtime`): each ``(lambda, replica)`` pair gets its own
    spawned seed, so results are independent of ``workers`` — a 4-worker
    sweep is bit-identical to a serial one.  ``replicas > 1`` averages
    independent chains per lambda (per-replica spread lands in the attached
    results table); ``checkpoint`` names a directory that lets a long sweep
    resume after interruption.
    """
    from repro.runtime.jobs import lambda_sweep_jobs
    from repro.runtime.runner import run_ensemble

    jobs = lambda_sweep_jobs(
        n=n,
        lambdas=lambdas,
        iterations=iterations,
        seed=seed,
        engine=engine,
        replicas=replicas,
        record_every=iterations if iterations else None,
    )
    ensemble = run_ensemble(jobs, workers=workers, checkpoint=checkpoint)
    rows: List[Dict[str, float]] = []
    for i, lam in enumerate(lambdas):
        group = ensemble.table.where(lambda_index=i)
        rows.append(
            {
                "lambda": float(lam),
                "final_perimeter": group.mean("final_perimeter"),
                "alpha": group.mean("final_alpha"),
                "beta": group.mean("final_beta"),
                "replicas": len(group),
            }
        )
    return ExperimentRecord(
        experiment_id="E14",
        description="Perimeter ratio vs lambda sweep across both proven regimes",
        parameters={
            "n": n,
            "lambdas": list(lambdas),
            "iterations": iterations,
            "replicas": replicas,
            "workers": workers,
            "engine": engine,
        },
        results={"rows": rows, "table": ensemble.table.rows},
        expectation=(
            "Small lambda keeps the perimeter near pmax (beta close to a constant); large "
            "lambda drives it toward pmin (alpha close to 1); the crossover lies between "
            "2.17 and 3.41."
        ),
    )


def run_separation_experiment(
    n: int = 60,
    lam: float = 4.0,
    gammas: Sequence[float] = (0.5, 4.0),
    iterations: int = 60_000,
    replicas: int = 2,
    seed: Optional[int] = 0,
    engine: str = "fast",
    workers: int = 1,
    checkpoint: Optional[Any] = None,
) -> ExperimentRecord:
    """Experiment E15: the separation/integration phase of [9].

    Runs ``replicas`` colored chains per homogeneity bias ``gamma`` on the
    shared engine stack (via the separation weight kernel) and compares the
    final homogeneous-edge counts: ``gamma > 1`` should segregate the
    colors (homogeneous edges grow well above the random-coloring start),
    ``gamma < 1`` should integrate them.  Submitted through the parallel
    ensemble runner, so workers/checkpoints behave exactly as for
    compression sweeps.
    """
    from repro.runtime.jobs import separation_replica_jobs
    from repro.runtime.runner import run_ensemble

    import dataclasses

    from repro.rng import spawn_seeds

    # One spawned base seed per gamma: replicas must be independent
    # *across* conditions too, like every other sweep builder.
    gamma_seeds = spawn_seeds(seed, len(gammas))
    jobs = []
    for i, gamma in enumerate(gammas):
        for job in separation_replica_jobs(
            n=n,
            lam=lam,
            gamma=gamma,
            iterations=iterations,
            replicas=replicas,
            seed=gamma_seeds[i],
            engine=engine,
        ):
            # Embed the sweep position so gammas that agree at printed
            # precision still get distinct job ids.
            jobs.append(
                dataclasses.replace(
                    job,
                    job_id=f"sep-sweep-i{i}-{job.job_id}",
                    metadata={**job.metadata, "gamma_index": i, "gamma": float(gamma)},
                )
            )
    ensemble = run_ensemble(jobs, workers=workers, checkpoint=checkpoint)
    rows: List[Dict[str, float]] = []
    for i, gamma in enumerate(gammas):
        group = ensemble.table.where(gamma_index=i)
        rows.append(
            {
                "gamma": float(gamma),
                "initial_homogeneous_edges": group.mean("initial_homogeneous_edges"),
                "final_homogeneous_edges": group.mean("final_homogeneous_edges"),
                "accepted_swaps": group.mean("accepted_swaps"),
                "replicas": len(group),
            }
        )
    return ExperimentRecord(
        experiment_id="E15",
        description="Separation [9]: homogeneous edges vs the homogeneity bias gamma",
        parameters={
            "n": n,
            "lambda": lam,
            "gammas": list(gammas),
            "iterations": iterations,
            "replicas": replicas,
            "engine": engine,
        },
        results={"rows": rows, "table": ensemble.table.rows},
        expectation=(
            "gamma > 1 grows monochromatic clusters (homogeneous edges rise far above "
            "the mixed start); gamma < 1 keeps the colors interleaved."
        ),
    )


def run_bridging_sweep(
    n: int = 40,
    lam: float = 4.0,
    gammas: Sequence[float] = (1.0, 2.0, 4.0, 6.0),
    iterations: int = 40_000,
    arm_length: int = 6,
    opening: int = 2,
    replicas: int = 1,
    seed: Optional[int] = 0,
    engine: str = "fast",
    workers: int = 1,
    checkpoint: Optional[Any] = None,
) -> ExperimentRecord:
    """Experiment E16: the shortcut-bridging cost/benefit trade-off of [2].

    Sweeps the gap aversion ``gamma`` on a V-shaped terrain: larger gamma
    pulls the bridge back toward land (fewer particles over the gap) at
    the price of a longer anchor-to-anchor path — the army ants'
    trade-off.  Runs on the shared engine stack via the bridging weight
    kernel and the parallel ensemble runner.
    """
    from repro.runtime.jobs import bridging_gamma_sweep_jobs
    from repro.runtime.runner import run_ensemble

    jobs = bridging_gamma_sweep_jobs(
        n=n,
        lam=lam,
        gammas=gammas,
        iterations=iterations,
        arm_length=arm_length,
        opening=opening,
        seed=seed,
        engine=engine,
        replicas=replicas,
    )
    ensemble = run_ensemble(jobs, workers=workers, checkpoint=checkpoint)
    rows: List[Dict[str, Any]] = []
    for i, gamma in enumerate(gammas):
        group = ensemble.table.where(gamma_index=i)
        path_lengths = [
            row["final_anchor_path_length"]
            for row in group.rows
            if row["final_anchor_path_length"] is not None
        ]
        rows.append(
            {
                "gamma": float(gamma),
                "gap_occupancy": group.mean("final_gap_occupancy"),
                "anchor_path_length": (
                    sum(path_lengths) / len(path_lengths) if path_lengths else None
                ),
                "replicas": len(group),
            }
        )
    return ExperimentRecord(
        experiment_id="E16",
        description="Shortcut bridging [2]: bridge cost vs gap aversion gamma",
        parameters={
            "n": n,
            "lambda": lam,
            "gammas": list(gammas),
            "iterations": iterations,
            "arm_length": arm_length,
            "opening": opening,
            "replicas": replicas,
            "engine": engine,
        },
        results={"rows": rows, "table": ensemble.table.rows},
        expectation=(
            "Gap occupancy decreases monotonically-ish in gamma while the anchor path "
            "lengthens: the chain trades shortcut quality against workers locked in "
            "the bridge, as the ants do."
        ),
    )
