"""The benchmark's workloads: inputs made from a seed, one timed pass each.

Every workload runs through the package's public API only.  A pass
returns a :class:`PassResult`; ``run.py`` repeats passes for the run's
time budget and reports medians.  ``smoke=True`` shrinks every size so the
self-tests can drive each workload in about a second.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro import CompressionSimulation, ParticleConfiguration
from repro.analysis import statistics
from repro.core import ENGINES
from repro.rng import spawn_seeds
from repro.runtime import (
    bridging_gamma_sweep_jobs,
    lambda_sweep_jobs,
    run_ensemble,
    separation_replica_jobs,
)
from repro.runtime import runner, supervision

from tracer import NULL_TRACER
from verify import job_payload


@dataclass
class PassResult:
    """What one timed pass of a workload produced."""

    setup_s: float
    wall_s: float
    iterations: int
    jobs: int
    workers: int
    quarantined: int = 0
    retries: int = 0
    accepted: int = 0
    #: The deterministic output, digested by :mod:`verify`.
    payload: Dict[str, Any] = field(default_factory=dict)
    #: Bytes the pass left in its trace store and checkpoint directories.
    store_bytes: int = 0
    checkpoint_bytes: int = 0
    #: Final node set of the single chain (``large_n_disc`` only).
    final_nodes: Optional[frozenset] = None
    results: List[Any] = field(default_factory=list)


def disc_nodes(radius: int) -> List[tuple]:
    """A filled hexagonal disc: every node within hop distance ``radius``."""
    return [
        (x, y)
        for x in range(-radius, radius + 1)
        for y in range(max(-radius, -x - radius), min(radius, radius - x) + 1)
    ]


def directory_bytes(root: Path) -> int:
    """Total size of the regular files under ``root``."""
    total = 0
    for directory, _, names in os.walk(root):
        for name in names:
            total += os.path.getsize(os.path.join(directory, name))
    return total


@contextmanager
def first_job_clock() -> Iterator[Any]:
    """Stamp ``time.perf_counter()`` when the first job of an ensemble begins.

    Wraps the ``execute_job`` that the serial and the pooled paths call, so
    the stamp is taken on entry to the job in whichever process runs it.
    Forked pool workers inherit the wrapper and the shared value, and
    ``perf_counter`` reads one system-wide monotonic clock on Linux, so
    worker stamps compare with the parent's.  Yields the shared value,
    ``inf`` until a job starts.
    """
    stamp = multiprocessing.Value("d", math.inf)
    patched = []
    for module in (runner, supervision):
        original = module.execute_job

        def stamped(job, _original=original):
            now = time.perf_counter()
            with stamp.get_lock():
                if now < stamp.value:
                    stamp.value = now
            return _original(job)

        module.execute_job = stamped
        patched.append((module, original))
    try:
        yield stamp
    finally:
        for module, original in patched:
            module.execute_job = original


class Workload:
    """Shared plumbing: a name, an engine key and a per-pass scratch dir."""

    name = ""
    engine = ""
    workers = 1

    def __init__(self, seed: int, smoke: bool = False) -> None:
        if self.engine not in ENGINES:
            raise KeyError(f"engine key {self.engine!r} is not in repro.core.ENGINES")
        self.seed = seed
        self.smoke = smoke

    def run_pass(self, workdir: Path, tracer=NULL_TRACER) -> PassResult:
        """One timed pass; its files stay in ``workdir`` for the caller to delete.

        The ``bench.pass`` span covers exactly the timed region, so its
        self time is the wall time no layer span accounts for.
        """
        workdir.mkdir(parents=True)
        return self._run(workdir, tracer)

    def _run(self, workdir: Path, tracer) -> PassResult:
        raise NotImplementedError


class LargeNDisc(Workload):
    """One Algorithm M chain, n = 200,467, in a compact disc (vector engine)."""

    name = "large_n_disc"
    engine = "vector"
    lam = 4.0

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        # 1 + 3r(r+1) particles: r = 258 gives n = 200,467.
        self.nodes = disc_nodes(12 if smoke else 258)
        self.warmup = 2_000 if smoke else 20_000
        self.iterations = 200_000 if smoke else 20_000_000

    def _run(self, workdir: Path, tracer) -> PassResult:
        with tracer.span("bench.pass"):
            started = time.perf_counter()
            simulation = CompressionSimulation(
                ParticleConfiguration(self.nodes), lam=self.lam, seed=self.seed,
                engine=self.engine,
            )
            setup = time.perf_counter() - started
            with tracer.span("core.warmup"):
                simulation.run(self.warmup, record_every=self.warmup)
            simulation.run(self.iterations, record_every=self.iterations // 20)
            wall = time.perf_counter() - started
        chain = simulation.chain
        final = simulation.trace.final()
        payload = {
            "jobs": [
                {
                    "job_id": "disc",
                    "final_perimeter": final.perimeter,
                    "final_edges": final.edges,
                    "final_holes": final.holes,
                    "accepted_moves": chain.accepted_moves,
                    "rejection_counts": dict(chain.rejection_counts),
                }
            ]
        }
        return PassResult(
            setup_s=setup,
            wall_s=wall,
            iterations=chain.iterations,
            jobs=1,
            workers=1,
            accepted=chain.accepted_moves,
            payload=payload,
            final_nodes=frozenset(chain.occupied),
        )


class _Ensemble(Workload):
    """An ensemble run through ``run_ensemble`` with quarantine on."""

    def build_jobs(self, workdir: Path) -> list:
        raise NotImplementedError

    def analyse(self, workdir: Path) -> Dict[str, Any]:
        return {}

    def _run(self, workdir: Path, tracer) -> PassResult:
        with tracer.span("bench.pass"), first_job_clock() as first_start:
            started = time.perf_counter()
            jobs = self.build_jobs(workdir)
            ensemble = run_ensemble(
                jobs,
                workers=self.workers,
                checkpoint=str(workdir / "checkpoint"),
                failure_policy="quarantine",
            )
            analysis = self.analyse(workdir)
            wall = time.perf_counter() - started
        setup = min(first_start.value, started + wall) - started
        payload = {
            "jobs": [job_payload(result) for result in ensemble.results],
            "failed": ensemble.failed_ids,
            "analysis": analysis,
        }
        stores = workdir / "stores"
        return PassResult(
            setup_s=setup,
            wall_s=wall,
            iterations=sum(result.iterations for result in ensemble.results),
            jobs=len(jobs),
            workers=self.workers,
            quarantined=len(ensemble.failures),
            retries=sum(result.attempts - 1 for result in ensemble.results),
            accepted=sum(result.accepted_moves for result in ensemble.results),
            payload=payload,
            store_bytes=directory_bytes(stores) if stores.exists() else 0,
            checkpoint_bytes=directory_bytes(workdir / "checkpoint"),
            results=list(ensemble.results),
        )


class LambdaSweep(_Ensemble):
    """8 lambdas x 6 replicas of n = 100 line starts, streamed to trace stores.

    Each job's store costs 8 fsyncs whatever its length, and fsync latency
    on a shared disk swings several-fold within minutes.  192 jobs of 20k
    iterations (1,536 fsyncs a pass) spread ``wall_s`` by 24% over ten
    seeds; 48 jobs of 80k iterations keep the same stores, checkpoint and
    analysis with a quarter of the fsyncs and four times the chain work
    per fsync.
    """

    name = "lambda_sweep"
    engine = "fast"
    lambdas = (1.5, 2.0, 2.5, 3.0, 3.42, 4.0, 5.0, 6.0)

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.replicas = 3 if smoke else 6
        self.iterations = 2_000 if smoke else 80_000
        self.resamples = 200 if smoke else 2_000

    def build_jobs(self, workdir: Path) -> list:
        stores = str(workdir / "stores")
        jobs = lambda_sweep_jobs(
            n=100,
            lambdas=self.lambdas,
            iterations=self.iterations,
            seed=self.seed,
            engine=self.engine,
            replicas=self.replicas,
        )
        return [dataclasses.replace(job, trace_store=stores) for job in jobs]

    def analyse(self, workdir: Path) -> Dict[str, Any]:
        stores = str(workdir / "stores")
        return {
            "summary": statistics.ensemble_summary_from_stores(stores, "alpha", by="lambda"),
            "bootstrap": statistics.resampled_ci_from_stores(
                stores, "alpha", by="lambda", resamples=self.resamples, seed=self.seed,
                burn_in=0.5,
            ),
        }


class KernelPool(_Ensemble):
    """18 separation + 18 bridging jobs of 300k iterations on 2 supervised workers."""

    name = "kernel_pool"
    engine = "fast"
    workers = 2
    separation_gammas = (0.5, 2.0, 4.0)
    bridging_gammas = (1.5, 2.0, 3.0)

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.replicas = 1 if smoke else 6
        self.iterations = 5_000 if smoke else 300_000
        self.separation_n = 40 if smoke else 300
        self.bridging_n, self.arm = (30, 10) if smoke else (240, 60)

    def build_jobs(self, workdir: Path) -> list:
        seeds = spawn_seeds(self.seed, len(self.separation_gammas) + 1)
        jobs: list = []
        for gamma, seed in zip(self.separation_gammas, seeds):
            jobs += separation_replica_jobs(
                n=self.separation_n, lam=4.0, gamma=gamma, iterations=self.iterations,
                replicas=self.replicas, seed=seed, engine=self.engine,
            )
        jobs += bridging_gamma_sweep_jobs(
            n=self.bridging_n, lam=4.0, gammas=self.bridging_gammas,
            iterations=self.iterations, arm_length=self.arm, seed=seeds[-1],
            engine=self.engine, replicas=self.replicas,
        )
        return jobs


WORKLOADS = {cls.name: cls for cls in (LargeNDisc, LambdaSweep, KernelPool)}
