"""Supervision overhead: the watched pool vs a bare process pool.

Every ``run_ensemble(..., workers=k)`` runs on the supervised pool, which
buys fault tolerance — dead-worker detection and replacement,
per-attempt timeouts, retry bookkeeping — with extra IPC traffic (an
assignment ack per job on each worker's result pipe) and a polling
supervisor loop.  That is only acceptable if a healthy ensemble pays (nearly) nothing for it: the acceptance gate
(``test_supervision_overhead_64jobs``, slow lane) demands that a
fault-free 64-job fast-engine ensemble on supervised workers stays within
5% of the wall-clock of a bare ``multiprocessing.Pool`` running the same
jobs through ``imap_unordered(execute_job, jobs)`` — the baseline is built
here, since the runner itself has no unsupervised path.  The ledger row
``supervision_overhead_64jobs`` in ``BENCH_ensemble.json`` commits the
measured overhead fraction.

Measurement style follows ``bench_trace_store.py``: paired
(bare, supervised) rounds interleaved, gated on the *best* round —
machine noise can only inflate a measured overhead, so the minimum over
a few rounds is the robust estimate of the supervisor's actual cost.
The jobs are sized so per-job supervisor bookkeeping (a task-queue hop, a
``started`` ack, a dispatch per completion that refills the worker's
queued slot while it runs the job it already holds) is amortized over
real engine work, matching how supervision is meant to be used: week-long
ensembles, not microsecond jobs.

``test_pool_idle_gap_36jobs`` (slow lane, no gate) records the ledger row
``pool_idle_gap_36jobs``: on ``perfbench``'s ``kernel_pool`` job mix (2
workers, checkpointed), the median time a worker sits idle between two
consecutive jobs and the idle time summed over both workers, from
``perf_counter`` stamps taken around ``execute_job`` in the workers;
best of five rounds.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import _emit
from repro.rng import spawn_seeds
from repro.runtime import (
    RetryPolicy,
    bridging_gamma_sweep_jobs,
    execute_job,
    replica_jobs,
    run_ensemble,
    separation_replica_jobs,
    supervision,
)

ENSEMBLE_LEDGER = Path(__file__).parent / "BENCH_ensemble.json"

JOBS = 64
WORKERS = 4
#: Per-chain size: big enough that one job is tens of milliseconds of
#: engine work, so fixed per-job supervision costs amortize.
N = 60
ITERATIONS = 50_000
OVERHEAD_GATE = 0.05
#: Rounds of the idle-gap measurement; the ledger keeps the least idle one.
IDLE_GAP_ROUNDS = 5


def _ensemble_seconds(jobs, supervised):
    """Wall-clock seconds and results (in submission order) of one run."""
    started = time.perf_counter()
    if supervised:
        result = run_ensemble(
            jobs,
            workers=WORKERS,
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.01, jitter=0.0),
            failure_policy="quarantine",
        )
        assert not result.failures
        results = result.results
    else:
        with multiprocessing.get_context().Pool(processes=WORKERS) as pool:
            by_id = {
                r.job.job_id: r for r in pool.imap_unordered(execute_job, jobs)
            }
        results = [by_id[job.job_id] for job in jobs]
    seconds = time.perf_counter() - started
    assert len(results) == len(jobs)
    return seconds, results


@pytest.mark.slow
def test_supervision_overhead_64jobs():
    """Acceptance gate: supervision costs < 5% on a healthy 64-job ensemble."""
    jobs = replica_jobs(n=N, lam=4.0, iterations=ITERATIONS, replicas=JOBS, seed=0)
    rounds = []
    reference = None
    for _ in range(3):
        plain_seconds, plain = _ensemble_seconds(jobs, supervised=False)
        supervised_seconds, supervised = _ensemble_seconds(jobs, supervised=True)
        if reference is None:
            reference = plain
            # Supervision must be invisible in the results, not just cheap.
            for p, s in zip(plain, supervised):
                assert p.trace.points == s.trace.points
                assert p.rejection_counts == s.rejection_counts
        rounds.append(
            (plain_seconds, supervised_seconds, supervised_seconds / plain_seconds - 1.0)
        )
    plain_seconds, supervised_seconds, overhead = min(rounds, key=lambda r: r[2])
    _emit.record(
        "supervision_overhead_64jobs",
        path=ENSEMBLE_LEDGER,
        jobs=JOBS,
        workers=WORKERS,
        n=N,
        iterations_per_chain=ITERATIONS,
        engine="fast",
        baseline="bare multiprocessing.Pool imap_unordered",
        plain_seconds=round(plain_seconds, 3),
        supervised_seconds=round(supervised_seconds, 3),
        overhead_fraction=round(overhead, 4),
        rounds=len(rounds),
    )
    assert overhead < OVERHEAD_GATE, (
        f"supervised execution costs {overhead:.1%} of bare-pool wall-clock "
        f"on a healthy {JOBS}-job ensemble ({supervised_seconds:.2f}s vs "
        f"{plain_seconds:.2f}s); the acceptance bound is {OVERHEAD_GATE:.0%}"
    )


def kernel_pool_jobs(seed=0):
    """The job mix of ``perfbench``'s ``kernel_pool`` workload: 18 separation
    and 18 bridging jobs of 300k iterations."""
    seeds = spawn_seeds(seed, 4)
    jobs = []
    for gamma, job_seed in zip((0.5, 2.0, 4.0), seeds):
        jobs += separation_replica_jobs(
            n=300, lam=4.0, gamma=gamma, iterations=300_000, replicas=6,
            seed=job_seed, engine="fast",
        )
    jobs += bridging_gamma_sweep_jobs(
        n=240, lam=4.0, gammas=(1.5, 2.0, 3.0), iterations=300_000, arm_length=60,
        seed=seeds[-1], engine="fast", replicas=6,
    )
    return jobs


@contextmanager
def job_clock(spool):
    """Stamp ``perf_counter`` around every ``execute_job`` a pool worker runs.

    Forked workers inherit the wrapper; each appends ``start end`` lines to
    ``<spool>/<pid>.txt``, after its end stamp, so the write counts as idle.
    """
    original = supervision.execute_job

    def stamped(job, _original=original):
        started = time.perf_counter()
        try:
            return _original(job)
        finally:
            ended = time.perf_counter()
            with open(spool / f"{os.getpid()}.txt", "a") as handle:
                handle.write(f"{started!r} {ended!r}\n")

    supervision.execute_job = stamped
    try:
        yield
    finally:
        supervision.execute_job = original


def idle_gaps(spool):
    """Seconds each worker sat idle between consecutive jobs, all workers."""
    gaps = []
    for path in spool.glob("*.txt"):
        spans = sorted(
            tuple(map(float, line.split())) for line in path.read_text().splitlines()
        )
        gaps += [start - end for (_, end), (start, _) in zip(spans, spans[1:])]
    return gaps


@pytest.mark.slow
def test_pool_idle_gap_36jobs():
    """Ledger row (no gate): how long the 2 pool workers of the
    ``kernel_pool`` job mix sit idle between consecutive jobs."""
    jobs = kernel_pool_jobs()
    rounds = []
    for _ in range(IDLE_GAP_ROUNDS):
        with tempfile.TemporaryDirectory() as scratch:
            spool = Path(scratch) / "spool"
            spool.mkdir()
            with job_clock(spool):
                started = time.perf_counter()
                result = run_ensemble(
                    jobs,
                    workers=2,
                    start_method="fork",
                    checkpoint=Path(scratch) / "checkpoint",
                    failure_policy="quarantine",
                )
                wall = time.perf_counter() - started
            assert not result.failures and len(result.results) == len(jobs)
            gaps = idle_gaps(spool)
        assert len(gaps) == len(jobs) - 2
        rounds.append((sum(gaps), statistics.median(gaps), wall))
    idle, median_gap, wall = min(rounds)
    _emit.record(
        "pool_idle_gap_36jobs",
        path=ENSEMBLE_LEDGER,
        jobs=len(jobs),
        workers=2,
        engine="fast",
        job_mix="perfbench kernel_pool: 18 separation + 18 bridging, 300k iterations",
        checkpoint=True,
        median_gap_ms=round(median_gap * 1e3, 3),
        summed_idle_ms=round(idle * 1e3, 1),
        wall_seconds=round(wall, 3),
        rounds=len(rounds),
    )
