"""Supervision overhead: the watched pool vs a bare process pool.

Every ``run_ensemble(..., workers=k)`` runs on the supervised pool, which
buys fault tolerance — dead-worker detection and replacement,
per-attempt timeouts, retry bookkeeping — with extra queue traffic (an assignment
ack per job) and a polling supervisor loop.  That is only acceptable if a
healthy ensemble pays (nearly) nothing for it: the acceptance gate
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
The jobs are sized so per-job supervisor bookkeeping (queue hops, a
``started`` ack, one dispatch per completion) is amortized over real
engine work, matching how supervision is meant to be used: week-long
ensembles, not microsecond jobs.
"""

from __future__ import annotations

import multiprocessing
import time
from pathlib import Path

import pytest

import _emit
from repro.runtime import RetryPolicy, execute_job, replica_jobs, run_ensemble

ENSEMBLE_LEDGER = Path(__file__).parent / "BENCH_ensemble.json"

JOBS = 64
WORKERS = 4
#: Per-chain size: big enough that one job is tens of milliseconds of
#: engine work, so fixed per-job supervision costs amortize.
N = 60
ITERATIONS = 50_000
OVERHEAD_GATE = 0.05


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
