"""Benchmarks and the overhead gate for the streaming trace store.

The ``trace_sink=`` hook exists so week-long runs can stream traces to
disk instead of holding them in memory — which is only acceptable if
streaming costs (nearly) nothing against the engine it instruments.  The
acceptance gate (``test_trace_overhead_n1000``, slow lane) demands that a
fast-engine run at ``n = 1000`` with a store sink attached keeps at
least 95% of the plain run's throughput: the ledger row
``trace_overhead_n1000`` in ``BENCH_chain.json`` commits the measured
overhead fraction.

Measurement style follows ``bench_vector_chain.py``: paired
(plain, streaming) rounds interleaved, gated on the *best* round —
machine noise can only inflate a measured overhead, so the minimum over
a few rounds is the robust estimate of the sink's actual cost.  The
cadence under test (a recorded point every 500 iterations, default
4096-row segments) is denser than any production long run — the default
trace cadence is ``iterations // 100`` — and the window is sized so at
least one full segment commit (segment file + manifest, both fsynced)
lands inside the timed region.  The engine behind ``engine="fast"`` runs
the compiled loops, so the 2.1M-iteration window lasts a few tenths of
a second and reaches a recorded point every ~40 µs.  The writer keeps
that hot path short: the sink buffers the trace point itself (a list
append, no per-point dict), and a full segment's file and manifest are
written by a background thread while the engine keeps running
(write-behind), so the commit's fsyncs overlap the chain instead of
stalling it.  The window still holds only about one commit, so the
measured overhead is noisy; the best-of-rounds rule absorbs that.

``test_store_job_fixed_cost_n100`` (no gate) records the ledger row
``store_job_fixed_cost_n100`` in ``BENCH_ensemble.json``: what one job of
``perfbench``'s ``lambda_sweep`` costs, phase by phase, in fresh
processes.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

import _emit
from _fresh import PROCESSES, in_fresh_processes, spread
from repro.core.compression import CompressionSimulation
from repro.io.trace_store import TraceStoreSink, TraceStoreWriter
from repro.lattice.shapes import line

#: Iterations measured per round (after warmup) — sized so the streaming
#: run flushes at least one full default-size segment inside the window.
_WINDOW = 2_100_000
_WARMUP = 2_000
#: Streaming cadence under test: one recorded point per _RECORD_EVERY
#: iterations, committed in default-size (4096-row) segments.
_RECORD_EVERY = 500


def _measured_rate(n, sink, lam=4.0, seed=0):
    simulation = CompressionSimulation(
        line(n), lam=lam, seed=seed, engine="fast", trace_sink=sink
    )
    simulation.run(_WARMUP, record_every=_RECORD_EVERY)
    started = time.perf_counter()
    simulation.run(_WINDOW, record_every=_RECORD_EVERY)
    return _WINDOW / (time.perf_counter() - started)


def test_trace_store_write_throughput(tmp_path):
    """Raw writer throughput: rows appended and committed per second.

    Small (256-row) segments on purpose: this row tracks the commit
    path — hundreds of real segment flushes — not the buffer.
    """
    rows = 100_000
    writer = TraceStoreWriter(tmp_path / "store", rows_per_segment=256)
    row = {"iteration": 0, "perimeter": 1, "edges": 2, "holes": 0,
           "alpha": 1.5, "beta": 0.5}
    started = time.perf_counter()
    for i in range(rows):
        row["iteration"] = i
        writer.append(row)
    writer.close()
    rate = rows / (time.perf_counter() - started)
    _emit.record(
        "trace_store_write_throughput",
        rows=rows,
        rows_per_segment=256,
        rows_per_second=rate,
    )
    assert writer.committed_rows == rows


@pytest.mark.slow
def test_trace_overhead_n1000(tmp_path):
    """Acceptance gate: streaming costs < 5% of fast-engine throughput at n=1000."""
    rounds = []
    for index in range(3):
        plain_rate = _measured_rate(1000, sink=None)
        sink = TraceStoreSink(
            tmp_path / f"round-{index}", meta={"n": 1000, "lambda": 4.0}
        )
        streaming_rate = _measured_rate(1000, sink=sink)
        sink.close()
        rounds.append((plain_rate, streaming_rate, 1.0 - streaming_rate / plain_rate))
    plain_rate, streaming_rate, overhead = min(rounds, key=lambda r: r[2])
    _emit.record(
        "trace_overhead_n1000",
        n=1000,
        record_every=_RECORD_EVERY,
        plain_iterations_per_second=plain_rate,
        streaming_iterations_per_second=streaming_rate,
        overhead_fraction=overhead,
        rounds=len(rounds),
    )
    assert overhead < 0.05, (
        f"streaming trace store costs {overhead:.1%} of fast-engine throughput "
        f"at n=1000 ({streaming_rate:.0f} vs {plain_rate:.0f} iterations/sec); "
        f"the acceptance bound is 5%"
    )


ENSEMBLE_LEDGER = Path(__file__).parent / "BENCH_ensemble.json"

#: The phases of one store-backed job, in order.
_JOB_PHASES = ("engine_build", "chain_and_sampling", "store_commit", "checkpoint_document")

_FIXED_COST_CHILD = """
import dataclasses, json, sys, tempfile, time
from pathlib import Path
from repro.core.compression import CompressionSimulation
from repro.runtime import lambda_sweep_jobs
from repro.runtime.checkpoint import EnsembleCheckpoint
from repro.runtime.jobs import ChainResult, _finish_job_sink, _open_job_sink
lambdas = (1.5, 2.0, 2.5, 3.0, 3.42, 4.0, 5.0, 6.0)
phases = {name: [] for name in sys.argv[1:]}
with tempfile.TemporaryDirectory() as scratch:
    jobs = lambda_sweep_jobs(
        n=100, lambdas=lambdas, iterations=80_000, seed=0, engine="fast", replicas=6
    )
    checkpoint = EnsembleCheckpoint(Path(scratch) / "checkpoint")
    for job in jobs:
        job = dataclasses.replace(job, trace_store=str(Path(scratch) / "stores"))
        stamps = [time.perf_counter()]
        initial = job.build_initial()
        sink = _open_job_sink(job, initial.n)
        simulation = CompressionSimulation(
            initial, lam=job.lam, seed=job.seed, engine=job.engine, trace_sink=sink
        )
        stamps.append(time.perf_counter())
        simulation.run(job.iterations, record_every=job.record_every)
        stamps.append(time.perf_counter())
        path = _finish_job_sink(sink)
        stamps.append(time.perf_counter())
        chain = simulation.chain
        checkpoint.store(ChainResult(
            job=job, trace=simulation.trace, iterations=chain.iterations,
            accepted_moves=chain.accepted_moves, rejection_counts=chain.rejection_counts,
            compression_time=None, wall_seconds=stamps[-1] - stamps[0],
            trace_store_path=path,
        ))
        stamps.append(time.perf_counter())
        for name, start, end in zip(phases, stamps, stamps[1:]):
            phases[name].append(end - start)
print(json.dumps(phases))
"""


def test_store_job_fixed_cost_n100():
    """Seconds one ``lambda_sweep`` job spends per phase (no gate).

    Each of :data:`PROCESSES` fresh interpreters runs the 48 jobs of
    ``perfbench``'s ``lambda_sweep`` (n = 100 line starts, 80,000
    iterations, a trace store each) the way ``run_job`` does, split into
    phases: ``engine_build`` (start, sink and engine), ``chain_and_sampling``
    (``CompressionSimulation.run``), ``store_commit`` (closing the sink)
    and ``checkpoint_document`` (``EnsembleCheckpoint.store``).  The row
    keeps each phase's per-job median and quartiles over all jobs, each
    process's median, and each process's first job (the first job of a
    pool worker) beside the median of its later ones."""
    per_process = in_fresh_processes(_FIXED_COST_CHILD, *_JOB_PHASES)
    phases = []
    for phase in _JOB_PHASES:
        summary = spread([times[phase] for times in per_process], 1.0)
        phases.append(
            {
                "phase": phase,
                "median_s": summary["median"],
                "q1_s": summary["q1"],
                "q3_s": summary["q3"],
                "process_median_s": summary["process_medians"],
            }
        )
    totals = [[sum(job) for job in zip(*times.values())] for times in per_process]
    _emit.record(
        "store_job_fixed_cost_n100",
        path=ENSEMBLE_LEDGER,
        n=100,
        iterations=80_000,
        jobs=len(totals[0]),
        processes=PROCESSES,
        engine="fast",
        phases=phases,
        job_median_s=spread(totals, 1.0)["median"],
        first_job_s=[job_times[0] for job_times in totals],
        later_jobs_median_s=[float(np.median(job_times[1:])) for job_times in totals],
    )
