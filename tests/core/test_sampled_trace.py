"""Traces recorded from one sampled ``run`` call against the per-block loop.

On a hole-free fast engine, :func:`repro.core.compression.record_trace`
advances the chain through ``run(k, sample_every=record_every)``: the
compiled ``run_chain`` cuts its tape spans at every ``record_every``-th
proposal and writes the edge count there, so a whole trace is one call
(one more after each guard-band reallocation, and one per
:data:`~repro.core.compression.SAMPLES_PER_CALL` points).  Every trace
here must equal the one the per-block loop records from a twin engine
(one ``run(record_every)`` and one sample per point), and the two engines
must end in the same state, for every kernel mode, on the compiled build
and on the Python loops, which refuse ``sample_every`` and so keep the
per-block loop:

* strides that divide the run and strides that leave a short last block;
* a guard-band reallocation inside a sampled span;
* a start with holes, which keeps the per-block loop;
* runs of more points than one call records;
* a trace-store sink, whose rows must be equal.

``pytest --native-library PATH`` runs it against another build of
``chain_loops.c``.
"""

import pytest

from repro.core.compression import (
    SAMPLES_PER_CALL,
    CompressionTrace,
    engine_metrics,
    record_trace,
    sampled_run,
)
from repro.core.fast_chain import _OUTCOMES, FastCompressionChain
from repro.errors import ConfigurationError
from repro.io.trace_store import DEFAULT_ROWS_PER_SEGMENT, TraceStoreReader, TraceStoreSink
from repro.lattice.shapes import line, spiral

from test_native_loops import KERNELS, NEAR_BAND, holey_start, move_to_window, record_reallocations

pytestmark = pytest.mark.usefixtures("native_build")

BUILDS = ["compiled", "python"]


def twin_engines(initial, mode, build, python_loops, seed=7):
    """Two engines of one kernel mode and build, seeded alike."""
    kernel = KERNELS[mode](initial)
    with python_loops(build == "python"):
        engines = [FastCompressionChain(initial, seed=seed, kernel=kernel) for _ in range(2)]
    if build == "compiled" and engines[0]._library is None:
        pytest.skip("no compiled loop to sample: chain_loops.c did not build")
    return engines


def count_runs(engine):
    """Count ``engine.run`` calls (``sampled_run`` looks the method up on
    each call, so an instance attribute intercepts it)."""
    calls = []
    original = engine.run

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    engine.run = counted
    return calls


def per_block_calls(iterations, record_every):
    """The ``run`` calls of the per-block loop."""
    full, rest = divmod(iterations, record_every)
    return [record_every] * full + ([rest] if rest else [])


def sampled_calls(build, iterations, record_every):
    """The ``run`` calls ``record_trace`` makes on a hole-free start."""
    return [iterations] if build == "compiled" else per_block_calls(iterations, record_every)


def record(engine, iterations, record_every, sampled, sink=None):
    trace = CompressionTrace(n=engine.n, lam=engine.lam)
    return record_trace(
        engine.run,
        lambda: engine_metrics(engine),
        iterations,
        record_every,
        trace,
        sink,
        run_sampled=sampled_run(engine) if sampled else None,
    )


def assert_same_engines(per_block, sampled, context):
    assert sampled.occupied == per_block.occupied, context
    assert sampled.iterations == per_block.iterations, context
    assert sampled.edge_count == per_block.edge_count, context
    assert sampled.accepted_moves == per_block.accepted_moves, context
    assert sampled.rejection_counts == per_block.rejection_counts, context
    assert sampled._draws.cursor == per_block._draws.cursor, context
    assert sampled._rng.bit_generator.state == per_block._rng.bit_generator.state, context


@pytest.mark.parametrize("build", BUILDS)
@pytest.mark.parametrize("mode", sorted(KERNELS))
@pytest.mark.parametrize("record_every", [7, 800, 999, 20_000, 30_000])
def test_a_sampled_trace_is_the_per_block_trace(mode, build, record_every, python_loops):
    """999 leaves a short last block, 30,000 a single short block."""
    per_block, sampled = twin_engines(line(30), mode, build, python_loops)
    calls = count_runs(sampled)
    expected = record(per_block, 20_000, record_every, sampled=False)
    trace = record(sampled, 20_000, record_every, sampled=True)
    context = f"{mode} {build} every {record_every}"
    assert trace == expected, context
    assert trace.points[-1].iteration == 20_000, context
    assert all(type(value) is int for value in (trace.points[-1].edges, trace.points[1].edges))
    assert calls == sampled_calls(build, 20_000, record_every), context
    assert_same_engines(per_block, sampled, context)
    # A second run continues both the trace and the chain alike.
    assert record(sampled, 5_000, record_every, sampled=True) == record(
        per_block, 5_000, record_every, sampled=False
    ), context
    assert_same_engines(per_block, sampled, context)


@pytest.mark.parametrize("build", BUILDS)
@pytest.mark.parametrize("path", sorted(NEAR_BAND))
@pytest.mark.parametrize("mode", sorted(KERNELS))
def test_a_reallocation_inside_a_sampled_span(mode, path, build, python_loops):
    initial = spiral(20)
    per_block, sampled = twin_engines(initial, mode, build, python_loops, seed=2)
    for engine in (per_block, sampled):
        move_to_window(engine, initial, NEAR_BAND[path])
    paths = record_reallocations(sampled)
    cuts = []
    if build == "compiled":
        realloc = sampled._reallocate

        def spy():
            # Every proposal adds one to exactly one outcome slot, so the
            # slots sum to the proposals of the sampled call so far.
            cuts.append(int(sampled._counters[:_OUTCOMES].sum()))
            realloc()

        sampled._reallocate = spy
    expected = record(per_block, 8_000, 250, sampled=False)
    trace = record(sampled, 8_000, 250, sampled=True)
    context = f"{mode} {path} {build}"
    assert paths, "the start must force a reallocation"
    assert trace == expected, context
    assert_same_engines(per_block, sampled, context)
    if build == "compiled":
        assert any(cut % 250 for cut in cuts), cuts


@pytest.mark.parametrize("build", BUILDS)
def test_a_holey_start_keeps_the_per_block_loop(build, python_loops):
    initial = holey_start(40, seed=2)
    per_block, sampled = twin_engines(initial, "edge", build, python_loops, seed=3)
    calls = count_runs(sampled)
    expected = record(per_block, 3_000, 100, sampled=False)
    trace = record(sampled, 3_000, 100, sampled=True)
    assert trace == expected
    assert calls == per_block_calls(3_000, 100)
    assert_same_engines(per_block, sampled, build)


@pytest.mark.parametrize("build", BUILDS)
def test_one_call_records_at_most_one_segment_of_points(build, python_loops):
    assert SAMPLES_PER_CALL == DEFAULT_ROWS_PER_SEGMENT
    per_block, sampled = twin_engines(line(20), "edge", build, python_loops)
    calls = count_runs(sampled)
    iterations = 2 * SAMPLES_PER_CALL + 5
    expected = record(per_block, iterations, 1, sampled=False)
    assert record(sampled, iterations, 1, sampled=True) == expected
    if build == "compiled":
        assert calls == [SAMPLES_PER_CALL, SAMPLES_PER_CALL, 5]
    else:
        assert calls == per_block_calls(iterations, 1)


@pytest.mark.parametrize("build", BUILDS)
@pytest.mark.parametrize("mode", sorted(KERNELS))
def test_a_sink_stores_the_per_block_rows(mode, build, python_loops, tmp_path):
    per_block, sampled = twin_engines(line(30), mode, build, python_loops)
    meta = {"n": 30, "lambda": 4.0}
    sinks = [
        TraceStoreSink(tmp_path / name, rows_per_segment=16, meta=meta)
        for name in ("per_block", "sampled")
    ]
    record(per_block, 12_000, 150, sampled=False, sink=sinks[0])
    record(sampled, 12_000, 150, sampled=True, sink=sinks[1])
    for sink in sinks:
        sink.close()
    rows = [list(TraceStoreReader(sink.directory).iter_rows()) for sink in sinks]
    assert rows[0] == rows[1]
    assert len(rows[0]) == 81
    assert TraceStoreReader(sinks[1].directory).segments == [16] * 5 + [1]


def test_run_refuses_a_bad_stride():
    engine = FastCompressionChain(line(5), lam=4.0, seed=0)
    if engine._library is None:
        pytest.skip("no compiled loop to sample: chain_loops.c did not build")
    with pytest.raises(ConfigurationError, match="sample_every"):
        engine.run(10, sample_every=-1)
    with pytest.raises(ConfigurationError, match="sample_every"):
        engine.run(10, callback=lambda iteration, result: None, sample_every=2)
    assert engine.iterations == 0
    samples = engine.run(10, sample_every=3)
    assert len(samples) == 3 and all(type(value) is int for value in samples)
    assert engine.run(0, sample_every=3) == []
    assert engine.run(10) is None
    assert engine.iterations == 20


def test_the_python_loop_refuses_a_stride(python_loops):
    with python_loops():
        engine = FastCompressionChain(line(5), lam=4.0, seed=0)
    assert sampled_run(engine) is None
    with pytest.raises(ConfigurationError, match="sample_every"):
        engine.run(10, sample_every=3)
    assert engine.iterations == 0
