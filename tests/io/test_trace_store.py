"""Unit and property tests for :mod:`repro.io.trace_store`.

Covers the format (segments, manifest, validation on both ends), the
sink's cadence, trace interop, and property-based round-trips including
NaN/inf floats and byte-identical re-serialization.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading

import numpy as np
import pytest

from repro.core.compression import CompressionTrace, TracePoint
from repro.errors import ConfigurationError, SerializationError
from repro.io import trace_store
from repro.io.trace_store import (
    DEFAULT_ROWS_PER_SEGMENT,
    TRACE_COLUMNS,
    TraceStoreReader,
    TraceStoreSink,
    TraceStoreWriter,
    iter_trace_stores,
    read_trace,
    write_trace,
)


def make_trace(num_points, n=12, lam=4.0):
    trace = CompressionTrace(n=n, lam=lam)
    for i in range(num_points):
        trace.points.append(
            TracePoint(
                iteration=i * 5,
                perimeter=30 - i % 7,
                edges=20 + i % 3,
                holes=i % 2,
                alpha=1.0 + 0.01 * i,
                beta=0.9 - 0.001 * i,
            )
        )
    return trace


# --------------------------------------------------------------------- #
# Round trips
# --------------------------------------------------------------------- #
def test_write_read_trace_round_trip(tmp_path):
    trace = make_trace(10)
    write_trace(trace, tmp_path / "store", rows_per_segment=3)
    loaded = read_trace(tmp_path / "store")
    assert loaded == trace


def test_multi_segment_layout(tmp_path):
    trace = make_trace(10)
    write_trace(trace, tmp_path / "store", rows_per_segment=3)
    reader = TraceStoreReader(tmp_path / "store")
    assert reader.segments == [3, 3, 3, 1]
    assert reader.num_segments == 4
    assert reader.num_rows == 10
    assert reader.complete
    assert reader.column_names == [name for name, _ in TRACE_COLUMNS]
    files = sorted(p.name for p in (tmp_path / "store").glob("seg-*.npy"))
    assert len(files) == 4 * len(TRACE_COLUMNS)
    assert not list((tmp_path / "store").glob("*.tmp"))


def test_empty_trace_store(tmp_path):
    trace = make_trace(0)
    write_trace(trace, tmp_path / "store")
    reader = TraceStoreReader(tmp_path / "store")
    assert reader.num_rows == 0
    assert reader.num_segments == 0
    assert reader.complete
    assert list(reader.iter_rows()) == []
    assert reader.column("alpha").shape == (0,)
    assert read_trace(tmp_path / "store") == trace
    with pytest.raises(SerializationError, match="no rows"):
        reader.final_row()


def test_single_row_store(tmp_path):
    trace = make_trace(1)
    write_trace(trace, tmp_path / "store")
    reader = TraceStoreReader(tmp_path / "store")
    assert reader.segments == [1]
    assert reader.final_row()["iteration"] == 0
    assert read_trace(tmp_path / "store") == trace


def test_column_and_final_row(tmp_path):
    trace = make_trace(10)
    write_trace(trace, tmp_path / "store", rows_per_segment=4)
    reader = TraceStoreReader(tmp_path / "store")
    np.testing.assert_array_equal(
        reader.column("iteration"), np.array([p.iteration for p in trace.points])
    )
    final = reader.final_row()
    assert final == {
        "iteration": trace.points[-1].iteration,
        "perimeter": trace.points[-1].perimeter,
        "edges": trace.points[-1].edges,
        "holes": trace.points[-1].holes,
        "alpha": trace.points[-1].alpha,
        "beta": trace.points[-1].beta,
    }
    assert all(isinstance(v, (int, float)) for v in final.values())


def test_read_trace_needs_n_lam(tmp_path):
    writer = TraceStoreWriter(tmp_path / "store")
    writer.append_point(make_trace(1).points[0])
    writer.close()
    reader = TraceStoreReader(tmp_path / "store")
    with pytest.raises(SerializationError, match="n/lambda"):
        reader.read_trace()
    trace = reader.read_trace(n=12, lam=4.0)
    assert trace.n == 12 and trace.lam == 4.0


def test_meta_round_trip(tmp_path):
    meta = {"n": 12, "lambda": 4.0, "note": "hello", "nested": {"a": [1, 2]}}
    writer = TraceStoreWriter(tmp_path / "store", meta=meta)
    writer.close()
    assert TraceStoreReader(tmp_path / "store").meta == meta


# --------------------------------------------------------------------- #
# Writer behavior
# --------------------------------------------------------------------- #
def test_writer_commits_empty_manifest_on_construction(tmp_path):
    writer = TraceStoreWriter(tmp_path / "store")
    reader = TraceStoreReader(tmp_path / "store")
    assert reader.num_rows == 0
    assert not reader.complete
    writer.close()
    assert TraceStoreReader(tmp_path / "store").complete


def test_writer_autoflush_and_committed_rows(tmp_path):
    writer = TraceStoreWriter(tmp_path / "store", rows_per_segment=4)
    points = make_trace(6).points
    for i, point in enumerate(points):
        writer.append_point(point)
        assert writer.committed_rows == (4 if i >= 3 else 0)
    assert writer.buffered_rows == 2
    writer.close()
    assert writer.committed_rows == 6
    assert TraceStoreReader(tmp_path / "store").segments == [4, 2]


def test_full_segment_commits_behind_the_appends(tmp_path, monkeypatch):
    """The append that fills a segment returns while the segment's files
    are still being written; the next commit waits for them."""
    release = threading.Event()
    original = trace_store._file_write

    def held_write(handle, data):
        assert release.wait(timeout=30), "the test never released the commit"
        original(handle, data)

    writer = TraceStoreWriter(tmp_path / "store", rows_per_segment=2)
    monkeypatch.setattr(trace_store, "_file_write", held_write)
    points = make_trace(3).points
    writer.append_point(points[0])
    writer.append_point(points[1])  # fills the segment; its commit is held
    writer.append_point(points[2])
    assert writer.buffered_rows == 1
    assert TraceStoreReader(tmp_path / "store").num_rows == 0
    release.set()
    assert writer.committed_rows == 2
    writer.close()
    assert TraceStoreReader(tmp_path / "store").read_trace(n=12, lam=4.0).points == points


def test_failed_background_commit_raises_on_the_next_commit(tmp_path, monkeypatch):
    writer = TraceStoreWriter(tmp_path / "store", rows_per_segment=2)

    def failing_write(handle, data):
        raise OSError("disk full")

    monkeypatch.setattr(trace_store, "_file_write", failing_write)
    points = make_trace(3).points
    for point in points:
        writer.append_point(point)  # the failing commit runs behind these
    with pytest.raises(SerializationError, match="disk full"):
        writer.flush()
    assert writer.closed and writer.committed_rows == 0
    with pytest.raises(SerializationError, match="closed"):
        writer.append_point(points[0])
    reader = TraceStoreReader(tmp_path / "store")
    assert reader.num_rows == 0 and not reader.complete


def test_background_commits_under_thread_contention(tmp_path):
    """Four writers, each on its own thread, commit many small segments
    with a tiny interpreter switch interval; every row must land once."""
    points = make_trace(301).points
    committed = {}
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def stream(index):
            writer = TraceStoreWriter(tmp_path / f"store-{index}", rows_per_segment=3)
            for point in points:
                writer.append_point(point)
            committed[index] = writer.committed_rows
            writer.close()

        threads = [threading.Thread(target=stream, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert committed == {index: 300 for index in range(4)}
    for index in range(4):
        reader = TraceStoreReader(tmp_path / f"store-{index}")
        assert reader.complete and reader.segments == [3] * 100 + [1]
        assert reader.read_trace(n=12, lam=4.0).points == points


def test_append_point_writes_the_same_bytes_as_append(tmp_path):
    points = make_trace(7).points
    with TraceStoreWriter(tmp_path / "points", rows_per_segment=3) as writer:
        for point in points:
            writer.append_point(point)
    with TraceStoreWriter(tmp_path / "rows", rows_per_segment=3) as writer:
        for point in points:
            writer.append(
                {name: getattr(point, name) for name, _ in TRACE_COLUMNS}
            )
    written = sorted(p.name for p in (tmp_path / "rows").iterdir())
    assert sorted(p.name for p in (tmp_path / "points").iterdir()) == written
    for name in written:
        assert (tmp_path / "points" / name).read_bytes() == (
            tmp_path / "rows" / name
        ).read_bytes()


def test_standard_columns_follow_the_trace_point_fields():
    assert [name for name, _ in TRACE_COLUMNS] == [
        field.name for field in dataclasses.fields(TracePoint)
    ]


def test_append_point_fills_a_custom_schema_from_point_fields(tmp_path):
    points = make_trace(3).points
    columns = [("perimeter", "<i8"), ("alpha", "<f8")]
    with TraceStoreWriter(tmp_path / "store", columns=columns) as writer:
        for point in points:
            writer.append_point(point)
    reader = TraceStoreReader(tmp_path / "store")
    assert reader.column("perimeter").tolist() == [p.perimeter for p in points]
    assert reader.column("alpha").tolist() == [p.alpha for p in points]


def test_writer_refuses_after_close(tmp_path):
    writer = TraceStoreWriter(tmp_path / "store")
    writer.close()
    with pytest.raises(SerializationError, match="closed"):
        writer.append_point(make_trace(1).points[0])
    with pytest.raises(SerializationError, match="closed"):
        writer.flush()
    writer.close()  # idempotent


def test_writer_rejects_missing_column(tmp_path):
    writer = TraceStoreWriter(tmp_path / "store")
    with pytest.raises(SerializationError, match="missing column"):
        writer.append({"iteration": 1})


def test_writer_discards_previous_store(tmp_path):
    store = tmp_path / "store"
    write_trace(make_trace(9), store, rows_per_segment=2)
    writer = TraceStoreWriter(store, rows_per_segment=2)
    writer.append_point(make_trace(1).points[0])
    writer.close()
    reader = TraceStoreReader(store)
    assert reader.num_rows == 1
    assert sorted(p.name for p in store.glob("seg-*.npy")) == [
        f"seg-00000.{name}.npy" for name in sorted(reader.column_names)
    ]


def test_writer_validates_arguments(tmp_path):
    with pytest.raises(ConfigurationError, match="rows_per_segment"):
        TraceStoreWriter(tmp_path / "s", rows_per_segment=0)
    with pytest.raises(ConfigurationError, match="at least one column"):
        TraceStoreWriter(tmp_path / "s", columns=[])
    with pytest.raises(ConfigurationError, match="invalid column name"):
        TraceStoreWriter(tmp_path / "s", columns=[("a.b", "<f8")])
    with pytest.raises(ConfigurationError, match="duplicate column"):
        TraceStoreWriter(tmp_path / "s", columns=[("a", "<f8"), ("a", "<i8")])
    with pytest.raises(SerializationError, match="not JSON-serializable"):
        TraceStoreWriter(tmp_path / "s", meta={"bad": object()})


def test_writer_context_manager_closes_on_clean_exit_only(tmp_path):
    with TraceStoreWriter(tmp_path / "clean") as writer:
        writer.append_point(make_trace(1).points[0])
    assert TraceStoreReader(tmp_path / "clean").complete

    with pytest.raises(RuntimeError, match="boom"):
        with TraceStoreWriter(tmp_path / "dirty") as writer:
            writer.append_point(make_trace(1).points[0])
            raise RuntimeError("boom")
    reader = TraceStoreReader(tmp_path / "dirty")
    assert not reader.complete  # crash semantics: last committed manifest stands
    assert reader.num_rows == 0


# --------------------------------------------------------------------- #
# Reader validation
# --------------------------------------------------------------------- #
def test_reader_refuses_missing_or_foreign_manifest(tmp_path):
    with pytest.raises(SerializationError, match="manifest"):
        TraceStoreReader(tmp_path / "nowhere")
    store = tmp_path / "foreign"
    store.mkdir()
    (store / "manifest.json").write_text(json.dumps({"kind": "something_else"}))
    with pytest.raises(SerializationError, match="not a trace store"):
        TraceStoreReader(store)
    (store / "manifest.json").write_text("{not json")
    with pytest.raises(SerializationError, match="manifest"):
        TraceStoreReader(store)


def test_reader_refuses_corrupt_committed_segment(tmp_path):
    store = tmp_path / "store"
    write_trace(make_trace(6), store, rows_per_segment=3)
    victim = store / "seg-00001.alpha.npy"
    victim.write_bytes(victim.read_bytes()[:-9])  # truncate: partial row
    reader = TraceStoreReader(store)
    with pytest.raises(SerializationError, match="missing or corrupt"):
        reader.segment_column(1, "alpha")
    # Other segments and columns stay readable.
    assert reader.segment_column(0, "alpha").shape == (3,)
    assert reader.segment_column(1, "iteration").shape == (3,)


def test_reader_refuses_deleted_committed_segment(tmp_path):
    store = tmp_path / "store"
    write_trace(make_trace(6), store, rows_per_segment=3)
    (store / "seg-00000.edges.npy").unlink()
    with pytest.raises(SerializationError, match="missing or corrupt"):
        list(TraceStoreReader(store).iter_rows())


def test_reader_refuses_row_count_and_dtype_mismatch(tmp_path):
    store = tmp_path / "store"
    write_trace(make_trace(4), store, rows_per_segment=4)
    # Swap in a wrong-length array of the right dtype.
    np.save(store / "seg-00000.holes.npy", np.zeros(3, dtype="<i8"))
    with pytest.raises(SerializationError, match="manifest\\s+committed 4 rows"):
        TraceStoreReader(store).segment_column(0, "holes")
    # And a wrong-dtype array of the right length.
    np.save(store / "seg-00000.holes.npy", np.zeros(4, dtype="<f4"))
    with pytest.raises(SerializationError, match="dtype"):
        TraceStoreReader(store).segment_column(0, "holes")


def test_reader_rejects_bad_requests(tmp_path):
    store = tmp_path / "store"
    write_trace(make_trace(2), store)
    reader = TraceStoreReader(store)
    with pytest.raises(SerializationError, match="out of range"):
        reader.segment_column(1, "alpha")
    with pytest.raises(SerializationError, match="unknown column"):
        reader.segment_column(0, "nope")
    with pytest.raises(SerializationError, match="compression-trace schema"):
        custom = tmp_path / "custom"
        with TraceStoreWriter(custom, columns=[("x", "<f8")]) as writer:
            writer.append({"x": 1.0})
        TraceStoreReader(custom).read_trace(n=2, lam=1.0)


# --------------------------------------------------------------------- #
# Sink
# --------------------------------------------------------------------- #
def test_sink_every_one_matches_trace(tmp_path):
    trace = make_trace(9)
    with TraceStoreSink(tmp_path / "store", meta={"n": 12, "lambda": 4.0}) as sink:
        for point in trace.points:
            sink.append(point)
    assert read_trace(tmp_path / "store") == trace


@pytest.mark.parametrize("every", [2, 3, 7])
def test_sink_cadence_subsamples(tmp_path, every):
    trace = make_trace(20)
    with TraceStoreSink(
        tmp_path / "store", every=every, meta={"n": 12, "lambda": 4.0}
    ) as sink:
        for point in trace.points:
            sink.append(point)
    kept = read_trace(tmp_path / "store").points
    assert kept == trace.points[::every]  # first point always included


def test_sink_wraps_existing_writer_and_validates(tmp_path):
    writer = TraceStoreWriter(tmp_path / "store", rows_per_segment=2)
    sink = TraceStoreSink(writer)
    assert sink.directory == writer.directory
    sink.append(make_trace(1).points[0])
    sink.close()
    assert writer.closed
    with pytest.raises(ConfigurationError, match="every"):
        TraceStoreSink(tmp_path / "other", every=0)


# --------------------------------------------------------------------- #
# Store ensembles
# --------------------------------------------------------------------- #
def test_iter_trace_stores_sorted_and_filtered(tmp_path):
    for name in ("b-run", "a-run", "c-run"):
        write_trace(make_trace(2), tmp_path / name)
    (tmp_path / "not-a-store").mkdir()
    (tmp_path / "stray.txt").write_text("ignored")
    readers = list(iter_trace_stores(tmp_path))
    assert [r.directory.name for r in readers] == ["a-run", "b-run", "c-run"]
    with pytest.raises(SerializationError, match="not a directory"):
        list(iter_trace_stores(tmp_path / "stray.txt"))


# --------------------------------------------------------------------- #
# Property-based round trips (hypothesis is a local-dev extra; CI skips)
# --------------------------------------------------------------------- #
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

finite_or_special = st.floats(allow_nan=True, allow_infinity=True, width=64)
point_strategy = st.builds(
    TracePoint,
    iteration=st.integers(min_value=0, max_value=2**62),
    perimeter=st.integers(min_value=-(2**31), max_value=2**31),
    edges=st.integers(min_value=0, max_value=2**31),
    holes=st.integers(min_value=0, max_value=1000),
    alpha=finite_or_special,
    beta=finite_or_special,
)


def points_equal(a, b):
    """TracePoint equality with NaN == NaN (bit-level float identity)."""
    ints_equal = (a.iteration, a.perimeter, a.edges, a.holes) == (
        b.iteration,
        b.perimeter,
        b.edges,
        b.holes,
    )
    floats_equal = np.array_equal(
        np.array([a.alpha, a.beta]), np.array([b.alpha, b.beta]), equal_nan=True
    )
    return ints_equal and floats_equal


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    points=st.lists(point_strategy, max_size=25),
    rows_per_segment=st.integers(min_value=1, max_value=7),
)
def test_store_round_trip_property(tmp_path_factory, points, rows_per_segment):
    tmp_path = tmp_path_factory.mktemp("prop")
    trace = CompressionTrace(n=5, lam=2.0)
    trace.points.extend(points)
    write_trace(trace, tmp_path / "a", rows_per_segment=rows_per_segment)
    loaded = read_trace(tmp_path / "a")
    assert loaded.n == trace.n and loaded.lam == trace.lam
    assert len(loaded.points) == len(trace.points)
    assert all(points_equal(x, y) for x, y in zip(loaded.points, trace.points))
    # Save -> load -> save is byte-identical, segment files and manifest alike.
    write_trace(loaded, tmp_path / "b", rows_per_segment=rows_per_segment)
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    values=st.lists(finite_or_special, min_size=1, max_size=30),
    rows_per_segment=st.integers(min_value=1, max_value=5),
)
def test_custom_column_store_property(tmp_path_factory, values, rows_per_segment):
    tmp_path = tmp_path_factory.mktemp("custom")
    with TraceStoreWriter(
        tmp_path / "s",
        columns=[("value", "<f8"), ("index", "<i8")],
        rows_per_segment=rows_per_segment,
    ) as writer:
        for i, value in enumerate(values):
            writer.append({"value": value, "index": np.int64(i)})  # numpy scalars OK
    reader = TraceStoreReader(tmp_path / "s")
    np.testing.assert_array_equal(
        reader.column("value"), np.array(values, dtype="<f8")
    )
    np.testing.assert_array_equal(reader.column("index"), np.arange(len(values)))
