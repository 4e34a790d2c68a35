"""Unit and property tests for :mod:`repro.io.trace_store`.

Covers the format (segments, manifest, validation on both ends), the
sink, trace interop, and property-based round-trips including NaN/inf
floats and byte-identical re-serialization.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import threading
import warnings

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


def write_store_by_hand(directory, columns, rows, rows_per_segment=4):
    """A complete version-2 store of any schema, laid out as the writer
    lays one out: a structured-array file per segment, then the manifest.

    The writer only writes :data:`TRACE_COLUMNS`; stores of other
    schemas reach the reader from disk, so its checks are tested on
    these.  ``rows`` holds one tuple per row, in ``columns`` order.
    """
    directory.mkdir(parents=True)
    dtype = np.dtype([(name, kind) for name, kind in columns])
    segments = []
    for index, start in enumerate(range(0, len(rows), rows_per_segment)):
        part = rows[start : start + rows_per_segment]
        np.save(directory / f"seg-{index:05d}.npy", np.array(part, dtype=dtype))
        segments.append(len(part))
    manifest = {
        "format_version": 2,
        "kind": "trace_store",
        "columns": [list(column) for column in columns],
        "rows_per_segment": rows_per_segment,
        "segments": segments,
        "total_rows": len(rows),
        "complete": True,
        "meta": {},
    }
    (directory / "manifest.json").write_text(json.dumps(manifest))
    return directory


# --------------------------------------------------------------------- #
# Round trips
# --------------------------------------------------------------------- #
def test_write_read_trace_round_trip(tmp_path):
    trace = make_trace(10)
    write_trace(trace, tmp_path / "store", rows_per_segment=3)
    loaded = read_trace(tmp_path / "store")
    assert loaded == trace


def test_multi_segment_layout(tmp_path, rewrite_as_v1):
    """Format version 1: one file per column of each segment."""
    trace = make_trace(10)
    write_trace(trace, tmp_path / "store", rows_per_segment=3)
    rewrite_as_v1(tmp_path / "store")
    reader = TraceStoreReader(tmp_path / "store")
    assert reader.format_version == 1
    assert reader.segments == [3, 3, 3, 1]
    assert reader.num_segments == 4
    assert reader.num_rows == 10
    assert reader.complete
    assert reader.column_names == [name for name, _ in TRACE_COLUMNS]
    files = sorted(p.name for p in (tmp_path / "store").glob("seg-*.npy"))
    assert len(files) == 4 * len(TRACE_COLUMNS)
    assert not list((tmp_path / "store").glob("*.tmp"))
    assert reader.read_trace() == trace


def test_multi_segment_layout_v2(tmp_path):
    """Format version 2: one structured-array file per segment."""
    trace = make_trace(10)
    write_trace(trace, tmp_path / "store", rows_per_segment=3)
    reader = TraceStoreReader(tmp_path / "store")
    assert reader.format_version == 2
    assert reader.manifest["format_version"] == 2
    assert reader.segments == [3, 3, 3, 1]
    assert reader.num_segments == 4
    assert reader.num_rows == 10
    assert reader.complete
    assert reader.column_names == [name for name, _ in TRACE_COLUMNS]
    files = sorted(p.name for p in (tmp_path / "store").glob("seg-*.npy"))
    assert files == [f"seg-{index:05d}.npy" for index in range(4)]
    assert not list((tmp_path / "store").glob("*.tmp"))
    records = np.load(tmp_path / "store" / "seg-00000.npy", allow_pickle=False)
    assert records.dtype == np.dtype(list(TRACE_COLUMNS))  # packed, schema order
    assert records["iteration"].tolist() == [p.iteration for p in trace.points[:3]]


def test_v2_columns_are_contiguous_arrays_of_their_dtype(tmp_path):
    write_trace(make_trace(10), tmp_path / "store", rows_per_segment=4)
    reader = TraceStoreReader(tmp_path / "store")
    for name, dtype in TRACE_COLUMNS:
        for array in (reader.segment_column(1, name), reader.segment(1)[name]):
            assert array.dtype.str == dtype
            assert array.flags.c_contiguous and array.shape == (4,)


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
def test_writer_writes_nothing_before_its_first_commit(tmp_path):
    """No manifest (not even the directory) until the writer commits;
    ``close`` with no rows leaves a complete, empty store."""
    writer = TraceStoreWriter(tmp_path / "store")
    assert not (tmp_path / "store").exists()
    with pytest.raises(SerializationError, match="manifest"):
        TraceStoreReader(tmp_path / "store")
    writer.close()
    reader = TraceStoreReader(tmp_path / "store")
    assert reader.complete
    assert reader.num_rows == 0 and reader.segments == []
    assert sorted(path.name for path in (tmp_path / "store").iterdir()) == ["manifest.json"]


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
    assert not (tmp_path / "store" / "manifest.json").exists()
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
    assert not (tmp_path / "store" / "manifest.json").exists()


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


def test_writer_refuses_a_value_of_the_wrong_type(tmp_path):
    """A value no column dtype holds is refused by the commit that
    builds its segment, which closes the writer."""
    writer = TraceStoreWriter(tmp_path / "store")
    writer.append({name: 0 for name, _ in TRACE_COLUMNS} | {"alpha": "high"})
    with pytest.raises(SerializationError, match="'alpha' holds a value"):
        writer.close()
    assert writer.closed
    assert not (tmp_path / "store").exists()


def test_writer_discards_previous_store(tmp_path, rewrite_as_v1):
    """A version-1 store's per-column files go too."""
    store = tmp_path / "store"
    write_trace(make_trace(9), store, rows_per_segment=2)
    rewrite_as_v1(store)
    writer = TraceStoreWriter(store, rows_per_segment=2)
    writer.append_point(make_trace(1).points[0])
    writer.close()
    reader = TraceStoreReader(store)
    assert reader.num_rows == 1
    assert sorted(p.name for p in store.glob("seg-*.npy")) == ["seg-00000.npy"]


def test_writer_discards_previous_store_v2(tmp_path):
    store = tmp_path / "store"
    write_trace(make_trace(9), store, rows_per_segment=2)
    writer = TraceStoreWriter(store, rows_per_segment=2)
    writer.append_point(make_trace(1).points[0])
    writer.close()
    reader = TraceStoreReader(store)
    assert reader.num_rows == 1
    assert sorted(p.name for p in store.glob("seg-*.npy")) == ["seg-00000.npy"]


def test_writer_validates_arguments(tmp_path):
    with pytest.raises(ConfigurationError, match="rows_per_segment"):
        TraceStoreWriter(tmp_path / "s", rows_per_segment=0)
    # Meta is encoded by the first commit, which a failure closes.
    writer = TraceStoreWriter(tmp_path / "s", meta={"bad": object()})
    writer.append_point(make_trace(1).points[0])
    with pytest.raises(SerializationError, match="not JSON-serializable"):
        writer.close()
    assert writer.closed
    assert not (tmp_path / "s").exists()


def test_writer_context_manager_closes_on_clean_exit_only(tmp_path):
    with TraceStoreWriter(tmp_path / "clean") as writer:
        writer.append_point(make_trace(1).points[0])
    assert TraceStoreReader(tmp_path / "clean").complete

    with pytest.raises(RuntimeError, match="boom"):
        with TraceStoreWriter(tmp_path / "dirty") as writer:
            writer.append_point(make_trace(1).points[0])
            raise RuntimeError("boom")
    # Crash semantics: the last committed manifest stands (here, none).
    assert not (tmp_path / "dirty" / "manifest.json").exists()


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


@pytest.mark.parametrize(
    "columns, message",
    [
        ([], "at least one column"),
        ([("a.b", "<f8")], "invalid column name"),
        ([("a/b", "<f8")], "invalid column name"),
        ([("a", "<f8"), ("a", "<i8")], "duplicate column"),
        ([("a",)], "pairs"),
    ],
)
def test_reader_refuses_bad_manifest_columns(tmp_path, columns, message):
    store = write_store_by_hand(tmp_path / "store", [("a", "<f8")], [(1.0,)])
    manifest = json.loads((store / "manifest.json").read_text())
    manifest["columns"] = [list(column) for column in columns]
    (store / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SerializationError, match=message):
        TraceStoreReader(store)


def test_reader_refuses_unknown_format_version(tmp_path):
    store = tmp_path / "store"
    write_trace(make_trace(2), store)
    manifest = json.loads((store / "manifest.json").read_text())
    for version in (0, 3, "2", None):
        manifest["format_version"] = version
        (store / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SerializationError, match="format_version"):
            TraceStoreReader(store)


def test_reader_refuses_corrupt_committed_segment(tmp_path, rewrite_as_v1):
    store = tmp_path / "store"
    write_trace(make_trace(6), store, rows_per_segment=3)
    rewrite_as_v1(store)
    victim = store / "seg-00001.alpha.npy"
    victim.write_bytes(victim.read_bytes()[:-9])  # truncate: partial row
    reader = TraceStoreReader(store)
    with pytest.raises(SerializationError, match="missing or corrupt"):
        reader.segment_column(1, "alpha")
    # Other segments and columns stay readable.
    assert reader.segment_column(0, "alpha").shape == (3,)
    assert reader.segment_column(1, "iteration").shape == (3,)


def test_reader_refuses_corrupt_committed_segment_v2(tmp_path):
    store = tmp_path / "store"
    write_trace(make_trace(6), store, rows_per_segment=3)
    victim = store / "seg-00001.npy"
    victim.write_bytes(victim.read_bytes()[:-9])  # truncate: partial row
    reader = TraceStoreReader(store)
    with pytest.raises(SerializationError, match="missing or corrupt"):
        reader.segment_column(1, "alpha")
    with pytest.raises(SerializationError, match="missing or corrupt"):
        reader.final_row()
    # An archive is not a segment either.
    with open(victim, "wb") as handle:
        np.savez(handle, alpha=np.zeros(3))
    with pytest.raises(SerializationError, match="missing or corrupt"):
        reader.segment(1)
    # Other segments stay readable.
    assert reader.segment_column(0, "alpha").shape == (3,)
    assert reader.segment(0)["iteration"].shape == (3,)


def test_reader_refuses_deleted_committed_segment(tmp_path, rewrite_as_v1):
    store = tmp_path / "store"
    write_trace(make_trace(6), store, rows_per_segment=3)
    rewrite_as_v1(store)
    (store / "seg-00000.edges.npy").unlink()
    with pytest.raises(SerializationError, match="missing or corrupt"):
        list(TraceStoreReader(store).iter_rows())


def test_reader_refuses_deleted_committed_segment_v2(tmp_path):
    store = tmp_path / "store"
    write_trace(make_trace(6), store, rows_per_segment=3)
    (store / "seg-00000.npy").unlink()
    with pytest.raises(SerializationError, match="missing or corrupt"):
        list(TraceStoreReader(store).iter_rows())


def test_reader_refuses_row_count_and_dtype_mismatch(tmp_path, rewrite_as_v1):
    store = tmp_path / "store"
    write_trace(make_trace(4), store, rows_per_segment=4)
    rewrite_as_v1(store)
    # Swap in a wrong-length array of the right dtype.
    np.save(store / "seg-00000.holes.npy", np.zeros(3, dtype="<i8"))
    with pytest.raises(SerializationError, match="manifest\\s+committed 4 rows"):
        TraceStoreReader(store).segment_column(0, "holes")
    # And a wrong-dtype array of the right length.
    np.save(store / "seg-00000.holes.npy", np.zeros(4, dtype="<f4"))
    with pytest.raises(SerializationError, match="dtype"):
        TraceStoreReader(store).segment_column(0, "holes")


def test_reader_refuses_row_count_and_dtype_mismatch_v2(tmp_path):
    store = tmp_path / "store"
    write_trace(make_trace(4), store, rows_per_segment=4)
    segment = store / "seg-00000.npy"
    records = np.load(segment, allow_pickle=False)
    # Swap in a wrong-length array of the right dtype.
    np.save(segment, records[:3])
    with pytest.raises(SerializationError, match="manifest\\s+committed 4 rows"):
        TraceStoreReader(store).segment_column(0, "holes")
    # Right length, but one field of the wrong dtype, a renamed field,
    # the fields out of order, or a plain array.
    wrong_dtype = [(n, "<f4" if n == "holes" else d) for n, d in TRACE_COLUMNS]
    renamed = [("hole_count" if n == "holes" else n, d) for n, d in TRACE_COLUMNS]
    reordered = list(reversed(TRACE_COLUMNS))
    for dtype in (wrong_dtype, renamed, reordered, "<f8"):
        np.save(segment, np.zeros(4, dtype=dtype))
        with pytest.raises(SerializationError, match="dtype"):
            TraceStoreReader(store).segment_column(0, "alpha")
    np.save(segment, records)
    assert TraceStoreReader(store).segment_column(0, "holes").shape == (4,)


def test_reader_rejects_bad_requests(tmp_path):
    store = tmp_path / "store"
    write_trace(make_trace(2), store)
    reader = TraceStoreReader(store)
    with pytest.raises(SerializationError, match="out of range"):
        reader.segment_column(1, "alpha")
    with pytest.raises(SerializationError, match="unknown column"):
        reader.segment_column(0, "nope")
    custom = write_store_by_hand(tmp_path / "custom", [("x", "<f8")], [(1.0,)])
    with pytest.raises(SerializationError, match="compression-trace schema"):
        TraceStoreReader(custom).read_trace(n=2, lam=1.0)


# --------------------------------------------------------------------- #
# Sink
# --------------------------------------------------------------------- #
def test_sink_stores_every_point(tmp_path):
    trace = make_trace(9)
    with TraceStoreSink(
        tmp_path / "store", rows_per_segment=4, meta={"n": 12, "lambda": 4.0}
    ) as sink:
        for point in trace.points:
            sink.append(point)
    assert sink.directory == tmp_path / "store" and sink.writer.closed
    assert TraceStoreReader(tmp_path / "store").segments == [4, 4, 1]
    assert read_trace(tmp_path / "store") == trace
    with pytest.raises(ConfigurationError, match="rows_per_segment"):
        TraceStoreSink(tmp_path / "other", rows_per_segment=0)


def count_fsyncs(monkeypatch):
    """Count the store's fsyncs; returns the list they are logged in."""
    calls = []
    original = os.fsync

    def counted(fd):
        calls.append(fd)
        return original(fd)

    monkeypatch.setattr(os, "fsync", counted)
    return calls


def test_a_short_sink_commits_once_at_close(tmp_path, monkeypatch):
    """Segment, then the complete manifest: two fsyncs, and nothing on
    disk (not even the directory) before ``close``."""
    fsyncs = count_fsyncs(monkeypatch)
    trace = make_trace(101)
    sink = TraceStoreSink(tmp_path / "store", meta={"n": 12, "lambda": 4.0})
    for point in trace.points:
        sink.append(point)
    assert not (tmp_path / "store").exists()
    assert fsyncs == []
    sink.close()
    assert len(fsyncs) == 2
    assert sorted(path.name for path in (tmp_path / "store").iterdir()) == [
        "manifest.json", "seg-00000.npy",
    ]
    reader = TraceStoreReader(tmp_path / "store")
    assert reader.complete and reader.segments == [101]
    assert reader.read_trace() == trace


def test_write_trace_commits_a_short_trace_once(tmp_path, monkeypatch):
    fsyncs = count_fsyncs(monkeypatch)
    write_trace(make_trace(5), tmp_path / "store")
    assert len(fsyncs) == 2
    write_trace(make_trace(0), tmp_path / "empty")
    assert len(fsyncs) == 3  # the manifest alone
    assert TraceStoreReader(tmp_path / "empty").complete


def test_a_sink_that_fills_a_segment_streams(tmp_path, monkeypatch):
    fsyncs = count_fsyncs(monkeypatch)
    points = make_trace(10).points
    sink = TraceStoreSink(tmp_path / "store", rows_per_segment=4, meta={"n": 12, "lambda": 4.0})
    for point in points[:3]:
        sink.append(point)
    assert not (tmp_path / "store").exists()
    sink.append(points[3])
    assert sink.writer.committed_rows == 4  # waits for the background commit
    assert len(fsyncs) == 2
    reader = TraceStoreReader(tmp_path / "store")
    assert reader.segments == [4] and not reader.complete
    for point in points[4:]:
        sink.append(point)
    sink.close()
    assert len(fsyncs) == 6
    reader = TraceStoreReader(tmp_path / "store")
    assert reader.segments == [4, 4, 2] and reader.complete
    assert reader.read_trace().points == points


@pytest.mark.parametrize("previous", [False, True])
def test_a_sink_that_never_closes_leaves_no_manifest(tmp_path, previous):
    """A job that raises before ``close`` leaves no store to read, also
    where an earlier run left a complete one, and the ensemble scan skips
    its directory."""
    root = tmp_path / "stores"
    write_trace(make_trace(3), root / "done")
    if previous:
        write_trace(make_trace(3), root / "crashed")
    with pytest.raises(RuntimeError, match="job failed"):
        with TraceStoreSink(root / "crashed", meta={"n": 12, "lambda": 4.0}) as sink:
            for point in make_trace(8).points:
                sink.append(point)
            raise RuntimeError("job failed")
    assert not (root / "crashed" / "manifest.json").exists()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [reader.directory.name for reader in iter_trace_stores(root)] == ["done"]


def test_manifests_are_compact_json(tmp_path):
    meta = {"n": 12, "lambda": 4.0, "nested": {"b": [1, 2], "a": "x"}}
    write_trace(make_trace(2), tmp_path / "store", meta=meta)
    text = (tmp_path / "store" / "manifest.json").read_text(encoding="utf-8")
    manifest = json.loads(text)
    assert text == json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    assert manifest["meta"] == meta and manifest["complete"]


# --------------------------------------------------------------------- #
# Segment headers
# --------------------------------------------------------------------- #
def count_full_parses(monkeypatch):
    calls = []
    original = np.lib.format.read_array

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "read_array", counted)
    return calls


def test_writer_segments_load_without_the_full_parse(tmp_path, monkeypatch, rewrite_as_v1):
    parses = count_full_parses(monkeypatch)
    trace = make_trace(10)
    write_trace(trace, tmp_path / "v2", rows_per_segment=4)
    assert read_trace(tmp_path / "v2") == trace
    write_trace(trace, tmp_path / "v1", rows_per_segment=4)
    rewrite_as_v1(tmp_path / "v1")
    assert read_trace(tmp_path / "v1") == trace
    assert parses == []
    array = TraceStoreReader(tmp_path / "v2").segment_column(0, "alpha")
    array[0] = 2.0  # a loaded column is the caller's own, writable array


def test_a_segment_with_another_header_loads_through_the_full_parse(tmp_path, monkeypatch):
    """A valid ``.npy`` whose header is not the writer's (format 2.0 here)
    still loads, through numpy's parse."""
    trace = make_trace(6)
    write_trace(trace, tmp_path / "store", rows_per_segment=4)
    segment = tmp_path / "store" / "seg-00001.npy"
    records = np.load(segment, allow_pickle=False)
    with open(segment, "wb") as handle:
        np.lib.format.write_array(handle, records, version=(2, 0))
    parses = count_full_parses(monkeypatch)
    assert read_trace(tmp_path / "store") == trace
    assert len(parses) == 1


@pytest.mark.parametrize("version", [(1, 0), (2, 0)])
@pytest.mark.parametrize("change", ["one row short", "one byte short", "one row extra", "one byte extra"])
def test_a_payload_of_the_wrong_length_is_refused(tmp_path, change, version):
    write_trace(make_trace(6), tmp_path / "store", rows_per_segment=3)
    segment = tmp_path / "store" / "seg-00001.npy"
    records = np.load(segment, allow_pickle=False)
    with open(segment, "wb") as handle:
        np.lib.format.write_array(handle, records, version=version)
    data = segment.read_bytes()
    row = records.dtype.itemsize
    segment.write_bytes({
        "one row short": data[:-row],
        "one byte short": data[:-1],
        "one row extra": data + data[-row:],
        "one byte extra": data + b"\0",
    }[change])
    reader = TraceStoreReader(tmp_path / "store")
    with pytest.raises(SerializationError, match="missing or corrupt"):
        reader.segment(1)
    assert reader.segment(0)["iteration"].shape == (3,)


def test_a_segment_of_another_dtype_is_refused(tmp_path):
    write_trace(make_trace(3), tmp_path / "store")
    segment = tmp_path / "store" / "seg-00000.npy"
    records = np.load(segment, allow_pickle=False)
    np.save(segment, records.astype([(name, "<f8") for name, _ in TRACE_COLUMNS]))
    with pytest.raises(SerializationError, match="dtype"):
        TraceStoreReader(tmp_path / "store").segment(0)


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
    write_store_by_hand(
        tmp_path / "s",
        [("value", "<f8"), ("index", "<i8")],
        [(value, i) for i, value in enumerate(values)],
        rows_per_segment=rows_per_segment,
    )
    reader = TraceStoreReader(tmp_path / "s")
    np.testing.assert_array_equal(
        reader.column("value"), np.array(values, dtype="<f8")
    )
    np.testing.assert_array_equal(reader.column("index"), np.arange(len(values)))
