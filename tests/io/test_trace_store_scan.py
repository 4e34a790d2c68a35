"""Degraded scans of archived ensemble roots: skip and warn, never abort.

``iter_trace_stores`` walks a directory that may have accumulated years
of campaign output — including directories torn by crashes mid-write,
foreign files, and stores whose writers never closed.  These tests pin
the contract introduced with the service layer: one unusable
subdirectory costs a structured :class:`TraceStoreWarning`, never the
scan.
"""

from __future__ import annotations

import json

import pytest

from repro.core.compression import CompressionTrace, TracePoint
from repro.io.trace_store import (
    TraceStoreWarning,
    TraceStoreWriter,
    iter_trace_stores,
    write_trace,
)


def make_trace(num_points=2, n=12, lam=4.0):
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


def test_corrupt_manifest_is_skipped_with_warning(tmp_path):
    write_trace(make_trace(), tmp_path / "a-good")
    bad = tmp_path / "b-corrupt"
    write_trace(make_trace(), bad)
    (bad / "manifest.json").write_text("{ not json")
    with pytest.warns(TraceStoreWarning) as captured:
        readers = list(iter_trace_stores(tmp_path))
    assert [r.directory.name for r in readers] == ["a-good"]
    (warning,) = captured
    assert warning.message.reason == "corrupt"
    assert warning.message.path == bad


def test_foreign_manifest_is_skipped_with_warning(tmp_path):
    write_trace(make_trace(), tmp_path / "a-good")
    foreign = tmp_path / "b-foreign"
    foreign.mkdir()
    (foreign / "manifest.json").write_text(json.dumps({"kind": "something-else"}))
    with pytest.warns(TraceStoreWarning) as captured:
        readers = list(iter_trace_stores(tmp_path))
    assert [r.directory.name for r in readers] == ["a-good"]
    assert captured[0].message.reason == "corrupt"


def test_uncommitted_remnants_are_skipped_with_warning(tmp_path):
    write_trace(make_trace(), tmp_path / "a-good")
    torn = tmp_path / "b-torn"
    torn.mkdir()
    # A writer that died before its first manifest commit leaves segment
    # and/or tmp files but no manifest.
    (torn / "seg-000000.npy").write_bytes(b"\x93NUMPY garbage")
    (torn / "manifest.json.tmp").write_bytes(b"half a manife")
    with pytest.warns(TraceStoreWarning) as captured:
        readers = list(iter_trace_stores(tmp_path))
    assert [r.directory.name for r in readers] == ["a-good"]
    (warning,) = captured
    assert warning.message.reason == "uncommitted"


def test_plain_directories_still_ignored_silently(tmp_path, recwarn):
    write_trace(make_trace(), tmp_path / "a-good")
    (tmp_path / "notes").mkdir()
    (tmp_path / "notes" / "README.txt").write_text("not a store")
    readers = list(iter_trace_stores(tmp_path))
    assert [r.directory.name for r in readers] == ["a-good"]
    assert not [w for w in recwarn.list if isinstance(w.message, TraceStoreWarning)]


def test_require_complete_skips_open_store_with_warning(tmp_path):
    write_trace(make_trace(), tmp_path / "a-closed")
    writer = TraceStoreWriter(
        tmp_path / "b-open", rows_per_segment=1, meta={"n": 12, "lambda": 4.0}
    )
    writer.append_point(make_trace(1).points[0])
    assert writer.committed_rows == 1
    # Never closed: the first segment's manifest is committed but
    # carries complete=False.
    default_scan = list(iter_trace_stores(tmp_path))
    assert [r.directory.name for r in default_scan] == ["a-closed", "b-open"]
    with pytest.warns(TraceStoreWarning) as captured:
        strict = list(iter_trace_stores(tmp_path, require_complete=True))
    assert [r.directory.name for r in strict] == ["a-closed"]
    (warning,) = captured
    assert warning.message.reason == "incomplete"
    writer.close()
