"""Crash-injection harness for the streaming trace store.

The store's whole value proposition is its recovery contract: kill the
writer at *any* byte of *any* file and a reader recovers exactly the
committed segments — never a partial row, never a corrupt segment, never
fewer rows than the last successful manifest commit.  These tests pin
that contract by monkeypatching the module-level
:func:`repro.io.trace_store._file_write` choke point (every byte the
store persists flows through it, in bounded slices) and killing writers
at randomized byte offsets of randomized files:

* 40 in-process cases raise an injected exception after ``k`` bytes of a
  randomly chosen write target (even cases force the target to be a
  segment file — "after k bytes of segment i" — odd cases may also land
  inside a manifest write), then compare the recovered rows against the
  writer's own commit log (``committed_rows``, updated only after a
  manifest rename lands).
* 10 subprocess cases do the same with ``os._exit`` — a hard kill that
  skips ``finally`` blocks, atexit handlers and buffered-file cleanup,
  the closest a test gets to SIGKILL — using the child's printed commit
  log as ground truth.

That is 50 randomized kill points per run; the byte layouts are recorded
from an identical clean run, so every kill lands at a known offset of a
known file.  Two exhaustive sweeps complete them: the first byte of every
write event of a tiny store, and every byte of each segment file (one
file per segment) of a two-segment store.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import SerializationError
from repro.io import trace_store
from repro.io.trace_store import TraceStoreReader, TraceStoreWriter

SRC_DIR = Path(repro.__file__).resolve().parents[1]


class InjectedCrash(RuntimeError):
    """Deliberate writer death; deliberately not an OSError so it propagates raw."""


def reference_rows(total_rows):
    """Deterministic rows with exact binary-fraction floats (cross-process stable)."""
    return [
        {
            "iteration": 7 * i,
            "perimeter": 1000 - i,
            "edges": 3 * i + 1,
            "holes": i % 4,
            "alpha": 1.0 + 0.125 * i,
            "beta": 0.875 - 0.0625 * (i % 16),
        }
        for i in range(total_rows)
    ]


def write_all(directory, rows, rows_per_segment):
    writer = TraceStoreWriter(directory, rows_per_segment=rows_per_segment)
    for row in rows:
        writer.append(row)
    writer.close()
    return writer


def record_layout(monkeypatch, directory, rows, rows_per_segment):
    """Run a clean write, recording every ``_file_write`` as ``(file, nbytes)``.

    The store's byte stream is a pure function of (rows, schema,
    rows_per_segment, meta), so the same offsets replay exactly in a
    subsequent crash run.
    """
    original = trace_store._file_write
    events = []

    def recorder(handle, data):
        events.append((os.path.basename(handle.name), len(data)))
        original(handle, data)

    monkeypatch.setattr(trace_store, "_file_write", recorder)
    write_all(directory, rows, rows_per_segment)
    monkeypatch.setattr(trace_store, "_file_write", original)
    return events


def choose_kill_point(rng, events, segment_files_only):
    """A random byte offset into the clean run's write stream.

    Returns ``(budget, target, offset)``: the crash run dies after
    ``budget`` total bytes, which is ``offset`` bytes into the write of
    ``target``.
    """
    indices = [
        i
        for i, (name, _) in enumerate(events)
        if not segment_files_only or name.startswith("seg-")
    ]
    target_index = int(rng.choice(indices))
    preceding = sum(size for _, size in events[:target_index])
    offset = int(rng.integers(0, events[target_index][1]))
    return preceding + offset, events[target_index][0], offset


def crash_after(budget, original):
    """A ``_file_write`` that dies (by exception) after ``budget`` bytes.

    The dying call first persists its partial slice — a torn write, the
    worst case the recovery contract must absorb.
    """
    state = {"written": 0}

    def writer(handle, data):
        remaining = budget - state["written"]
        if remaining <= 0:
            raise InjectedCrash(f"injected crash at byte {budget}")
        if len(data) > remaining:
            original(handle, data[:remaining])
            state["written"] = budget
            raise InjectedCrash(f"injected crash at byte {budget}")
        original(handle, data)
        state["written"] += len(data)

    return writer


def assert_recovers_exactly(crash_dir, committed, rows, total_rows):
    """The contract: the reader yields exactly the committed prefix, or refuses
    the directory outright when no manifest landed (a writer commits none
    before its first segment fills or it closes)."""
    if not (Path(crash_dir) / "manifest.json").exists():
        assert committed == 0
        with pytest.raises(SerializationError):
            TraceStoreReader(crash_dir)
        return
    reader = TraceStoreReader(crash_dir)
    assert reader.num_rows == committed
    assert not reader.complete
    recovered = list(reader.iter_rows())  # loads and validates every segment
    assert recovered == rows[:committed]
    assert committed < total_rows or reader.complete is False


@pytest.mark.parametrize("case", range(40))
def test_inprocess_crash_recovers_committed_prefix(tmp_path, monkeypatch, case):
    rng = np.random.default_rng(0xC0FFEE + case)
    rows_per_segment = int(rng.integers(1, 12))
    total_rows = int(rng.integers(rows_per_segment + 1, 90))
    rows = reference_rows(total_rows)
    original = trace_store._file_write

    events = record_layout(monkeypatch, tmp_path / "clean", rows, rows_per_segment)
    budget, target, offset = choose_kill_point(
        rng, events, segment_files_only=(case % 2 == 0)
    )

    crash_dir = tmp_path / "crash"
    monkeypatch.setattr(trace_store, "_file_write", crash_after(budget, original))
    writer = None
    with pytest.raises(InjectedCrash):
        writer = TraceStoreWriter(crash_dir, rows_per_segment=rows_per_segment)
        for row in rows:
            writer.append(row)
        writer.close()
    monkeypatch.setattr(trace_store, "_file_write", original)

    committed = 0 if writer is None else writer.committed_rows
    assert committed <= total_rows, f"kill at {offset}B of {target}"
    assert_recovers_exactly(crash_dir, committed, rows, total_rows)


def test_clean_layout_sanity(tmp_path, monkeypatch):
    """The layout recorder's clean run must itself read back in full."""
    rows = reference_rows(23)
    events = record_layout(monkeypatch, tmp_path / "clean", rows, 5)
    segment_events = [name for name, _ in events if name.startswith("seg-")]
    manifest_events = [name for name, _ in events if name.startswith("manifest")]
    assert segment_events and manifest_events
    reader = TraceStoreReader(tmp_path / "clean")
    assert reader.complete
    assert list(reader.iter_rows()) == rows


_CHILD_SCRIPT = """
import os, sys
import numpy as np
from repro.io import trace_store

directory = sys.argv[1]
total_rows, rows_per_segment, budget = (int(a) for a in sys.argv[2:5])

rows = [
    {
        "iteration": 7 * i,
        "perimeter": 1000 - i,
        "edges": 3 * i + 1,
        "holes": i % 4,
        "alpha": 1.0 + 0.125 * i,
        "beta": 0.875 - 0.0625 * (i % 16),
    }
    for i in range(total_rows)
]

original = trace_store._file_write
state = {"written": 0}

def killer(handle, data):
    remaining = budget - state["written"]
    if remaining <= 0:
        sys.stdout.flush()
        os._exit(17)
    if len(data) > remaining:
        original(handle, data[:remaining])
        handle.flush()
        sys.stdout.flush()
        os._exit(17)
    original(handle, data)
    state["written"] += len(data)

trace_store._file_write = killer
writer = trace_store.TraceStoreWriter(directory, rows_per_segment=rows_per_segment)
print("committed", writer.committed_rows, flush=True)
for row in rows:
    writer.append(row)
    print("committed", writer.committed_rows, flush=True)
writer.close()
print("committed", writer.committed_rows, flush=True)
print("clean-exit", flush=True)
"""


@pytest.mark.parametrize("case", range(10))
def test_hard_kill_subprocess_recovers_committed_prefix(tmp_path, monkeypatch, case):
    """``os._exit`` after k bytes: no unwinding, no cleanup — and still no partial rows."""
    rng = np.random.default_rng(0xDEAD + case)
    rows_per_segment = int(rng.integers(1, 6))
    total_rows = int(rng.integers(rows_per_segment + 1, 40))
    rows = reference_rows(total_rows)

    events = record_layout(monkeypatch, tmp_path / "clean", rows, rows_per_segment)
    budget, target, offset = choose_kill_point(
        rng, events, segment_files_only=(case % 2 == 0)
    )

    crash_dir = tmp_path / "crash"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _CHILD_SCRIPT,
            str(crash_dir),
            str(total_rows),
            str(rows_per_segment),
            str(budget),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 17, (
        f"child should have been hard-killed at {offset}B of {target}; "
        f"stdout={proc.stdout!r} stderr={proc.stderr!r}"
    )
    commits = [
        int(line.split()[1])
        for line in proc.stdout.splitlines()
        if line.startswith("committed ")
    ]
    committed = commits[-1] if commits else 0
    assert_recovers_exactly(crash_dir, committed, rows, total_rows)


def test_exhaustive_kill_points_tiny_store(tmp_path, monkeypatch):
    """Every single write event of a tiny store, killed at its first byte.

    Complements the randomized offsets above: with ``_WRITE_CHUNK``-sized
    slices a small store has few write events, so this sweeps *all* of
    them and proves no event is special-cased.
    """
    rows = reference_rows(7)
    rows_per_segment = 3
    original = trace_store._file_write
    events = record_layout(monkeypatch, tmp_path / "clean", rows, rows_per_segment)

    for event_index in range(len(events)):
        budget = sum(size for _, size in events[:event_index])
        crash_dir = tmp_path / f"crash-{event_index:03d}"
        monkeypatch.setattr(trace_store, "_file_write", crash_after(budget, original))
        writer = None
        with pytest.raises(InjectedCrash):
            writer = TraceStoreWriter(crash_dir, rows_per_segment=rows_per_segment)
            for row in rows:
                writer.append(row)
            writer.close()
        monkeypatch.setattr(trace_store, "_file_write", original)
        committed = 0 if writer is None else writer.committed_rows
        assert_recovers_exactly(crash_dir, committed, rows, len(rows))


def test_exhaustive_kill_points_within_each_segment_file(tmp_path, monkeypatch):
    """Every byte offset of every segment file of a two-segment store.

    A segment is one file, so a kill anywhere inside it (header, any row,
    the last byte) must leave the previous manifest and its rows intact.
    """
    rows = reference_rows(5)
    rows_per_segment = 3
    original = trace_store._file_write
    events = record_layout(monkeypatch, tmp_path / "clean", rows, rows_per_segment)
    assert sorted(name for name, _ in events if name.startswith("seg-")) == [
        "seg-00000.npy.tmp", "seg-00001.npy.tmp"
    ]

    cases = 0
    for event_index, (name, size) in enumerate(events):
        if not name.startswith("seg-"):
            continue
        preceding = sum(length for _, length in events[:event_index])
        for offset in range(size):
            crash_dir = tmp_path / f"crash-{event_index}-{offset:04d}"
            monkeypatch.setattr(
                trace_store, "_file_write", crash_after(preceding + offset, original)
            )
            writer = None
            with pytest.raises(InjectedCrash):
                writer = TraceStoreWriter(crash_dir, rows_per_segment=rows_per_segment)
                for row in rows:
                    writer.append(row)
                writer.close()
            monkeypatch.setattr(trace_store, "_file_write", original)
            committed = writer.committed_rows
            assert committed == (0 if name.startswith("seg-00000") else 3)
            assert_recovers_exactly(crash_dir, committed, rows, len(rows))
            cases += 1
    assert cases > 2 * 128  # at least the two .npy headers' bytes


def _commit_four_rows(store):
    writer = TraceStoreWriter(store, rows_per_segment=2)
    rows = reference_rows(5)
    for row in rows[:4]:
        writer.append(row)
    assert writer.committed_rows == 4  # waits for the background commit
    return rows


def _assert_fresh_writer_clears(store):
    fresh = TraceStoreWriter(store, rows_per_segment=2)
    fresh.close()
    assert not list(store.glob("*.tmp"))
    assert not list(store.glob("seg-*.npy"))
    assert TraceStoreReader(store).num_rows == 0


def test_reader_ignores_unreferenced_remnants(tmp_path, rewrite_as_v1):
    """Files a crashed flush left behind (tmp precursors, orphan segments)
    are invisible; a fresh writer over the directory clears them.  This is
    the format-version-1 layout, one file per column."""
    store = tmp_path / "store"
    rows = _commit_four_rows(store)
    rewrite_as_v1(store)
    # Fake a crashed flush: an orphan segment file and a torn tmp file.
    (store / "seg-00002.alpha.npy").write_bytes(b"\x93NUMPY garbage")
    (store / "seg-00002.iteration.npy.tmp").write_bytes(b"torn")
    reader = TraceStoreReader(store)
    assert reader.format_version == 1
    assert reader.num_rows == 4
    assert list(reader.iter_rows()) == rows[:4]
    # A new writer starts a fresh trace, remnants included.
    _assert_fresh_writer_clears(store)


def test_reader_ignores_unreferenced_remnants_v2(tmp_path):
    store = tmp_path / "store"
    rows = _commit_four_rows(store)
    # Fake a crashed flush: an orphan segment file and a torn tmp file.
    (store / "seg-00002.npy").write_bytes(b"\x93NUMPY garbage")
    (store / "seg-00003.npy.tmp").write_bytes(b"torn")
    reader = TraceStoreReader(store)
    assert reader.format_version == 2
    assert reader.num_rows == 4
    assert list(reader.iter_rows()) == rows[:4]
    _assert_fresh_writer_clears(store)
