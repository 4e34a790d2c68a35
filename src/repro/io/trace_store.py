"""Chunked, append-only, columnar trace store for on-disk ensembles.

The in-memory :class:`~repro.core.compression.CompressionTrace` and the
whole-document JSON archives in :mod:`repro.io.serialization` are fine for
the paper's 10^3-step figures; week-long 10^8-iteration runs need a trace
layer that streams.  This module provides it with zero dependencies beyond
numpy: one **directory per trace**, holding fixed-size ``.npy`` segment
files per column plus a tiny JSON manifest.

Layout of a store directory::

    trace-dir/
        manifest.json             <- the commit record, replaced atomically
        seg-00000.iteration.npy   <- segment 0, one file per column
        seg-00000.perimeter.npy
        ...
        seg-00001.iteration.npy
        ...

The crash-recovery contract
---------------------------
Every byte the store persists goes to a same-directory ``*.tmp`` file
first (through the module-level :func:`_file_write` choke point, in
:data:`_WRITE_CHUNK`-byte slices — which is what lets the crash-injection
tests kill a writer after exactly *k* bytes of segment *i*), is fsynced,
and lands under its final name via ``os.replace``.  A segment becomes
visible to readers only when a **manifest listing it** has been renamed
into place, and the manifest is always written *after* the segment files
it references.  Killing the writer at any byte of any file therefore
leaves one of two states:

* the old manifest — the half-written segment's files (or their ``.tmp``
  precursors) exist on disk but are unreferenced, and readers ignore them;
* the new manifest — every listed segment was durably and completely
  written before the manifest rename could happen.

Either way a :class:`TraceStoreReader` recovers **exactly** the committed
segments: never a partial row, and never fewer rows than the last
successful commit.  A full segment is committed by a background thread
(write-behind), so that its fsyncs overlap the engine instead of stalling
it; at most one such commit is in flight, and the next commit, ``flush``,
``close`` or a read of ``committed_rows`` waits for it, so the files still
land in the same order.  ``tests/io/test_trace_store_crash.py`` pins this by
killing writers (both by exception and by ``os._exit``) at randomized byte
offsets and checking the recovered prefix against the writer's own commit
log.

Streaming into a store
----------------------
Engines do not talk to the writer directly; they take a ``trace_sink=``
object with an ``append(point)`` method (see
:class:`~repro.core.compression.CompressionSimulation` and the job runners
in :mod:`repro.runtime.jobs`).  :class:`TraceStoreSink` adapts a
:class:`TraceStoreWriter` to that hook at a configurable cadence
(``every=k`` keeps one recorded point in *k*).  The default for every
engine remains ``trace_sink=None`` — in-memory traces, byte-identical to
before this module existed.
"""

from __future__ import annotations

import io
import json
import operator
import os
import threading
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.compression import CompressionTrace, TracePoint
from repro.errors import ConfigurationError, SerializationError

PathLike = Union[str, Path]

#: Format version embedded in every manifest.
STORE_FORMAT_VERSION = 1

#: Manifest document kind.
STORE_KIND = "trace_store"

#: Default rows per segment: small enough that a crash loses little, large
#: enough that per-segment overhead (one file per column, one manifest
#: rewrite) amortizes to nothing against the engines' throughput.
DEFAULT_ROWS_PER_SEGMENT = 4096

#: The columnar schema of a standard compression trace — one column per
#: :class:`~repro.core.compression.TracePoint` field, in field order, with
#: fixed-width little-endian dtypes so segment files are byte-deterministic.
TRACE_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("iteration", "<i8"),
    ("perimeter", "<i8"),
    ("edges", "<i8"),
    ("holes", "<i8"),
    ("alpha", "<f8"),
    ("beta", "<f8"),
)

#: Size of the slices pushed through :func:`_file_write`.  Persisting in
#: bounded slices is what gives the crash tests byte-level kill points.
_WRITE_CHUNK = 1024

_MANIFEST_NAME = "manifest.json"


class TraceStoreWarning(UserWarning):
    """One unusable subdirectory skipped while scanning an ensemble root.

    Emitted by :func:`iter_trace_stores` instead of raising mid-scan, so a
    single torn, corrupt or foreign directory cannot abort the analysis of
    an otherwise healthy archived ensemble.  Structured: ``path`` is the
    skipped directory and ``reason`` one of ``"uncommitted"`` (store-like
    remnants but no committed manifest), ``"corrupt"`` (a manifest that
    fails to parse or validate) or ``"incomplete"`` (a valid store whose
    writer never closed, skipped only under ``require_complete=True``).
    """

    def __init__(self, path: Path, reason: str, detail: str) -> None:
        super().__init__(f"skipping {path} ({reason}): {detail}")
        self.path = Path(path)
        self.reason = reason
        self.detail = detail


def _file_write(handle, data: bytes) -> None:
    """The single choke point for every byte the store persists.

    The crash-injection tests monkeypatch this to raise (or ``os._exit``)
    after a chosen number of bytes; everything the store guarantees about
    recovery is tested through here.
    """
    handle.write(data)


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via tmp-file + fsync + atomic rename."""
    temporary = path.with_name(path.name + ".tmp")
    try:
        with open(temporary, "wb") as handle:
            for offset in range(0, len(data), _WRITE_CHUNK):
                _file_write(handle, data[offset : offset + _WRITE_CHUNK])
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    except OSError as exc:
        raise SerializationError(f"cannot write {path}: {exc}") from exc


def _npy_bytes(array: np.ndarray) -> bytes:
    """The exact ``.npy`` serialization of a 1-D array (pickle refused)."""
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def _segment_file(index: int, column: str) -> str:
    return f"seg-{index:05d}.{column}.npy"


def _normalize_columns(columns: Sequence[Sequence[str]]) -> Tuple[Tuple[str, str], ...]:
    normalized: List[Tuple[str, str]] = []
    seen = set()
    for entry in columns:
        try:
            name, dtype = entry
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"columns must be (name, dtype) pairs, got {entry!r}"
            ) from None
        name = str(name)
        if not name or "." in name or "/" in name:
            raise ConfigurationError(f"invalid column name {name!r}")
        if name in seen:
            raise ConfigurationError(f"duplicate column name {name!r}")
        seen.add(name)
        normalized.append((name, np.dtype(dtype).str))
    if not normalized:
        raise ConfigurationError("a trace store needs at least one column")
    return tuple(normalized)


class TraceStoreWriter:
    """Append rows to a trace store directory, committing in segments.

    Parameters
    ----------
    directory:
        The store directory (created if missing).  Any previous store
        content in it — a crashed run's remnants included — is removed:
        a writer always starts a fresh trace.  Use
        :class:`TraceStoreReader` to consume an existing store.
    columns:
        The columnar schema as ``(name, dtype)`` pairs; defaults to the
        standard compression-trace schema :data:`TRACE_COLUMNS`.
    rows_per_segment:
        Rows buffered in memory before a segment is flushed and committed.
    meta:
        Free-form JSON-able annotations embedded in the manifest (the job
        runners store the job fingerprint here, which is what the
        checkpoint layer's refusal path validates on resume).

    The writer commits an empty manifest on construction, so a store
    directory is readable from the instant it exists; ``append`` buffers,
    a full segment is committed on a background thread while appends
    continue (write-behind), and :meth:`close` flushes the final short
    segment and marks the manifest complete.
    """

    def __init__(
        self,
        directory: PathLike,
        columns: Sequence[Sequence[str]] = TRACE_COLUMNS,
        rows_per_segment: int = DEFAULT_ROWS_PER_SEGMENT,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if rows_per_segment < 1:
            raise ConfigurationError(
                f"rows_per_segment must be positive, got {rows_per_segment}"
            )
        self.directory = Path(directory)
        self.columns = _normalize_columns(columns)
        self.rows_per_segment = int(rows_per_segment)
        self.meta = dict(meta) if meta else {}
        self.directory.mkdir(parents=True, exist_ok=True)
        self._discard_previous_store()
        #: Buffered rows.  On the standard schema they are trace points,
        #: which a flush reads column by column; on other schemas, value
        #: lists in column order, which a flush transposes.
        self._rows: List[Any] = []
        self._standard = self.columns == TRACE_COLUMNS
        self._segment_rows: List[int] = []
        self._committed_rows = 0
        #: The background commit of the last automatic flush, if one is
        #: in flight, and the exception it raised, if any.
        self._commit_thread: Optional[threading.Thread] = None
        self._commit_error: Optional[BaseException] = None
        self.closed = False
        self._write_files([self._manifest_file(complete=False)], rows=0)

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #
    @property
    def buffered_rows(self) -> int:
        """Rows appended but not yet flushed into a segment."""
        return len(self._rows)

    @property
    def committed_rows(self) -> int:
        """Rows durably committed (manifest renamed into place).

        Waits for an in-flight background commit first.  The crash tests
        use this as the ground truth for what a reader must recover.
        """
        if self._commit_thread is not None:
            self._commit_thread.join()
        return self._committed_rows

    def append(self, row: Dict[str, Any]) -> None:
        """Buffer one row (a mapping with exactly the schema's columns)."""
        try:
            values = [row[name] for name, _ in self.columns]
        except KeyError as exc:
            raise SerializationError(f"row is missing column {exc.args[0]!r}") from None
        self._buffer(TracePoint(*values) if self._standard else values)

    def append_point(self, point: TracePoint) -> None:
        """Buffer one :class:`TracePoint`.

        This is the streaming hot path: with the compiled engine a trace
        point can arrive every few tens of microseconds.  On the standard
        schema the (immutable) point itself is buffered; other schemas take
        its fields as a mapping.
        """
        if self._standard:
            self._buffer(point)
        else:
            self.append(asdict(point))

    def _buffer(self, row: Any) -> None:
        if self.closed:
            raise SerializationError("cannot append to a closed trace store writer")
        rows = self._rows
        rows.append(row)
        if len(rows) >= self.rows_per_segment:
            self._commit(complete=False, background=True)

    # ------------------------------------------------------------------ #
    # Committing
    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """Persist buffered rows as one segment and commit the manifest.

        Order is the whole contract: every column file of the new segment
        is atomically renamed into place (and fsynced) *before* the
        manifest that references it — so a crash at any byte leaves the
        previous manifest, and with it a store of exactly the previously
        committed rows.  A flush with an empty buffer is a no-op.

        The automatic flush of a full segment does the same writes on a
        background thread, so that the fsyncs overlap the engine's run.
        This method (like :meth:`close`) first waits for that commit, and
        returns only once its own segment is committed.
        """
        if self.closed:
            raise SerializationError("cannot flush a closed trace store writer")
        self._commit(complete=False, background=False)

    def close(self) -> None:
        """Flush the final (possibly short) segment and mark the store complete."""
        if self.closed:
            return
        self._commit(complete=True, background=False)
        self.closed = True

    def __enter__(self) -> "TraceStoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Only a clean exit marks the store complete; an exception leaves
        # the last committed manifest in place (the crash semantics).
        if exc_type is None:
            self.close()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _commit(self, complete: bool, background: bool) -> None:
        """Write the buffered rows (if any) as the next segment, then the
        manifest.

        At most one commit is in flight: this first waits for the previous
        background commit.  A commit that fails closes the writer, since
        its segment list names a segment that may not have landed; the
        failure of a background commit is raised here, by the next commit.
        A non-final commit with nothing buffered writes nothing.
        """
        self._await_commit()
        rows = len(self._rows)
        if rows == 0 and not complete:
            return
        files = self._segment_files() if rows else []
        files.append(self._manifest_file(complete))
        if background:
            self._commit_thread = threading.Thread(
                target=self._write_in_background, args=(files, rows)
            )
            self._commit_thread.start()
            return
        try:
            self._write_files(files, rows)
        except BaseException:
            self.closed = True
            raise

    def _await_commit(self) -> None:
        thread, self._commit_thread = self._commit_thread, None
        if thread is not None:
            thread.join()
        error, self._commit_error = self._commit_error, None
        if error is not None:
            self.closed = True
            raise error

    def _write_in_background(self, files: List[Tuple[Path, bytes]], rows: int) -> None:
        try:
            self._write_files(files, rows)
        except BaseException as exc:  # re-raised by the next commit
            self._commit_error = exc

    def _write_files(self, files: List[Tuple[Path, bytes]], rows: int) -> None:
        for path, data in files:
            _write_atomic(path, data)
        self._committed_rows += rows

    def _segment_files(self) -> List[Tuple[Path, bytes]]:
        """Turn the buffered rows into the next segment's column files
        (path and ``.npy`` bytes each) and empty the buffer."""
        rows = len(self._rows)
        index = len(self._segment_rows)
        files = []
        for (name, dtype), values in zip(self.columns, self._column_values()):
            try:
                array = np.fromiter(values, dtype=dtype, count=rows)
            except (TypeError, ValueError, OverflowError) as exc:
                raise SerializationError(
                    f"column {name!r} holds a value that is not a {dtype} scalar: {exc}"
                ) from None
            files.append((self.directory / _segment_file(index, name), _npy_bytes(array)))
        self._segment_rows.append(rows)
        self._rows = []
        return files

    def _column_values(self) -> Iterator[Iterable[Any]]:
        """Each column's buffered values, in schema order."""
        if self._standard:
            for name, _ in self.columns:
                yield map(operator.attrgetter(name), self._rows)
        else:
            yield from zip(*self._rows)

    def _discard_previous_store(self) -> None:
        """Remove any previous store content (manifest, segments, tmp files)."""
        for path in self.directory.iterdir():
            name = path.name
            if (
                name == _MANIFEST_NAME
                or (name.startswith("seg-") and name.endswith(".npy"))
                or name.endswith(".tmp")
            ):
                try:
                    path.unlink()
                except OSError as exc:
                    raise SerializationError(
                        f"cannot clear previous trace store content {path}: {exc}"
                    ) from exc

    def _manifest_file(self, complete: bool) -> Tuple[Path, bytes]:
        """The manifest's path and bytes for the segments listed so far."""
        manifest = {
            "format_version": STORE_FORMAT_VERSION,
            "kind": STORE_KIND,
            "columns": [[name, dtype] for name, dtype in self.columns],
            "rows_per_segment": self.rows_per_segment,
            "segments": list(self._segment_rows),
            "total_rows": sum(self._segment_rows),
            "complete": bool(complete),
            "meta": self.meta,
        }
        try:
            data = json.dumps(manifest, indent=1, sort_keys=True).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise SerializationError(
                f"trace store meta is not JSON-serializable: {exc}"
            ) from exc
        return self.directory / _MANIFEST_NAME, data


class TraceStoreReader:
    """Consume a trace store directory, recovering exactly the committed rows.

    Safe to open while a writer is still running (or after one crashed):
    only manifest-listed segments are touched, and each is validated
    against its declared dtype and row count on load — a listed segment
    that fails to load signals genuine corruption and raises
    :class:`~repro.errors.SerializationError`; unlisted remnants of a
    crashed flush are silently invisible.
    """

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
        path = self.directory / _MANIFEST_NAME
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SerializationError(f"cannot read trace store manifest {path}: {exc}") from exc
        if not isinstance(manifest, dict) or manifest.get("kind") != STORE_KIND:
            raise SerializationError(
                f"{path} is not a trace store manifest "
                f"(kind={manifest.get('kind')!r} if it parsed at all)"
            )
        try:
            self.columns = _normalize_columns(manifest["columns"])
            self.segments: List[int] = [int(rows) for rows in manifest["segments"]]
            self.rows_per_segment = int(manifest["rows_per_segment"])
            self.complete = bool(manifest["complete"])
            self.meta: Dict[str, Any] = dict(manifest.get("meta") or {})
        except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
            raise SerializationError(f"malformed trace store manifest {path}: {exc}") from exc
        if any(rows < 1 for rows in self.segments):
            raise SerializationError(f"manifest {path} lists an empty segment")
        self.manifest = manifest

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def column_names(self) -> List[str]:
        return [name for name, _ in self.columns]

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def num_rows(self) -> int:
        return sum(self.segments)

    # ------------------------------------------------------------------ #
    # Segment access
    # ------------------------------------------------------------------ #
    def segment_column(self, index: int, name: str) -> np.ndarray:
        """Load and validate one column of one committed segment."""
        if not 0 <= index < len(self.segments):
            raise SerializationError(
                f"segment {index} out of range (store has {len(self.segments)})"
            )
        dtype = dict(self.columns).get(name)
        if dtype is None:
            raise SerializationError(f"unknown column {name!r}; store has {self.column_names}")
        path = self.directory / _segment_file(index, name)
        try:
            array = np.load(path, allow_pickle=False)
        except (OSError, ValueError) as exc:
            raise SerializationError(
                f"committed segment file {path} is missing or corrupt: {exc}"
            ) from exc
        if array.ndim != 1 or array.shape[0] != self.segments[index]:
            raise SerializationError(
                f"segment file {path} holds {array.shape} values; manifest "
                f"committed {self.segments[index]} rows"
            )
        if array.dtype.str != dtype:
            raise SerializationError(
                f"segment file {path} has dtype {array.dtype.str}, manifest says {dtype}"
            )
        return array

    def segment(self, index: int) -> Dict[str, np.ndarray]:
        """Load one committed segment as a dict of column arrays."""
        return {name: self.segment_column(index, name) for name, _ in self.columns}

    def iter_segments(self) -> Iterator[Dict[str, np.ndarray]]:
        """Stream committed segments in order — the bounded-memory access path."""
        for index in range(len(self.segments)):
            yield self.segment(index)

    def iter_column(self, name: str) -> Iterator[np.ndarray]:
        """Stream one column segment by segment."""
        for index in range(len(self.segments)):
            yield self.segment_column(index, name)

    def iter_rows(self) -> Iterator[Dict[str, Any]]:
        """Stream rows as dicts of plain Python scalars."""
        for segment in self.iter_segments():
            columns = [(name, segment[name]) for name in self.column_names]
            for i in range(len(columns[0][1])):
                yield {name: array[i].item() for name, array in columns}

    def column(self, name: str) -> np.ndarray:
        """One full column, concatenated (materializes that column only)."""
        parts = list(self.iter_column(name))
        if not parts:
            return np.empty(0, dtype=dict(self.columns)[name])
        return np.concatenate(parts)

    def final_row(self) -> Dict[str, Any]:
        """The last committed row, reading only the final segment."""
        if not self.segments:
            raise SerializationError(f"trace store {self.directory} has no rows")
        last = len(self.segments) - 1
        return {
            name: self.segment_column(last, name)[-1].item()
            for name in self.column_names
        }

    # ------------------------------------------------------------------ #
    # Trace interop
    # ------------------------------------------------------------------ #
    def read_trace(
        self, n: Optional[int] = None, lam: Optional[float] = None
    ) -> CompressionTrace:
        """Materialize the store as a :class:`CompressionTrace`.

        ``n`` and ``lam`` default to the manifest meta (keys ``"n"`` /
        ``"lambda"``, as written by the job runners); they must be supplied
        for stores written without that meta.
        """
        if set(self.column_names) != {name for name, _ in TRACE_COLUMNS}:
            raise SerializationError(
                f"store columns {self.column_names} are not the compression-trace schema"
            )
        if n is None:
            n = self.meta.get("n")
        if lam is None:
            lam = self.meta.get("lambda")
        if n is None or lam is None:
            raise SerializationError(
                "store meta lacks n/lambda; pass them to read_trace() explicitly"
            )
        trace = CompressionTrace(n=int(n), lam=float(lam))
        for row in self.iter_rows():
            trace.points.append(
                TracePoint(
                    iteration=int(row["iteration"]),
                    perimeter=int(row["perimeter"]),
                    edges=int(row["edges"]),
                    holes=int(row["holes"]),
                    alpha=float(row["alpha"]),
                    beta=float(row["beta"]),
                )
            )
        return trace


class TraceStoreSink:
    """Adapt a :class:`TraceStoreWriter` to the engines' ``trace_sink=`` hook.

    Parameters
    ----------
    target:
        A store directory (a writer is created over it with the standard
        trace schema) or an existing :class:`TraceStoreWriter`.
    every:
        Streaming cadence: persist one recorded point in ``every`` (the
        first recorded point always included).  ``every=1`` (default)
        streams the full trace, making the store row-for-row equal to the
        in-memory trace — which is what the lockstep tests pin.
    rows_per_segment, meta:
        Forwarded to the writer when ``target`` is a directory.
    """

    def __init__(
        self,
        target: Union[PathLike, TraceStoreWriter],
        every: int = 1,
        rows_per_segment: int = DEFAULT_ROWS_PER_SEGMENT,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if every < 1:
            raise ConfigurationError(f"every must be positive, got {every}")
        if isinstance(target, TraceStoreWriter):
            self.writer = target
        else:
            self.writer = TraceStoreWriter(
                target, rows_per_segment=rows_per_segment, meta=meta
            )
        self.every = int(every)
        self.appended = 0

    @property
    def directory(self) -> Path:
        return self.writer.directory

    def append(self, point: TracePoint) -> None:
        """Record one trace point (subject to the cadence)."""
        if self.appended % self.every == 0:
            self.writer.append_point(point)
        self.appended += 1

    def close(self) -> None:
        """Flush and mark the underlying store complete."""
        self.writer.close()

    def __enter__(self) -> "TraceStoreSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()


# ---------------------------------------------------------------------- #
# Conveniences
# ---------------------------------------------------------------------- #
def write_trace(
    trace: CompressionTrace,
    directory: PathLike,
    rows_per_segment: int = DEFAULT_ROWS_PER_SEGMENT,
    meta: Optional[Dict[str, Any]] = None,
) -> Path:
    """Export an in-memory trace to a (complete) store directory."""
    merged = {"n": trace.n, "lambda": trace.lam}
    if meta:
        merged.update(meta)
    with TraceStoreWriter(
        directory, rows_per_segment=rows_per_segment, meta=merged
    ) as writer:
        for point in trace.points:
            writer.append_point(point)
    return Path(directory)


def read_trace(directory: PathLike) -> CompressionTrace:
    """Materialize a store directory written by :func:`write_trace` (or a sink)."""
    return TraceStoreReader(directory).read_trace()


def iter_trace_stores(
    root: PathLike, require_complete: bool = False
) -> Iterator[TraceStoreReader]:
    """Readers for every store directory directly under ``root``, sorted by name.

    The on-disk-ensemble entry point: a job runner pointed at
    ``trace_store=root`` writes one store per job id under ``root``, and
    the streaming analysis paths (e.g.
    :func:`repro.analysis.statistics.ensemble_summary_from_stores`) iterate
    them through here without materializing any trace.

    The scan degrades instead of aborting: a subdirectory whose manifest
    is corrupt or foreign (not a trace-store manifest at all), or which
    holds only the uncommitted remnants of a crashed writer (segment or
    ``.tmp`` files with no manifest), is skipped with a structured
    :class:`TraceStoreWarning` — one torn store cannot take down the
    analysis of a whole archived ensemble.  Directories with no
    store-like content at all are ignored silently, as before.  With
    ``require_complete=True``, stores whose writer never closed (manifest
    ``complete: false``) are likewise skipped with a warning instead of
    being yielded mid-write.
    """
    import warnings

    root = Path(root)
    if not root.is_dir():
        raise SerializationError(f"{root} is not a directory of trace stores")
    for path in sorted(root.iterdir()):
        if not path.is_dir():
            continue
        if not (path / _MANIFEST_NAME).exists():
            store_like = any(
                name.endswith(".tmp") or (name.startswith("seg-") and name.endswith(".npy"))
                for name in os.listdir(path)
            )
            if store_like:
                warnings.warn(
                    TraceStoreWarning(
                        path, "uncommitted",
                        "store-like files but no committed manifest "
                        "(a writer crashed before its first commit)",
                    ),
                    stacklevel=2,
                )
            continue
        try:
            reader = TraceStoreReader(path)
        except SerializationError as exc:
            warnings.warn(TraceStoreWarning(path, "corrupt", str(exc)), stacklevel=2)
            continue
        if require_complete and not reader.complete:
            warnings.warn(
                TraceStoreWarning(
                    path, "incomplete", "manifest committed but the writer never closed"
                ),
                stacklevel=2,
            )
            continue
        yield reader
