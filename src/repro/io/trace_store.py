"""Chunked, append-only, columnar trace store for on-disk ensembles.

The in-memory :class:`~repro.core.compression.CompressionTrace` and the
whole-document JSON archives in :mod:`repro.io.serialization` are fine for
the paper's 10^3-step figures; week-long 10^8-iteration runs need a trace
layer that streams.  This module provides it with zero dependencies beyond
numpy: one **directory per trace**, holding one ``.npy`` file per
fixed-size segment plus a tiny JSON manifest.

Layout of a store directory (format version 2)::

    trace-dir/
        manifest.json     <- the commit record, replaced atomically
        seg-00000.npy     <- segment 0: a packed structured array, one
        seg-00001.npy        field per column, in schema order
        ...

Format version 1 wrote one ``seg-NNNNN.<column>.npy`` file per column of
each segment.  The writer emits only version 2, with the columns of
:data:`TRACE_COLUMNS`; :class:`TraceStoreReader` still reads version 1 and
any manifest's columns, so stores already on disk (and the checkpoints
that reference them) stay usable.

The crash-recovery contract
---------------------------
Every byte the store persists goes to a same-directory ``*.tmp`` file
first (through the module-level :func:`_file_write` choke point, in
:data:`_WRITE_CHUNK`-byte slices — which is what lets the crash-injection
tests kill a writer after exactly *k* bytes of segment *i*), is fsynced,
and lands under its final name via ``os.replace``.  A segment becomes
visible to readers only when a **manifest listing it** has been renamed
into place, and the manifest is always written *after* the segment file
it references.  Killing the writer at any byte of any file therefore
leaves one of two states:

* the old manifest — the half-written segment file (or its ``.tmp``
  precursor) exists on disk but is unreferenced, and readers ignore it;
* the new manifest — every listed segment was durably and completely
  written before the manifest rename could happen.

A short trace costs two fsyncs: its one segment, then the complete
manifest.  A :class:`TraceStoreWriter` writes nothing, not even the
directory, until its first segment fills or it closes, so a job that
dies before either leaves no manifest and :func:`iter_trace_stores`
skips its directory.

A :class:`TraceStoreReader` recovers **exactly** the committed
segments: never a partial row, and never fewer rows than the last
successful commit.  A full segment is built and committed by a background
thread (write-behind), so that its array and its fsyncs overlap the
engine instead of stalling it; at most one such commit is in flight, and
the next commit, ``flush``, ``close`` or a read of ``committed_rows``
waits for it, so the files still land in the same order.
``tests/io/test_trace_store_crash.py`` pins this by killing writers (both
by exception and by ``os._exit``) at randomized byte offsets and checking
the recovered prefix against the writer's own commit log.

Streaming into a store
----------------------
Engines do not talk to the writer directly; they take a ``trace_sink=``
object with an ``append(point)`` method (see
:class:`~repro.core.compression.CompressionSimulation` and the job runners
in :mod:`repro.runtime.jobs`).  :class:`TraceStoreSink` adapts a
:class:`TraceStoreWriter` to that hook and stores every recorded point.
The default for every engine remains ``trace_sink=None`` — in-memory
traces, byte-identical to before this module existed.
"""

from __future__ import annotations

import functools
import io
import json
import operator
import os
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.compression import CompressionTrace, TracePoint
from repro.errors import ConfigurationError, SerializationError

PathLike = Union[str, Path]

#: Format version the writer embeds in every manifest: one file per
#: segment.  The reader also accepts version 1 (one file per column of each
#: segment).
STORE_FORMAT_VERSION = 2

#: Every format version :class:`TraceStoreReader` reads.
READABLE_FORMAT_VERSIONS = (1, 2)

#: Manifest document kind.
STORE_KIND = "trace_store"

#: Default rows per segment: small enough that a crash loses little, large
#: enough that per-segment overhead (one segment file and one manifest
#: rewrite, two fsyncs) amortizes to nothing against the engines' throughput.
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


@functools.lru_cache(maxsize=64)
def _npy_header(dtype: np.dtype, rows: int) -> bytes:
    """The ``.npy`` header :func:`_npy_bytes` writes for ``rows`` rows of
    ``dtype``: format 1.0, padded so the payload starts aligned."""
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buffer,
        {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": (rows,)},
    )
    return buffer.getvalue()


def _segment_file(index: int) -> str:
    return f"seg-{index:05d}.npy"


def _column_file(index: int, column: str) -> str:
    """A version-1 segment's file of one column."""
    return f"seg-{index:05d}.{column}.npy"


def _record_dtype(columns: Sequence[Tuple[str, str]]) -> np.dtype:
    """The packed structured dtype of a version-2 segment file."""
    return np.dtype([(name, dtype) for name, dtype in columns])


#: The segment dtype of :data:`TRACE_COLUMNS`, the one schema the writer emits.
_TRACE_DTYPE = _record_dtype(TRACE_COLUMNS)


def _segment_bytes(points: List[TracePoint]) -> bytes:
    """The ``.npy`` bytes of one segment: ``points`` as a structured array."""
    records = np.empty(len(points), dtype=_TRACE_DTYPE)
    for name, dtype in TRACE_COLUMNS:
        try:
            records[name] = np.fromiter(
                map(operator.attrgetter(name), points), dtype=dtype, count=len(points)
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise SerializationError(
                f"column {name!r} holds a value that is not a {dtype} scalar: {exc}"
            ) from None
    return _npy_bytes(records)


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
    """Append trace points to a trace store directory, committing in segments.

    Parameters
    ----------
    directory:
        The store directory (created at the first commit).  Any previous
        store content in it — a crashed run's remnants included — is
        removed at once: a writer always starts a fresh trace.  Use
        :class:`TraceStoreReader` to consume an existing store.
    rows_per_segment:
        Rows buffered in memory before a segment is flushed and committed.
    meta:
        Free-form JSON-able annotations embedded in the manifest (the job
        runners store the job fingerprint here, which is what the
        checkpoint layer's refusal path validates on resume).

    Rows have the compression-trace schema :data:`TRACE_COLUMNS`.  The
    writer writes nothing, not even the directory, until its first
    segment fills or it closes; that first commit is the segment file,
    then its manifest, and until then no reader finds a store there.
    ``append`` buffers, a full segment is committed on a background thread
    while appends continue (write-behind), and :meth:`close` flushes the
    final short segment and marks the manifest complete.
    """

    def __init__(
        self,
        directory: PathLike,
        rows_per_segment: int = DEFAULT_ROWS_PER_SEGMENT,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if rows_per_segment < 1:
            raise ConfigurationError(
                f"rows_per_segment must be positive, got {rows_per_segment}"
            )
        self.directory = Path(directory)
        self.rows_per_segment = int(rows_per_segment)
        self.meta = dict(meta) if meta else {}
        #: Buffered trace points, which a flush reads column by column.
        self._rows: List[TracePoint] = []
        self._segment_rows: List[int] = []
        self._committed_rows = 0
        #: The background commit of the last automatic flush, if one is
        #: in flight, and the exception it raised, if any.
        self._commit_thread: Optional[threading.Thread] = None
        self._commit_error: Optional[BaseException] = None
        self.closed = False
        if self.directory.is_dir():
            self._discard_previous_store()

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
        """Buffer one row (a mapping with the schema's columns)."""
        try:
            values = [row[name] for name, _ in TRACE_COLUMNS]
        except KeyError as exc:
            raise SerializationError(f"row is missing column {exc.args[0]!r}") from None
        self.append_point(TracePoint(*values))

    def append_point(self, point: TracePoint) -> None:
        """Buffer one :class:`TracePoint`.

        This is the streaming hot path: with the compiled engine a trace
        point can arrive every few tens of microseconds, so the (immutable)
        point itself is buffered.
        """
        if self.closed:
            raise SerializationError("cannot append to a closed trace store writer")
        rows = self._rows
        rows.append(point)
        if len(rows) >= self.rows_per_segment:
            self._commit(complete=False, background=True)

    # ------------------------------------------------------------------ #
    # Committing
    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """Persist buffered rows as one segment and commit the manifest.

        Order is the whole contract: the new segment's file is atomically
        renamed into place (and fsynced) *before* the manifest that
        references it — so a crash at any byte leaves the
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
        A non-final commit with nothing buffered writes nothing.  A
        background commit also builds the segment's array, so that work
        overlaps the engine too.
        """
        self._await_commit()
        points, self._rows = self._rows, []
        if not points and not complete:
            return
        try:
            index = len(self._segment_rows)
            if points:
                self._segment_rows.append(len(points))
            manifest = self._manifest_file(complete)
            if background:
                self._commit_thread = threading.Thread(
                    target=self._write_in_background, args=(index, points, manifest)
                )
                self._commit_thread.start()
                return
            self._write_files(index, points, manifest)
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

    def _write_in_background(
        self, index: int, points: List[TracePoint], manifest: Tuple[Path, bytes]
    ) -> None:
        try:
            self._write_files(index, points, manifest)
        except BaseException as exc:  # re-raised by the next commit
            self._commit_error = exc

    def _write_files(
        self, index: int, points: List[TracePoint], manifest: Tuple[Path, bytes]
    ) -> None:
        """Write segment ``index`` of ``points`` (none if empty), then
        ``manifest``: the order the crash-recovery contract rests on."""
        segment = _segment_bytes(points) if points else None
        self.directory.mkdir(parents=True, exist_ok=True)
        if segment is not None:
            _write_atomic(self.directory / _segment_file(index), segment)
        _write_atomic(*manifest)
        self._committed_rows += len(points)

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
            "columns": [[name, dtype] for name, dtype in TRACE_COLUMNS],
            "rows_per_segment": self.rows_per_segment,
            "segments": list(self._segment_rows),
            "total_rows": sum(self._segment_rows),
            "complete": bool(complete),
            "meta": self.meta,
        }
        try:
            # Compact: an indent would force json's pure-Python encoder.
            data = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise SerializationError(
                f"trace store meta is not JSON-serializable: {exc}"
            ) from exc
        return self.directory / _MANIFEST_NAME, data


class TraceStoreReader:
    """Consume a trace store directory, recovering exactly the committed rows.

    Safe to open while a writer is still running (or after one crashed):
    only manifest-listed segments are touched, and each is validated
    against its declared dtypes and row count on load — a listed segment
    that fails to load signals genuine corruption and raises
    :class:`~repro.errors.SerializationError`; unlisted remnants of a
    crashed flush are silently invisible.  Both format versions of
    :data:`READABLE_FORMAT_VERSIONS` are read; any other is refused.
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
        self.format_version = manifest.get("format_version")
        if self.format_version not in READABLE_FORMAT_VERSIONS:
            raise SerializationError(
                f"trace store manifest {path} has format_version "
                f"{self.format_version!r}; this reader reads {READABLE_FORMAT_VERSIONS}"
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
        self._check_segment_index(index)
        dtype = dict(self.columns).get(name)
        if dtype is None:
            raise SerializationError(f"unknown column {name!r}; store has {self.column_names}")
        if self.format_version == 1:
            return self._load(index, _column_file(index, name), np.dtype(dtype))
        return np.ascontiguousarray(self._load_records(index)[name])

    def segment(self, index: int) -> Dict[str, np.ndarray]:
        """Load one committed segment as a dict of column arrays."""
        if self.format_version == 1:
            return {name: self.segment_column(index, name) for name, _ in self.columns}
        self._check_segment_index(index)
        records = self._load_records(index)
        return {name: np.ascontiguousarray(records[name]) for name, _ in self.columns}

    def _check_segment_index(self, index: int) -> None:
        if not 0 <= index < len(self.segments):
            raise SerializationError(
                f"segment {index} out of range (store has {len(self.segments)})"
            )

    def _load_records(self, index: int) -> np.ndarray:
        """A version-2 segment: its one file, as a structured array."""
        return self._load(index, _segment_file(index), _record_dtype(self.columns))

    def _load(self, index: int, name: str, dtype: np.dtype) -> np.ndarray:
        """Load one ``.npy`` file of segment ``index`` and check it holds
        exactly the committed rows, as a 1-D array of ``dtype``.

        A file that starts with the header the writer emits for ``dtype``
        and the committed row count (:func:`_npy_header`) is read
        straight off its payload; any other header goes through numpy's
        full parse and the checks below.  Either way the payload must
        end where the array does.
        """
        path = self.directory / name
        rows = self.segments[index]
        header = _npy_header(dtype, rows)
        try:
            with open(path, "rb") as handle:
                data = bytearray(os.fstat(handle.fileno()).st_size)
                size = handle.readinto(data)
            if data.startswith(header):
                array = np.frombuffer(data, dtype=dtype, count=rows, offset=len(header))
                end = len(header) + array.nbytes
            else:
                buffer = io.BytesIO(data)
                array = np.lib.format.read_array(buffer, allow_pickle=False)
                end = buffer.tell()
            if size != len(data) or end != size:
                raise ValueError(f"{size} bytes on disk, the array ends at byte {end}")
        except (OSError, ValueError) as exc:
            raise SerializationError(
                f"committed segment file {path} is missing or corrupt: {exc}"
            ) from exc
        if array.ndim != 1 or array.shape[0] != self.segments[index]:
            raise SerializationError(
                f"segment file {path} holds {array.shape} values; manifest "
                f"committed {self.segments[index]} rows"
            )
        if array.dtype != dtype:
            raise SerializationError(
                f"segment file {path} has dtype {array.dtype}, manifest says {dtype}"
            )
        return array

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
        segment = self.segment(len(self.segments) - 1)
        return {name: array[-1].item() for name, array in segment.items()}

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
    """Stream an engine's trace points into a store: the ``trace_sink=`` hook.

    The sink's :class:`TraceStoreWriter` over ``directory`` (with
    ``rows_per_segment`` and ``meta``) stores every recorded point, so the
    store is row for row the in-memory trace, which is what the lockstep
    tests pin.  A trace shorter than one segment is committed at
    :meth:`close`, segment then manifest (two fsyncs), and a sink that is
    never closed leaves no manifest.
    """

    def __init__(
        self,
        directory: PathLike,
        rows_per_segment: int = DEFAULT_ROWS_PER_SEGMENT,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.writer = TraceStoreWriter(directory, rows_per_segment, meta)

    @property
    def directory(self) -> Path:
        return self.writer.directory

    def append(self, point: TracePoint) -> None:
        """Record one trace point."""
        self.writer.append_point(point)

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
    writer = TraceStoreWriter(directory, rows_per_segment, merged)
    for point in trace.points:
        writer.append_point(point)
    writer.close()
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
