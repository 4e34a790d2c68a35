"""Checkpoint/resume for long ensemble runs.

An :class:`EnsembleCheckpoint` is a directory with one JSON document per
completed job, named ``<job_id>.json`` and written atomically, as compact
JSON, by the writer behind :func:`repro.io.serialization.save_json` the
moment the job finishes (the runner writes it on the path that hands the
pool its next job, so the encoding is kept cheap; documents written
indented by earlier versions still load).
Killing an ensemble mid-run therefore loses at most the jobs currently in
flight; re-running the same ensemble against the same directory loads the
finished results and executes only the remainder.

Resume safety comes from fingerprinting: every document embeds the full
JSON form of the job that produced it, and on load the stored job must
match the submitted job exactly (seed included).  A stale checkpoint
directory — different sweep, changed iteration counts, reseeded ensemble —
fails loudly with :class:`~repro.errors.SerializationError` instead of
silently mixing incompatible results.  Because per-job results are a pure
function of the job (see :func:`repro.runtime.jobs.run_job`), a resumed
ensemble is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, SerializationError
from repro.io.serialization import (
    FORMAT_VERSION,
    _write_json,
    load_json,
    trace_from_json,
    trace_to_json,
)
from repro.runtime.jobs import (
    AmoebotJob,
    BridgingJob,
    ChainJob,
    ChainResult,
    Job,
    SeparationJob,
)

PathLike = Union[str, Path]


class CheckpointWarning(UserWarning):
    """A checkpoint document was skipped during resume instead of loaded.

    Emitted by :meth:`EnsembleCheckpoint.load` /
    :meth:`EnsembleCheckpoint.load_failure` when a per-job document is
    unreadable or corrupt (torn write the atomic rename never committed,
    disk damage, truncation).  The job is treated as *not completed* and
    re-executed — degradation costs one job's work, not the whole
    ensemble.  Fingerprint mismatches are **not** degraded: a readable
    document recording a different job is the signature of a stale or
    foreign directory and still raises
    :class:`~repro.errors.SerializationError`.

    ``path`` is the offending document, ``reason`` currently always
    ``"corrupt"``, ``detail`` the underlying parse error.
    """

    def __init__(self, path: PathLike, reason: str, detail: str = "") -> None:
        self.path = str(path)
        self.reason = reason
        self.detail = detail
        message = f"skipping checkpoint document {self.path} ({reason})"
        if detail:
            message += f": {detail}"
        super().__init__(message)


def job_to_json(job: Job) -> Dict[str, Any]:
    """Serialize a job to its canonical JSON form (the checkpoint fingerprint).

    The payload is round-tripped through the JSON encoder so that values
    which JSON normalizes (tuples to lists — ``initial_nodes``, but also
    tuple-valued user metadata) compare equal to what a checkpoint document
    stores; otherwise resuming would spuriously refuse its own output.
    Non-JSON-serializable metadata raises :class:`SerializationError` here,
    at submission time, rather than corrupting a checkpoint.

    Distributed-simulator jobs carry a ``job_type: "amoebot"`` tag, the
    extension chains ``"separation"`` / ``"bridging"``; chain jobs stay
    untagged so documents written before the tags existed keep resuming.
    For the same reason a ``trace_store`` of ``None`` is omitted from the
    fingerprint (store-less jobs keep the exact payload shape they had
    before streaming traces existed, so old documents keep resuming).
    """
    try:
        payload = json.loads(json.dumps(asdict(job)))
    except (TypeError, ValueError) as exc:
        raise SerializationError(
            f"job {job.job_id!r} is not JSON-serializable "
            f"(metadata must be plain JSON types): {exc}"
        ) from exc
    if payload.get("trace_store") is None:
        payload.pop("trace_store", None)
    if isinstance(job, AmoebotJob):
        payload["job_type"] = "amoebot"
    elif isinstance(job, SeparationJob):
        payload["job_type"] = "separation"
    elif isinstance(job, BridgingJob):
        payload["job_type"] = "bridging"
    return payload


def job_from_json(payload: Dict[str, Any]) -> Job:
    """Rebuild a job from :func:`job_to_json` output."""
    try:
        data = dict(payload)
        job_type = data.pop("job_type", "chain")
        if data.get("initial_nodes") is not None:
            data["initial_nodes"] = tuple((int(x), int(y)) for x, y in data["initial_nodes"])
        if job_type == "amoebot":
            if data.get("rates") is not None:
                data["rates"] = tuple(
                    (int(pid), float(rate)) for pid, rate in data["rates"]
                )
            return AmoebotJob(**data)
        if job_type == "separation":
            if data.get("colored_nodes") is not None:
                data["colored_nodes"] = tuple(
                    (int(x), int(y), int(color)) for x, y, color in data["colored_nodes"]
                )
            return SeparationJob(**data)
        if job_type == "bridging":
            return BridgingJob(**data)
        if job_type != "chain":
            raise SerializationError(f"unknown job_type {job_type!r}")
        return ChainJob(**data)
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise SerializationError(f"malformed job payload: {exc}") from exc


def _plain(value: Any) -> Any:
    """Coerce a numpy scalar to its Python equivalent; pass everything else through.

    Kernel metrics in ``ChainResult.extra`` are produced by engine
    internals; a counter that leaks through as ``numpy.int64`` must not
    abort the atomic checkpoint write (which refuses anything
    ``json.dumps`` cannot encode), so the document layer normalizes
    scalars instead of losing the job's result at persist time.
    """
    return value.item() if isinstance(value, np.generic) else value


def chain_result_to_json(result: ChainResult) -> Dict[str, Any]:
    """Serialize a chain result (job fingerprint included) to plain JSON.

    ``extra`` is always written — even when empty — so every document
    states its kernel metrics explicitly; only documents from before the
    field existed lack the key, and :func:`chain_result_from_json` treats
    those (and an explicit ``null``) as empty rather than refusing, so
    old and new documents resume side by side.

    Documents carry ``status: "ok"`` and the supervisor's ``attempts``
    count; documents from before those fields existed read back as
    ``status="ok"`` / ``attempts=1`` (the only thing a pre-supervision
    runner could have persisted was a single-attempt success), so old
    checkpoint directories keep resuming unchanged.

    Store-backed results (``result.trace_store_path`` set) embed a
    ``trace_store_ref`` instead of the inline point list: the trace
    payload carries only the store directory plus ``n``/``lambda``, and
    the rows stay on disk in the
    :mod:`repro.io.trace_store` segment files — which is the whole point
    for 10^8-iteration runs whose traces must never be materialized into
    a JSON document.
    """
    if result.trace_store_path is not None:
        trace_payload: Dict[str, Any] = {
            "kind": "trace_store_ref",
            "path": str(result.trace_store_path),
            "n": int(result.trace.n),
            "lambda": float(result.trace.lam),
        }
    else:
        trace_payload = trace_to_json(result.trace)
    return {
        "format_version": FORMAT_VERSION,
        "kind": "chain_result",
        "status": "ok",
        "job": job_to_json(result.job),
        "trace": trace_payload,
        "iterations": result.iterations,
        "accepted_moves": result.accepted_moves,
        "rejection_counts": dict(result.rejection_counts),
        "compression_time": result.compression_time,
        "wall_seconds": result.wall_seconds,
        "attempts": result.attempts,
        "extra": {key: _plain(value) for key, value in result.extra.items()},
    }


def _reattach_trace_store(trace_payload: Dict[str, Any], job_payload: Dict[str, Any]):
    """Re-open the on-disk trace a ``trace_store_ref`` document points at.

    Fingerprint refusal happens here, *before* any rows are read: the
    store manifest embeds the canonical JSON of the job that streamed it,
    and a manifest whose fingerprint differs from the document's job — a
    swapped directory, a reseeded rerun, a foreign ensemble's trace — is
    refused outright rather than silently re-attached.  Incomplete stores
    (writer never closed) are likewise refused: a checkpoint document is
    only ever written after the job's sink was closed, so an incomplete
    manifest means the directory does not hold this document's trace.
    """
    from repro.io.trace_store import TraceStoreReader

    path = trace_payload["path"]
    reader = TraceStoreReader(path)
    stored_job = reader.meta.get("job")
    if stored_job != job_payload:
        raise SerializationError(
            f"trace store {path} was streamed by a different job specification "
            f"than this checkpoint document describes; refusing to re-attach a "
            f"mismatched trace directory"
        )
    if not reader.complete:
        raise SerializationError(
            f"trace store {path} is incomplete (its writer never closed); "
            f"refusing to re-attach it to a completed checkpoint document"
        )
    return (
        reader.read_trace(n=int(trace_payload["n"]), lam=float(trace_payload["lambda"])),
        str(path),
    )


def chain_result_from_json(payload: Dict[str, Any]) -> ChainResult:
    """Deserialize a chain result produced by :func:`chain_result_to_json`.

    Inline traces are rebuilt from the document; ``trace_store_ref``
    documents re-attach to their on-disk store (fingerprint-checked
    against the document's job, see :func:`_reattach_trace_store`).
    """
    try:
        if payload.get("kind") != "chain_result":
            raise SerializationError(f"unexpected document kind {payload.get('kind')!r}")
        compression_time = payload["compression_time"]
        trace_payload = payload["trace"]
        trace_store_path = None
        if isinstance(trace_payload, dict) and trace_payload.get("kind") == "trace_store_ref":
            trace, trace_store_path = _reattach_trace_store(trace_payload, payload["job"])
        else:
            trace = trace_from_json(trace_payload)
        return ChainResult(
            job=job_from_json(payload["job"]),
            trace=trace,
            iterations=int(payload["iterations"]),
            accepted_moves=int(payload["accepted_moves"]),
            rejection_counts={k: int(v) for k, v in payload["rejection_counts"].items()},
            compression_time=None if compression_time is None else int(compression_time),
            wall_seconds=float(payload["wall_seconds"]),
            extra=dict(payload.get("extra") or {}),
            trace_store_path=trace_store_path,
            attempts=int(payload.get("attempts", 1)),
        )
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise SerializationError(f"malformed chain result payload: {exc}") from exc


def job_failure_to_json(failure) -> Dict[str, Any]:
    """Serialize a :class:`~repro.runtime.supervision.JobFailure` document.

    Failure documents share the checkpoint directory (and the
    ``<job_id>.json`` naming) with results: a quarantined job's slot holds
    its failure record until a retry succeeds and
    :meth:`EnsembleCheckpoint.store` overwrites it with the result.
    """
    return {
        "format_version": FORMAT_VERSION,
        "kind": "job_failure",
        "status": "failed",
        "job": job_to_json(failure.job),
        "error_type": failure.error_type,
        "message": failure.message,
        "traceback": failure.traceback,
        "attempts": failure.attempts,
        "wall_seconds": failure.wall_seconds,
        "attempt_errors": list(failure.attempt_errors),
        "worker_pid": failure.worker_pid,
        "hostname": failure.hostname,
    }


def job_failure_from_json(payload: Dict[str, Any]):
    """Deserialize a failure document written by :func:`job_failure_to_json`.

    ``worker_pid`` / ``hostname`` read back as ``None`` on documents
    written before the fields existed, so old quarantine records keep
    resuming unchanged.
    """
    from repro.runtime.supervision import JobFailure

    try:
        if payload.get("kind") != "job_failure":
            raise SerializationError(f"unexpected document kind {payload.get('kind')!r}")
        worker_pid = payload.get("worker_pid")
        hostname = payload.get("hostname")
        return JobFailure(
            job=job_from_json(payload["job"]),
            error_type=str(payload["error_type"]),
            message=str(payload["message"]),
            traceback=str(payload["traceback"]),
            attempts=int(payload["attempts"]),
            wall_seconds=float(payload["wall_seconds"]),
            attempt_errors=list(payload.get("attempt_errors") or []),
            worker_pid=None if worker_pid is None else int(worker_pid),
            hostname=None if hostname is None else str(hostname),
        )
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise SerializationError(f"malformed job failure payload: {exc}") from exc


class EnsembleCheckpoint:
    """Persist completed ensemble jobs in a directory, one JSON file per job.

    Documents come in two kinds: ``chain_result`` (a success — loaded on
    resume instead of re-running) and ``job_failure`` (a quarantined
    job — fingerprint-validated like any document, but treated as *not
    completed* so a resumed run retries exactly the quarantined jobs and
    overwrites the failure document on success).
    """

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, job_id: str) -> Path:
        """The document path for a job id."""
        return self.directory / f"{job_id}.json"

    @staticmethod
    def _read_document(path: Path) -> Optional[Dict[str, Any]]:
        """Read one per-job document, degrading corruption to ``None``.

        An unreadable or unparseable document — or one that parses but
        lacks the ``job`` fingerprint every document embeds — gets a
        :class:`CheckpointWarning` and reads as "not completed", so the
        resumed run re-executes that one job instead of aborting.  A
        *readable* document is returned as-is; fingerprint validation
        (and its stale-directory refusal) stays with the caller.
        """
        try:
            payload = load_json(path)
        except SerializationError as exc:
            warnings.warn(
                CheckpointWarning(path, "corrupt", str(exc)), stacklevel=3
            )
            return None
        if not isinstance(payload, dict) or "job" not in payload:
            warnings.warn(
                CheckpointWarning(
                    path, "corrupt", "document is not a per-job record"
                ),
                stacklevel=3,
            )
            return None
        return payload

    def store(self, result: ChainResult) -> Path:
        """Atomically persist one completed job (overwriting any failure doc)."""
        return _write_json(
            chain_result_to_json(result), self.path_for(result.job.job_id), indent=None
        )

    def store_failure(self, failure) -> Path:
        """Atomically persist one quarantined job's failure record."""
        return _write_json(
            job_failure_to_json(failure), self.path_for(failure.job.job_id), indent=None
        )

    def load(self, job: ChainJob) -> Optional[ChainResult]:
        """Load the stored result for ``job``, or ``None`` if not yet completed.

        A ``job_failure`` document counts as not completed — the job will
        be retried — but its fingerprint is still validated, so a foreign
        directory is refused before any retry runs.

        Raises :class:`SerializationError` when a document exists but was
        produced by a *different* job with the same id — the signature of a
        stale or foreign checkpoint directory.  An *unreadable* document
        (torn write, disk corruption) instead degrades: a
        :class:`CheckpointWarning` is emitted and the job reads as not
        completed, so it re-runs rather than aborting the ensemble.
        """
        path = self.path_for(job.job_id)
        if not path.exists():
            return None
        payload = self._read_document(path)
        if payload is None:
            return None
        if payload["job"] != job_to_json(job):
            raise SerializationError(
                f"checkpoint entry {path} was produced by a different job "
                f"specification than the one submitted; refusing to resume "
                f"from a stale checkpoint (delete the directory to start over)"
            )
        if payload.get("kind") == "job_failure":
            return None
        result = chain_result_from_json(payload)
        result.from_checkpoint = True
        return result

    def load_failure(self, job: ChainJob):
        """The quarantined-failure record for ``job``, or ``None``.

        Fingerprint-validated like :meth:`load`; a ``chain_result``
        document (the job later succeeded) reads as ``None``.
        """
        path = self.path_for(job.job_id)
        if not path.exists():
            return None
        payload = self._read_document(path)
        if payload is None or payload.get("kind") != "job_failure":
            return None
        failure = job_failure_from_json(payload)
        if payload["job"] != job_to_json(job):
            raise SerializationError(
                f"checkpoint entry {path} was produced by a different job "
                f"specification than the one submitted; refusing to resume "
                f"from a stale checkpoint (delete the directory to start over)"
            )
        return failure

    def quarantined_ids(self) -> List[str]:
        """Ids of all jobs whose stored document is a failure record, sorted."""
        ids = []
        for path in self.directory.glob("*.json"):
            try:
                payload = load_json(path)
            except SerializationError:  # pragma: no cover - foreign files
                continue
            if isinstance(payload, dict) and payload.get("kind") == "job_failure":
                ids.append(path.stem)
        return sorted(ids)

    def load_completed(self, jobs: Sequence[ChainJob]) -> Dict[str, ChainResult]:
        """Load every already-completed job of an ensemble, keyed by job id."""
        completed: Dict[str, ChainResult] = {}
        for job in jobs:
            result = self.load(job)
            if result is not None:
                completed[job.job_id] = result
        return completed

    def completed_ids(self) -> List[str]:
        """Ids of all jobs with a stored document, sorted."""
        return sorted(path.stem for path in self.directory.glob("*.json"))
