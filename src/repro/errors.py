"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class LatticeError(ReproError):
    """Raised for invalid lattice coordinates or adjacency queries."""


class ConfigurationError(ReproError):
    """Raised for invalid particle configurations (empty, overlapping, ...)."""


class DisconnectedConfigurationError(ConfigurationError):
    """Raised when an operation requires a connected configuration."""


class InvalidMoveError(ReproError):
    """Raised when a particle move violates the chain's move rules."""


class SchedulerError(ReproError):
    """Raised by the asynchronous amoebot scheduler."""


class AlgorithmError(ReproError):
    """Raised by extension algorithms on invalid inputs."""


class AnalysisError(ReproError):
    """Raised by analysis routines on invalid inputs (e.g. too-large state spaces)."""


class SerializationError(ReproError):
    """Raised on malformed serialized payloads."""


class JobError(ReproError):
    """Base class for per-job execution failures inside an ensemble.

    Every subclass must survive a pickle round-trip (pinned by
    ``tests/runtime/test_errors_taxonomy.py``): job errors are created on
    whichever side of a process boundary observed the failure and may be
    re-raised on the other.
    """


class JobTimeout(JobError):
    """A job's attempt exceeded its supervisor-enforced wall-clock timeout."""

    def __init__(self, job_id: str, timeout_seconds: float) -> None:
        super().__init__(
            f"job {job_id!r} exceeded its {timeout_seconds:g}s wall-clock timeout"
        )
        self.job_id = job_id
        self.timeout_seconds = timeout_seconds

    def __reduce__(self):
        return (type(self), (self.job_id, self.timeout_seconds))


class WorkerCrashed(JobError):
    """The worker process executing a job died without reporting a result.

    Covers hard deaths the job's own code never sees: ``os._exit``, OOM
    kills, segfaults, ``kill -9``.  ``exitcode`` is the worker's exit
    status when the supervisor could observe one (negative for signals,
    following :attr:`multiprocessing.Process.exitcode`), else ``None``.
    """

    def __init__(self, job_id: str, exitcode=None) -> None:
        detail = "" if exitcode is None else f" (exitcode {exitcode})"
        super().__init__(
            f"worker process died while executing job {job_id!r}{detail}"
        )
        self.job_id = job_id
        self.exitcode = exitcode

    def __reduce__(self):
        return (type(self), (self.job_id, self.exitcode))


class ServiceError(ReproError):
    """Base class for errors raised by the simulation service layer.

    Like :class:`JobError`, every subclass must survive a pickle
    round-trip (pinned by ``tests/runtime/test_errors_taxonomy.py``):
    service errors describe conditions observed across a process/wire
    boundary and may be re-raised far from where they were created.
    """


class ProtocolError(ServiceError):
    """A wire frame violated the service protocol.

    ``recoverable`` distinguishes a malformed *payload* inside a
    well-framed message (the connection stays usable — the peer answers
    with an error frame and keeps reading) from a broken *framing* layer
    (truncated length prefix, oversized frame, mid-frame EOF), after
    which the byte stream cannot be resynchronized and the connection
    must be closed.
    """

    def __init__(self, message: str, recoverable: bool = False) -> None:
        super().__init__(message)
        self.recoverable = recoverable

    def __reduce__(self):
        return (type(self), (self.args[0] if self.args else "", self.recoverable))


class ServerBusy(ServiceError):
    """The server refused a submission for capacity reasons.

    Explicit backpressure, never a silent drop: the admission queue is
    full (``reason="queue_full"``), the client exceeded its quota of
    unfinished jobs (``reason="quota_exceeded"``), or the server is
    draining ahead of a shutdown (``reason="draining"``).  Clients are
    expected to back off and resubmit — submissions are idempotent.
    """

    def __init__(self, reason: str, queued: int = 0, capacity: int = 0) -> None:
        super().__init__(
            f"server busy ({reason}): {queued} queued against a capacity of {capacity}"
        )
        self.reason = reason
        self.queued = queued
        self.capacity = capacity

    def __reduce__(self):
        return (type(self), (self.reason, self.queued, self.capacity))


class ServiceUnavailable(ServiceError):
    """The client exhausted its reconnect attempts without reaching a server."""

    def __init__(self, message: str, attempts: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts

    def __reduce__(self):
        return (type(self), (self.args[0] if self.args else "", self.attempts))


class EnsembleAborted(ReproError):
    """An ensemble run stopped before completing every job.

    Raised by :meth:`repro.runtime.runner.EnsembleRunner.run` under
    ``failure_policy="raise"`` (and for any infrastructure error escaping
    the execution loop).  The already-completed work is not lost:
    ``partial`` carries an :class:`~repro.runtime.runner.EnsembleResult`
    with every result finished before the abort, and ``failures`` the
    structured :class:`~repro.runtime.supervision.JobFailure` records.
    Both attributes live only on the raising side; what pickles across a
    process boundary is the message (``partial``/``failures`` reset to
    their empty defaults on unpickle — completed results are already
    persisted via the checkpoint, not the exception).
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.partial = None
        self.failures = []

    def __reduce__(self):
        return (type(self), (self.args[0] if self.args else "",))
