"""Supervised, fault-tolerant execution of ensemble jobs.

Every :class:`~repro.runtime.runner.EnsembleRunner` run executes here,
so a job that raises, a worker that is OOM-killed mid-chain, or a run
that wedges on one pathological seed all meet the same recovery
contract:

* :class:`RetryPolicy` — bounded attempts with exponential backoff,
  deterministic seeded jitter, and an optional per-job wall-clock timeout
  enforced *by the supervisor* (a stalled worker is killed, not waited
  on).  The default is one attempt and no timeout.
* :class:`SupervisedPool` — worker processes watched over per-worker
  result pipes and ``is_alive()`` polling: dead workers are detected and
  replaced, the job running on one is retried or quarantined, and
  in-flight work is bounded at one running job plus one queued job per
  worker (no poisoned ``imap`` iterator, no unbounded task backlog).  A
  crash or timeout is charged to the running job only; the queued job
  goes back to the front of the queue with its attempt unspent.
* :func:`run_supervised_serial` — the same attempt loop in-process, for
  ``workers=1`` runs without a timeout.
* :class:`JobFailure` — the structured record a job leaves behind when
  every attempt is exhausted: exception type, message, traceback text,
  per-attempt error log, attempt count and total wall-clock spent.
* :class:`RunnerFaultPlan` / :class:`FaultSpec` — the runner-level
  fault-injection harness (the :mod:`repro.io.trace_store` crash-harness
  idea moved up the stack): chosen ``(job_id, attempt)`` pairs raise,
  stall past their timeout, or ``os._exit`` the worker, so the
  supervisor's recovery contract is pinned by tests rather than hoped
  for.

Both execution paths call this module's ``execute_job`` global, looked up
at call time, so instrumentation that wraps it sees every job.
Determinism is preserved by construction: :func:`repro.runtime.jobs.execute_job`
is a pure function of the job, retries re-run it from scratch on a fresh
tape, and the supervisor never injects randomness into a job — so every
job that *completes* under supervision is bit-identical per seed to a
clean serial run, whatever faults occurred around it (pinned by
``tests/runtime/test_supervision_faults.py`` under every start method).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import queue as queue_module
import socket
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_for_pipes
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    ConfigurationError,
    JobError,
    JobTimeout,
    WorkerCrashed,
)
from repro.runtime.jobs import ChainResult, Job, execute_job

#: The two ways an ensemble may respond to a job exhausting its attempts.
FAILURE_POLICIES = ("raise", "quarantine")

#: Fault actions the injection harness can trigger in a worker.
FAULT_ACTIONS = ("raise", "stall", "exit")

#: Supervisor poll granularity (seconds): the longest the parent waits on
#: the result pipes before re-checking deadlines and worker liveness.
SUPERVISOR_TICK = 0.05

#: Jobs a pool worker holds at once: the one it runs and one queued behind
#: it, so it starts its next job the moment it finishes the current one,
#: while the parent reads the result and the runner checkpoints it.
_WORKER_DEPTH = 2

#: How long (seconds) a running job's worker may take to ack its start
#: before the attempt is charged a timeout.  An attempt's own timeout
#: clock starts at that ack, so a replacement worker that boots slowly
#: (``spawn`` and ``forkserver`` import the package afresh) does not
#: spend its first job's budget; this bound only catches a worker that
#: never boots, and so sits far above any boot time.
_BOOT_SECONDS = 60.0


class InjectedFault(JobError):
    """The deliberate failure raised by a ``FaultSpec(action="raise")``."""


# ---------------------------------------------------------------------- #
# Policies
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class RetryPolicy:
    """How many times a job may run, how long to wait, how long to allow.

    Attributes
    ----------
    max_attempts:
        Total attempts per job (``1`` means no retries).
    backoff_seconds:
        Base delay before the second attempt; attempt ``k`` waits
        ``backoff_seconds * backoff_multiplier**(k - 2)`` (scaled by
        jitter) before re-dispatch.
    backoff_multiplier:
        Exponential growth factor of the backoff (``>= 1``).
    jitter:
        Maximum fractional inflation of a delay.  The inflation for a
        given ``(job_id, attempt)`` is *deterministic* — a hash of
        ``(seed, job_id, attempt)`` — so two runs of the same ensemble
        retry on identical schedules: reproducibility extends to the
        failure path, not just the happy path.
    timeout_seconds:
        Optional per-attempt wall-clock budget.  Enforced by the
        supervisor from outside the worker (the worker is killed and the
        attempt recorded as :class:`~repro.errors.JobTimeout`), so even a
        job stuck in native code is bounded.  Requires process-isolated
        execution: with ``workers=1`` the runner promotes the run onto a
        single supervised worker process when a timeout is set.
    seed:
        Seed of the jitter hash.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    jitter: float = 0.1
    timeout_seconds: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.backoff_seconds < 0:
            raise ConfigurationError(
                f"backoff_seconds must be non-negative, got {self.backoff_seconds}"
            )
        if self.backoff_multiplier < 1:
            raise ConfigurationError(
                f"backoff_multiplier must be at least 1, got {self.backoff_multiplier}"
            )
        if self.jitter < 0:
            raise ConfigurationError(f"jitter must be non-negative, got {self.jitter}")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )

    def backoff_before(self, attempt: int, job_id: str) -> float:
        """Seconds to wait before dispatching ``attempt`` (>= 2) of a job.

        Pure in ``(policy, job_id, attempt)``: the jitter fraction is a
        SHA-256 hash mapped to ``[0, 1)``, never a live RNG draw.
        """
        if attempt <= 1:
            return 0.0
        base = self.backoff_seconds * self.backoff_multiplier ** (attempt - 2)
        if not base or not self.jitter:
            return base
        digest = hashlib.sha256(
            f"{self.seed}:{job_id}:{attempt}".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return base * (1.0 + self.jitter * fraction)


def validate_failure_policy(failure_policy: str) -> str:
    """Check a failure-policy string, returning it for chaining."""
    if failure_policy not in FAILURE_POLICIES:
        raise ConfigurationError(
            f"unknown failure_policy {failure_policy!r}; "
            f"expected one of {FAILURE_POLICIES}"
        )
    return failure_policy


# ---------------------------------------------------------------------- #
# Failure records
# ---------------------------------------------------------------------- #
@dataclass
class JobFailure:
    """What remains of a job whose every attempt failed.

    Carried in :attr:`repro.runtime.runner.EnsembleResult.failures` under
    ``failure_policy="quarantine"`` and in ``EnsembleAborted.failures``
    under ``"raise"``, persisted as a ``job_failure`` checkpoint document
    under either (so a resumed run retries exactly the failed jobs), and
    flattened into the results table with ``status="failed"``.
    """

    job: Job
    error_type: str
    message: str
    traceback: str
    attempts: int
    wall_seconds: float = 0.0
    #: Per-attempt error log: ``{"attempt", "error_type", "message",
    #: "wall_seconds"}`` (and ``"worker_pid"`` where known) dicts in
    #: attempt order (the final attempt's full traceback lives in
    #: ``traceback``).
    attempt_errors: List[Dict[str, Any]] = field(default_factory=list)
    #: Pid of the worker process running the final failed attempt, when
    #: the supervisor could observe one (``None`` on documents from
    #: before the field existed).  With remote workers this is the pid
    #: *on the executing host* — pair it with ``hostname``.
    worker_pid: Optional[int] = None
    #: Hostname of the machine the final attempt executed on.
    hostname: Optional[str] = None

    def row(self) -> Dict[str, Any]:
        """Flatten the failure into one results-table row."""
        job = self.job
        row: Dict[str, Any] = {
            "job_id": job.job_id,
            "kind": job.kind,
            "engine": job.engine,
            "lambda": job.lam,
            "seed": job.seed,
            "status": "failed",
            "attempts": self.attempts,
            "error_type": self.error_type,
            "error": self.message,
            "wall_seconds": self.wall_seconds,
        }
        for key, value in job.metadata.items():
            row.setdefault(key, value)
        return row


# ---------------------------------------------------------------------- #
# Fault injection
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what happens to one attempt of one job.

    Actions (triggered in the worker, immediately before the job body —
    the injection point of the runner-level harness):

    * ``"raise"`` — raise :class:`InjectedFault` (an ordinary job error
      the retry machinery sees as any other exception);
    * ``"stall"`` — sleep ``seconds`` before executing normally,
      modelling a wedged job (set ``seconds`` past the policy timeout to
      exercise the supervisor's kill path);
    * ``"exit"`` — ``os._exit(exit_code)``: a hard worker death that
      skips ``finally`` blocks and anything still buffered, the closest a
      test gets to SIGKILL/OOM.
    """

    job_id: str
    attempt: int
    action: str
    seconds: float = 3600.0
    exit_code: int = 17

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; expected one of {FAULT_ACTIONS}"
            )
        if self.attempt < 1:
            raise ConfigurationError(f"attempt must be at least 1, got {self.attempt}")
        if self.seconds <= 0:
            raise ConfigurationError(f"seconds must be positive, got {self.seconds}")

    def trigger(self) -> None:
        """Execute the fault in the current process."""
        if self.action == "raise":
            raise InjectedFault(
                f"injected fault: job {self.job_id!r} attempt {self.attempt}"
            )
        if self.action == "stall":
            time.sleep(self.seconds)
            return
        os._exit(self.exit_code)


@dataclass(frozen=True)
class RunnerFaultPlan:
    """A picklable set of :class:`FaultSpec` entries, one per (job, attempt).

    This is the *runner-level* fault injector (raise/stall/``os._exit`` a
    worker attempt) — unrelated to
    :class:`repro.amoebot.faults.FaultPlan`, which injects crash/Byzantine
    faults into the particles of a running amoebot system.
    """

    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        keys = [(fault.job_id, fault.attempt) for fault in self.faults]
        if len(set(keys)) != len(keys):
            raise ConfigurationError(
                "fault plan contains duplicate (job_id, attempt) entries"
            )

    @classmethod
    def build(cls, *faults: FaultSpec) -> "RunnerFaultPlan":
        return cls(faults=tuple(faults))

    def lookup(self, job_id: str, attempt: int) -> Optional[FaultSpec]:
        """The fault injected into this attempt of this job, if any."""
        for fault in self.faults:
            if fault.job_id == job_id and fault.attempt == attempt:
                return fault
        return None


# ---------------------------------------------------------------------- #
# Worker side
# ---------------------------------------------------------------------- #
def _worker_main(worker_id: int, tasks, results) -> None:
    """Worker process body: execute tasks one at a time, forever.

    ``results`` is the write end of the worker's own result pipe.  Each
    ``send`` is synchronous: it returns once the whole message is in the
    pipe, and there is no feeder thread, so a message the worker has sent
    outlives the worker, and its next task starts only after the last
    outcome has left it.  Protocol (all payloads plain picklables):

    * ``("started", worker_id, job_id, attempt)`` — assignment ack; the
      supervisor starts the attempt's timeout clock here.
    * ``("ok", worker_id, job_id, attempt, ChainResult)``
    * ``("error", worker_id, job_id, attempt, error_type, message,
      traceback_text, wall_seconds)`` — the job raised; the exception is
      flattened to strings so unpicklable exception objects can never
      poison the pipe.
    """
    while True:
        task = tasks.get()
        if task is None:
            return
        job, attempt, fault = task
        results.send(("started", worker_id, job.job_id, attempt))
        started = time.perf_counter()
        try:
            if fault is not None:
                fault.trigger()
            result = execute_job(job)
        except Exception as exc:
            results.send(
                (
                    "error",
                    worker_id,
                    job.job_id,
                    attempt,
                    type(exc).__name__,
                    str(exc),
                    traceback_module.format_exc(),
                    time.perf_counter() - started,
                )
            )
        else:
            result.attempts = attempt
            results.send(("ok", worker_id, job.job_id, attempt, result))


# ---------------------------------------------------------------------- #
# Supervisor side
# ---------------------------------------------------------------------- #
class _Flight:
    """One attempt assigned to one worker: running (the head) or queued."""

    __slots__ = ("job", "attempt", "head_at", "started_at")

    def __init__(self, job: Job, attempt: int) -> None:
        self.job = job
        self.attempt = attempt
        #: When the flight became its worker's head (dispatch to an idle
        #: worker, or promotion when the job ahead of it finished).
        self.head_at: Optional[float] = None
        self.started_at: Optional[float] = None

    def clock_start(self) -> float:
        """Where the attempt's wall clock starts: its ``started`` ack, or
        when it became the head if that ack has not been read yet."""
        return self.started_at or self.head_at

    def deadline(self, timeout: Optional[float]) -> Optional[float]:
        """When the attempt is charged a timeout: ``timeout`` after its
        ``started`` ack, or :data:`_BOOT_SECONDS` after it became the head
        while that ack is unread."""
        if timeout is None:
            return None
        if self.started_at is None:
            return self.head_at + _BOOT_SECONDS
        return self.started_at + timeout


class _Worker:
    """Supervisor-side handle for one worker process."""

    __slots__ = ("worker_id", "process", "tasks", "results", "hung_up", "flights")

    def __init__(self, worker_id: int, process, tasks, results) -> None:
        self.worker_id = worker_id
        self.process = process
        self.tasks = tasks
        #: Read end of the worker's own result pipe.
        self.results = results
        #: The pipe reached end of file: the worker is gone.
        self.hung_up = False
        #: At most :data:`_WORKER_DEPTH` flights in assignment order: the
        #: head is running, the one behind it is queued.
        self.flights: List[_Flight] = []

    def receive(self) -> List[Tuple]:
        """Every whole message waiting on the worker's pipe.

        A message cut short by the worker's death, or the end of the pipe,
        marks the worker hung up; it touches no other worker's pipe.
        """
        messages = []
        try:
            while self.results.poll():
                messages.append(self.results.recv())
        except (EOFError, OSError):
            self.hung_up = True
        return messages

    def is_dead(self) -> bool:
        if self.hung_up:
            # The pipe closes as the process exits; wait for the exit
            # code rather than reading a death as a live worker.
            self.process.join(SUPERVISOR_TICK)
        return self.hung_up or not self.process.is_alive()

    def can_queue(self) -> bool:
        """Whether the worker takes a job behind its head: only once the
        head has acked its start, so no worker's first job waits."""
        return (
            len(self.flights) < _WORKER_DEPTH
            and self.flights[0].started_at is not None
        )

    def assign(self, job: Job, attempt: int, fault: Optional[FaultSpec]) -> None:
        flight = _Flight(job, attempt)
        if not self.flights:
            flight.head_at = time.monotonic()
        self.flights.append(flight)
        self.tasks.put((job, attempt, fault))

    def pop_head(self) -> None:
        """Remove the finished head; the queued flight becomes the head."""
        self.flights.pop(0)
        if self.flights:
            self.flights[0].head_at = time.monotonic()

    def discard(self) -> None:
        """Tear the worker down without waiting for it (replacement path)."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(1.0)
            if self.process.is_alive():  # pragma: no cover - stubborn child
                self.process.kill()
                self.process.join(1.0)
        self.tasks.close()
        self.tasks.cancel_join_thread()
        self.results.close()


class _JobState:
    """Cross-attempt bookkeeping for one job."""

    __slots__ = (
        "job", "attempts", "errors", "wall_seconds", "last_traceback", "worker_pid"
    )

    def __init__(self, job: Job) -> None:
        self.job = job
        self.attempts = 0
        self.errors: List[Dict[str, Any]] = []
        self.wall_seconds = 0.0
        self.last_traceback = ""
        self.worker_pid: Optional[int] = None

    def attempt_failed(
        self,
        attempt: int,
        error_type: str,
        message: str,
        traceback_text: str,
        wall_seconds: float,
        worker_pid: Optional[int],
    ) -> None:
        """Record one failed attempt in the job's error log."""
        self.attempts = attempt
        self.wall_seconds += wall_seconds
        entry = {
            "attempt": attempt,
            "error_type": error_type,
            "message": message,
            "wall_seconds": wall_seconds,
        }
        if worker_pid is not None:
            entry["worker_pid"] = worker_pid
        self.errors.append(entry)
        self.last_traceback = traceback_text
        self.worker_pid = worker_pid

    def to_failure(self) -> JobFailure:
        last = self.errors[-1]
        return JobFailure(
            job=self.job,
            error_type=last["error_type"],
            message=last["message"],
            traceback=self.last_traceback,
            attempts=self.attempts,
            wall_seconds=self.wall_seconds,
            attempt_errors=list(self.errors),
            worker_pid=self.worker_pid,
            hostname=socket.gethostname(),
        )


class SupervisedPool:
    """Run jobs on watched worker processes; never hang, never lose a job.

    The execution engine behind every ``run_ensemble(..., workers=k)``
    with ``k > 1`` (and ``workers=1`` runs with a timeout).  Differences
    from a bare process pool:

    * each worker holds at most two jobs: the one it runs (the head) and
      one queued behind it, handed over once the head has acked its start.
      The worker goes straight from one job to the next while the parent
      reads the last result, and the supervisor always knows which attempt
      was running on which worker;
    * each worker reports on its own result pipe, written synchronously,
      so a finished job's outcome has left the worker before the queued
      job starts, and a worker that dies mid-write cuts short only its
      own pipe;
    * pipe end-of-file plus ``is_alive()`` polling detect dead
      workers within a supervisor tick; the worker is replaced, its
      running attempt becomes a :class:`~repro.errors.WorkerCrashed`
      attempt error, and its queued job goes back to the front of the
      queue with the same attempt number (it never ran, so it uses up no
      attempt and records no error);
    * an attempt exceeding ``retry.timeout_seconds`` gets its worker
      killed from outside (:class:`~repro.errors.JobTimeout`), so a
      wedged job cannot stall the ensemble.  An attempt's clock starts at
      its ``started`` ack, never while it waits queued or its worker
      boots; a running job whose ack does not arrive within
      :data:`_BOOT_SECONDS` is charged a timeout all the same.  The
      killed worker's queued job goes back as after a crash;
    * failed attempts are retried up to ``retry.max_attempts`` with
      deterministic backoff; jobs that exhaust their attempts are
      yielded as :class:`JobFailure` records instead of poisoning the
      iterator.

    :meth:`run` yields outcomes (``ChainResult`` or ``JobFailure``) in
    completion order; the caller (the runner) restores submission order.
    """

    def __init__(
        self,
        workers: int,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[RunnerFaultPlan] = None,
        start_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be at least 1, got {workers}")
        self.workers = workers
        self.retry = retry or RetryPolicy(max_attempts=1, backoff_seconds=0.0)
        self.fault_plan = fault_plan
        self.start_method = start_method
        self._context = (
            multiprocessing.get_context(start_method)
            if start_method
            else multiprocessing.get_context()
        )
        self._next_worker_id = 0

    # ------------------------------------------------------------------ #
    def _spawn_worker(self, workers: Dict[int, _Worker]) -> _Worker:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        tasks = self._context.Queue(_WORKER_DEPTH)
        results, sender = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_main,
            args=(worker_id, tasks, sender),
            daemon=True,
            name=f"repro-supervised-{worker_id}",
        )
        process.start()
        # The worker holds the only write end, so its death ends the pipe.
        sender.close()
        worker = workers[worker_id] = _Worker(worker_id, process, tasks, results)
        return worker

    def _replace(self, workers: Dict[int, _Worker], worker: _Worker) -> _Worker:
        worker.discard()
        del workers[worker.worker_id]
        return self._spawn_worker(workers)

    def _assign_next(self, worker: _Worker, pending: List[Tuple[Job, int]]) -> None:
        job, attempt = pending.pop()
        fault = (
            self.fault_plan.lookup(job.job_id, attempt)
            if self.fault_plan is not None
            else None
        )
        worker.assign(job, attempt, fault)

    def run(self, jobs: Sequence[Job]) -> Iterator[Union[ChainResult, JobFailure]]:
        """Execute ``jobs``, yielding an outcome per job in completion order."""
        jobs = list(jobs)
        if not jobs:
            return
        states = {job.job_id: _JobState(job) for job in jobs}
        pending: List[Tuple[Job, int]] = [(job, 1) for job in jobs]
        pending.reverse()  # treat as a stack popping from the end = FIFO order
        delayed: List[Tuple[float, Job, int]] = []
        remaining = len(jobs)

        workers: Dict[int, _Worker] = {}
        try:
            for _ in range(min(self.workers, len(jobs))):
                # A worker's first job goes out before the next worker is
                # forked, so it does not wait for the other forks.
                self._assign_next(self._spawn_worker(workers), pending)

            while remaining > 0:
                now = time.monotonic()
                # Promote retries whose backoff has elapsed.
                ready = [entry for entry in delayed if entry[0] <= now]
                if ready:
                    delayed = [entry for entry in delayed if entry[0] > now]
                    for _, job, attempt in sorted(ready, key=lambda entry: entry[0]):
                        pending.append((job, attempt))

                # Dispatch: idle workers first (replacing any that died
                # idle), then one job queued behind each started head.
                for worker in sorted(workers.values(), key=lambda w: len(w.flights)):
                    if not pending:
                        break
                    if not worker.flights:
                        if worker.is_dead():
                            worker = self._replace(workers, worker)
                    elif not worker.can_queue():
                        continue
                    self._assign_next(worker, pending)

                # Drain the result pipes (one blocking wait, then whatever
                # each ready pipe holds) so completions are never starved
                # by the liveness checks below.
                readers = {w.results: w for w in workers.values() if not w.hung_up}
                for reader in wait_for_pipes(list(readers), SUPERVISOR_TICK):
                    worker = readers[reader]
                    for message in worker.receive():
                        outcome = self._handle_message(worker, states, message, delayed)
                        if outcome is not None:
                            remaining -= 1
                            yield outcome

                # Deadlines and dead workers.
                now = time.monotonic()
                for worker in list(workers.values()):
                    if not worker.flights:
                        continue
                    crashed = worker.is_dead()
                    deadline = worker.flights[0].deadline(self.retry.timeout_seconds)
                    timed_out = deadline is not None and now > deadline
                    if not crashed and not timed_out:
                        continue
                    if crashed:
                        # The worker may have delivered results in the
                        # instant before dying; honor them over a crash record.
                        for message in worker.receive():
                            outcome = self._handle_message(
                                worker, states, message, delayed
                            )
                            if outcome is not None:
                                remaining -= 1
                                yield outcome
                        if not worker.flights:
                            # Its final messages resolved every flight after all.
                            self._replace(workers, worker)
                            continue
                        error: JobError = WorkerCrashed(
                            worker.flights[0].job.job_id, worker.process.exitcode
                        )
                    else:
                        error = JobTimeout(
                            worker.flights[0].job.job_id, self.retry.timeout_seconds
                        )
                    head, *queued = worker.flights
                    wall = time.monotonic() - head.clock_start()
                    dead_pid = worker.process.pid
                    self._replace(workers, worker)
                    # Queued jobs never ran: back to the front, same attempt.
                    for flight in reversed(queued):
                        pending.append((flight.job, flight.attempt))
                    outcome = self._attempt_failed(
                        states[head.job.job_id],
                        head.attempt,
                        type(error).__name__,
                        str(error),
                        "".join(
                            traceback_module.format_exception_only(type(error), error)
                        ),
                        wall,
                        delayed,
                        worker_pid=dead_pid,
                    )
                    if outcome is not None:
                        remaining -= 1
                        yield outcome
        finally:
            for worker in workers.values():
                if not worker.flights and worker.process.is_alive():
                    try:
                        worker.tasks.put_nowait(None)
                    except queue_module.Full:  # pragma: no cover - full-queue race
                        pass
            deadline = time.monotonic() + 1.0
            for worker in workers.values():
                worker.process.join(max(0.0, deadline - time.monotonic()))
            for worker in workers.values():
                worker.discard()

    # ------------------------------------------------------------------ #
    def _handle_message(
        self,
        worker: _Worker,
        states: Dict[str, _JobState],
        message: Tuple,
        delayed: List[Tuple[float, Job, int]],
    ) -> Optional[Union[ChainResult, JobFailure]]:
        kind, _, job_id, attempt = message[:4]
        if kind == "started":
            for flight in worker.flights:
                if flight.job.job_id == job_id and flight.attempt == attempt:
                    flight.started_at = time.monotonic()
            return None
        head = worker.flights[0] if worker.flights else None
        if head is None or head.job.job_id != job_id or head.attempt != attempt:
            return None  # stale: the attempt was already failed (e.g. timeout)
        worker.pop_head()
        state = states[job_id]
        if kind == "ok":
            result = message[4]
            state.attempts = attempt
            state.wall_seconds += result.wall_seconds
            return result
        _, _, _, _, error_type, text, traceback_text, wall = message
        return self._attempt_failed(
            state, attempt, error_type, text, traceback_text, wall,
            delayed, worker_pid=worker.process.pid,
        )

    def _attempt_failed(
        self,
        state: _JobState,
        attempt: int,
        error_type: str,
        message: str,
        traceback_text: str,
        wall_seconds: float,
        delayed: List[Tuple[float, Job, int]],
        worker_pid: Optional[int] = None,
    ) -> Optional[JobFailure]:
        """Record one failed attempt; schedule a retry or produce the failure."""
        state.attempt_failed(
            attempt, error_type, message, traceback_text, wall_seconds, worker_pid
        )
        if attempt < self.retry.max_attempts:
            delay = self.retry.backoff_before(attempt + 1, state.job.job_id)
            delayed.append((time.monotonic() + delay, state.job, attempt + 1))
            return None
        return state.to_failure()


# ---------------------------------------------------------------------- #
# In-process supervised execution (workers == 1, no timeout)
# ---------------------------------------------------------------------- #
def run_supervised_serial(
    jobs: Sequence[Job],
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[RunnerFaultPlan] = None,
) -> Iterator[Union[ChainResult, JobFailure]]:
    """Retry/quarantine semantics without worker processes.

    The serial twin of :meth:`SupervisedPool.run` for ``workers=1`` runs:
    same attempt loop, same backoff schedule, same failure records — but
    executing in-process, so it cannot preempt a stalled attempt (the
    runner promotes timeout-bearing policies onto a supervised worker
    process instead) and an ``exit`` fault genuinely exits the process,
    exactly as documented on :class:`FaultSpec`.
    """
    policy = retry or RetryPolicy(max_attempts=1, backoff_seconds=0.0)
    for job in jobs:
        state = _JobState(job)
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                time.sleep(policy.backoff_before(attempt, job.job_id))
            fault = (
                fault_plan.lookup(job.job_id, attempt)
                if fault_plan is not None
                else None
            )
            started = time.perf_counter()
            try:
                if fault is not None:
                    fault.trigger()
                result = execute_job(job)
            except Exception as exc:
                state.attempt_failed(
                    attempt,
                    type(exc).__name__,
                    str(exc),
                    traceback_module.format_exc(),
                    time.perf_counter() - started,
                    os.getpid(),
                )
            else:
                result.attempts = attempt
                yield result
                break
        else:
            yield state.to_failure()
