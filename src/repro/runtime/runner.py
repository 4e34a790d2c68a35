"""The ensemble runner: many independent chains, one entry point.

:class:`EnsembleRunner` executes a list of job descriptions (see
:mod:`repro.runtime.jobs`) through the supervised layer of
:mod:`repro.runtime.supervision`: in-process for ``workers=1``, on a
:class:`~repro.runtime.supervision.SupervisedPool` of worker processes
otherwise.  There is one execution path, so every run gets the same
failure contract.  Four properties define the design:

* **Determinism.**  Every job carries its own plain-integer seed and spawns
  its own :class:`repro.rng.BatchedMoveDraws` tape inside the worker, so a
  chain's trajectory is a pure function of its job.  Results are re-ordered
  to submission order before they are returned, so a 4-worker run returns
  byte-identical per-seed results — traces, counters, tables — to a serial
  run of the same ensemble (enforced by ``tests/runtime/test_ensemble.py``).
* **Streaming.**  Completed results are delivered as they finish: persisted
  to the optional :class:`~repro.runtime.checkpoint.EnsembleCheckpoint` and
  handed to the optional ``on_result`` callback, then folded into the
  shared :class:`~repro.runtime.results.ResultsTable` in submission order.
* **Resumability.**  With a checkpoint directory, already-completed jobs
  are loaded (after fingerprint validation) instead of re-run, so a killed
  lambda sweep continues where it left off.
* **Fault tolerance.**  A job that raises leaves a structured
  :class:`~repro.runtime.supervision.JobFailure` record, persisted to the
  checkpoint as a ``job_failure`` document so a re-run retries it.  An
  optional :class:`~repro.runtime.supervision.RetryPolicy` retries failing
  attempts with deterministic backoff and kills attempts at their timeout;
  pool workers that die are replaced.  Under the default
  ``failure_policy="raise"`` a job that exhausts its attempts aborts the
  run with :class:`~repro.errors.EnsembleAborted`, whose ``failures`` hold
  the record and whose ``partial`` holds the :class:`EnsembleResult` of
  everything that did complete.  Under ``failure_policy="quarantine"`` the
  run completes and the records land in :attr:`EnsembleResult.failures`.

The module-level helpers :func:`run_ensemble` (and the job builders in
:mod:`repro.runtime.jobs`) are the intended user surface; analysis-layer
sweeps (:func:`repro.analysis.experiments.run_lambda_sweep`,
:func:`repro.analysis.convergence.scaling_study`) submit through here
rather than hand-rolling loops.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.errors import ConfigurationError, EnsembleAborted
from repro.runtime.checkpoint import EnsembleCheckpoint, PathLike
# ``execute_job`` stays importable from here as well as from the
# supervision module, which looks it up at call time, so instrumentation
# can wrap the job entry point on either module.
from repro.runtime.jobs import ChainResult, Job, execute_job  # noqa: F401
from repro.runtime.results import ResultsTable
from repro.runtime.supervision import (
    JobFailure,
    RetryPolicy,
    RunnerFaultPlan,
    SupervisedPool,
    run_supervised_serial,
    validate_failure_policy,
)


def usable_cores() -> int:
    """Cores this process may actually run on (affinity-aware, at least 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def default_workers(limit: int = 8) -> int:
    """A sensible worker count for this machine: usable cores, capped."""
    return max(1, min(limit, usable_cores()))


@dataclass(frozen=True)
class EnsembleProgress:
    """One progress report from a running ensemble.

    Delivered to ``on_progress`` once per completed job (checkpoint
    restores included), in the order completions happen.  ``eta_seconds``
    is the classic remaining-work estimate ``elapsed / completed *
    remaining``; it is ``None`` until at least one job has completed
    within the current run (i.e. while everything so far came from the
    checkpoint in negligible time).

    Attributes
    ----------
    completed:
        Number of jobs finished so far (including this one).
    total:
        Number of jobs in the ensemble.
    job_id:
        Id of the job whose completion triggered this report.
    elapsed_seconds:
        Wall-clock time since the ensemble started.
    eta_seconds:
        Estimated wall-clock time until the ensemble finishes.
    """

    completed: int
    total: int
    job_id: str
    elapsed_seconds: float
    eta_seconds: Optional[float]
    #: Jobs resolved as quarantined failures so far (always 0 outside
    #: ``failure_policy="quarantine"``).
    failed: int = 0


@dataclass
class EnsembleResult:
    """Everything an ensemble run produced, in submission order.

    ``results`` holds the successful chains; under
    ``failure_policy="quarantine"`` the jobs that exhausted their attempts
    appear in ``failures`` instead (both in submission order, and both
    flattened into ``table`` with ``status``/``attempts`` columns).
    """

    jobs: List[Job]
    results: List[ChainResult]
    workers: int
    wall_seconds: float
    loaded_from_checkpoint: int = 0
    table: ResultsTable = field(default_factory=ResultsTable)
    failures: List[JobFailure] = field(default_factory=list)

    def result_for(self, job_id: str) -> ChainResult:
        """Look up one chain's result by job id."""
        for result in self.results:
            if result.job.job_id == job_id:
                return result
        raise KeyError(job_id)

    def failure_for(self, job_id: str) -> JobFailure:
        """Look up one quarantined job's failure record by job id."""
        for failure in self.failures:
            if failure.job.job_id == job_id:
                return failure
        raise KeyError(job_id)

    @property
    def failed_ids(self) -> List[str]:
        """Ids of the quarantined jobs, in submission order."""
        return [failure.job.job_id for failure in self.failures]

    @property
    def executed(self) -> int:
        """How many jobs ran to completion (as opposed to resuming from checkpoint)."""
        return len(self.results) - self.loaded_from_checkpoint


class EnsembleRunner:
    """Execute independent chain jobs serially or across worker processes.

    Parameters
    ----------
    workers:
        Number of jobs run at once.  ``1`` (default) runs the jobs one
        after another in this process, unless ``retry`` sets a timeout;
        anything more runs them on a :class:`SupervisedPool` of that many
        worker processes (capped at the number of pending jobs).
        Oversubscribing the machine is allowed but pointless — use
        :func:`default_workers` to match the hardware.
    checkpoint:
        Optional checkpoint directory (or :class:`EnsembleCheckpoint`); see
        :mod:`repro.runtime.checkpoint`.
    start_method:
        Optional ``multiprocessing`` start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``) of the pool workers; defaults to the platform
        default.  Results are identical under any of them — that is the
        point of the design.
    retry:
        Optional :class:`~repro.runtime.supervision.RetryPolicy`; the
        default is one attempt per job and no timeout.  A policy with
        ``timeout_seconds`` always runs on worker processes — with
        ``workers=1`` a single supervised worker — because preempting a
        stalled job requires process isolation.
    failure_policy:
        ``"raise"`` (default): a job exhausting its attempts aborts the
        run with :class:`~repro.errors.EnsembleAborted` carrying its
        :class:`~repro.runtime.supervision.JobFailure` record in
        ``failures`` and the partial result in ``partial``.
        ``"quarantine"``: the run completes, failed jobs become records in
        :attr:`EnsembleResult.failures`.  Under either policy the record is
        persisted to the checkpoint, so resuming retries exactly those
        jobs.
    fault_plan:
        Optional :class:`~repro.runtime.supervision.RunnerFaultPlan` injected
        into workers — the runner-level fault-injection harness.
    """

    def __init__(
        self,
        workers: int = 1,
        checkpoint: Optional[Union[PathLike, EnsembleCheckpoint]] = None,
        start_method: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        failure_policy: str = "raise",
        fault_plan: Optional[RunnerFaultPlan] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be at least 1, got {workers}")
        self.workers = workers
        self.start_method = start_method
        self.retry = retry
        self.failure_policy = validate_failure_policy(failure_policy)
        self.fault_plan = fault_plan
        if checkpoint is None or isinstance(checkpoint, EnsembleCheckpoint):
            self.checkpoint = checkpoint
        else:
            self.checkpoint = EnsembleCheckpoint(checkpoint)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        jobs: Sequence[Job],
        on_result: Optional[Callable[[ChainResult], None]] = None,
        on_progress: Optional[Callable[[EnsembleProgress], None]] = None,
        on_failure: Optional[Callable[[JobFailure], None]] = None,
    ) -> EnsembleResult:
        """Run an ensemble to completion and return ordered results.

        ``on_result`` is called once per job as its result becomes
        available (completion order, not submission order) — including for
        results restored from the checkpoint.  ``on_failure`` is called
        once per quarantined job.  ``on_progress`` is called at the same
        cadence with an :class:`EnsembleProgress` carrying
        completed/total/failed counts and an ETA estimate.

        If execution cannot finish — a job fails under
        ``failure_policy="raise"``, or the worker infrastructure itself
        errors — the raised :class:`~repro.errors.EnsembleAborted` carries
        everything that *did* complete as ``.partial`` (an
        :class:`EnsembleResult`); completed work is never silently lost.
        """
        jobs = list(jobs)
        seen: Dict[str, Job] = {}
        for job in jobs:
            if job.job_id in seen:
                raise ConfigurationError(f"duplicate job_id {job.job_id!r} in ensemble")
            seen[job.job_id] = job

        started = time.perf_counter()
        total = len(jobs)
        completed = 0
        executed = 0
        failed = 0

        def report(outcome: Union[ChainResult, JobFailure]) -> None:
            nonlocal completed, executed, failed
            completed += 1
            is_failure = isinstance(outcome, JobFailure)
            if is_failure:
                failed += 1
                executed += 1  # the attempts ran; they count as work done
                if on_failure is not None:
                    on_failure(outcome)
            else:
                if not outcome.from_checkpoint:
                    executed += 1
                if on_result is not None:
                    on_result(outcome)
            if on_progress is not None:
                elapsed = time.perf_counter() - started
                eta: Optional[float] = None
                if executed and completed < total:
                    eta = elapsed / executed * (total - completed)
                elif completed >= total:
                    eta = 0.0
                on_progress(
                    EnsembleProgress(
                        completed=completed,
                        total=total,
                        job_id=outcome.job.job_id,
                        elapsed_seconds=elapsed,
                        eta_seconds=eta,
                        failed=failed,
                    )
                )

        by_id: Dict[str, ChainResult] = {}
        failures_by_id: Dict[str, JobFailure] = {}

        def build_result() -> EnsembleResult:
            ordered = [by_id[job.job_id] for job in jobs if job.job_id in by_id]
            ordered_failures = [
                failures_by_id[job.job_id] for job in jobs if job.job_id in failures_by_id
            ]
            table_outcomes = [
                by_id.get(job.job_id) or failures_by_id.get(job.job_id)
                for job in jobs
            ]
            return EnsembleResult(
                jobs=jobs,
                results=ordered,
                workers=self.workers,
                wall_seconds=time.perf_counter() - started,
                loaded_from_checkpoint=sum(1 for r in ordered if r.from_checkpoint),
                table=ResultsTable.from_results(
                    [outcome for outcome in table_outcomes if outcome is not None]
                ),
                failures=ordered_failures,
            )

        if self.checkpoint is not None:
            by_id.update(self.checkpoint.load_completed(jobs))
            for result in by_id.values():
                report(result)
        pending = [job for job in jobs if job.job_id not in by_id]

        try:
            for outcome in self._execute(pending):
                if isinstance(outcome, JobFailure):
                    if self.checkpoint is not None:
                        self.checkpoint.store_failure(outcome)
                    if self.failure_policy == "raise":
                        failures_by_id[outcome.job.job_id] = outcome
                        error = EnsembleAborted(
                            f"job {outcome.job.job_id!r} failed after "
                            f"{outcome.attempts} attempt(s) with "
                            f"{outcome.error_type}: {outcome.message} "
                            f"({len(by_id)}/{total} jobs completed; partial "
                            f"results attached)"
                        )
                        error.failures = [outcome]
                        raise error
                    failures_by_id[outcome.job.job_id] = outcome
                    report(outcome)
                else:
                    if self.checkpoint is not None:
                        self.checkpoint.store(outcome)
                    by_id[outcome.job.job_id] = outcome
                    report(outcome)
        except EnsembleAborted as error:
            error.partial = build_result()
            raise
        except Exception as exc:
            # Infrastructure failures (a pool crash, a serialization error
            # in a worker, an unpicklable result) must not discard the
            # checkpointed work the run already finished.
            error = EnsembleAborted(
                f"ensemble aborted after {len(by_id)}/{total} jobs: "
                f"{type(exc).__name__}: {exc} (partial results attached)"
            )
            error.partial = build_result()
            raise error from exc

        return build_result()

    def _execute(self, pending: Sequence[Job]):
        """Yield outcomes (``ChainResult`` or ``JobFailure``) as jobs complete.

        ``workers=1`` without a timeout runs in-process; everything else
        runs on a :class:`SupervisedPool`.
        """
        timeout = self.retry is not None and self.retry.timeout_seconds is not None
        if self.workers == 1 and not timeout:
            yield from run_supervised_serial(
                pending, retry=self.retry, fault_plan=self.fault_plan
            )
        elif pending:
            pool = SupervisedPool(
                workers=min(self.workers, len(pending)),
                retry=self.retry,
                fault_plan=self.fault_plan,
                start_method=self.start_method,
            )
            yield from pool.run(pending)


def run_ensemble(
    jobs: Sequence[Job],
    workers: int = 1,
    checkpoint: Optional[Union[PathLike, EnsembleCheckpoint]] = None,
    on_result: Optional[Callable[[ChainResult], None]] = None,
    on_progress: Optional[Callable[[EnsembleProgress], None]] = None,
    start_method: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    failure_policy: str = "raise",
    fault_plan: Optional[RunnerFaultPlan] = None,
    on_failure: Optional[Callable[[JobFailure], None]] = None,
) -> EnsembleResult:
    """One-call convenience wrapper around :class:`EnsembleRunner`."""
    runner = EnsembleRunner(
        workers=workers,
        checkpoint=checkpoint,
        start_method=start_method,
        retry=retry,
        failure_policy=failure_policy,
        fault_plan=fault_plan,
    )
    return runner.run(
        jobs, on_result=on_result, on_progress=on_progress, on_failure=on_failure
    )
