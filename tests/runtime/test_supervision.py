"""Tests for the supervised runtime: policies, retries, quarantine, partials.

Everything here runs in-process or on fork workers and is cheap enough
for tier 1; the multiprocess fault-injection harness (worker kills,
supervisor timeouts under every start method) lives in
``test_supervision_faults.py``.
"""

import multiprocessing
import os
import pickle
import struct

import pytest

from repro.errors import ConfigurationError, EnsembleAborted
from repro.runtime import (
    EnsembleRunner,
    RunnerFaultPlan,
    FaultSpec,
    InjectedFault,
    JobFailure,
    RetryPolicy,
    SupervisedPool,
    replica_jobs,
    run_ensemble,
)
from repro.runtime.supervision import _Worker, _worker_main, validate_failure_policy


def small_jobs(replicas=3):
    """Cheap fast-engine chains with stable ids (replica-lam4-r<k>)."""
    return replica_jobs(n=15, lam=4.0, iterations=2000, replicas=replicas, seed=3)


def fail_always(job_id, max_attempts):
    """A plan that makes every attempt of one job raise."""
    return RunnerFaultPlan.build(
        *(FaultSpec(job_id, attempt, "raise") for attempt in range(1, max_attempts + 1))
    )


QUICK_RETRY = RetryPolicy(max_attempts=2, backoff_seconds=0.001, jitter=0.0)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_seconds=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=-0.01)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_seconds=0.0)

    def test_first_attempt_never_waits(self):
        assert RetryPolicy().backoff_before(1, "job") == 0.0

    def test_backoff_grows_exponentially_without_jitter(self):
        policy = RetryPolicy(
            max_attempts=4, backoff_seconds=0.2, backoff_multiplier=3.0, jitter=0.0
        )
        assert policy.backoff_before(2, "j") == pytest.approx(0.2)
        assert policy.backoff_before(3, "j") == pytest.approx(0.6)
        assert policy.backoff_before(4, "j") == pytest.approx(1.8)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_seconds=1.0, backoff_multiplier=1.0, jitter=0.25)
        delays = [policy.backoff_before(2, "job-a") for _ in range(3)]
        assert delays[0] == delays[1] == delays[2]
        assert 1.0 <= delays[0] < 1.25
        # Different jobs, attempts and seeds jitter differently — the
        # schedule is a function of (seed, job_id, attempt), not shared.
        assert policy.backoff_before(2, "job-b") != delays[0]
        assert policy.backoff_before(3, "job-a") != delays[0]
        reseeded = RetryPolicy(
            backoff_seconds=1.0, backoff_multiplier=1.0, jitter=0.25, seed=1
        )
        assert reseeded.backoff_before(2, "job-a") != delays[0]

    def test_failure_policy_validation(self):
        assert validate_failure_policy("raise") == "raise"
        assert validate_failure_policy("quarantine") == "quarantine"
        with pytest.raises(ConfigurationError):
            validate_failure_policy("retry-forever")
        with pytest.raises(ConfigurationError):
            EnsembleRunner(failure_policy="ignore")


class TestRunnerFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("j", 1, "explode")
        with pytest.raises(ConfigurationError):
            FaultSpec("j", 0, "raise")
        with pytest.raises(ConfigurationError):
            FaultSpec("j", 1, "stall", seconds=0.0)

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ConfigurationError):
            RunnerFaultPlan.build(FaultSpec("j", 1, "raise"), FaultSpec("j", 1, "stall"))

    def test_lookup(self):
        plan = RunnerFaultPlan.build(
            FaultSpec("a", 1, "raise"), FaultSpec("a", 2, "stall"), FaultSpec("b", 1, "exit")
        )
        assert plan.lookup("a", 1).action == "raise"
        assert plan.lookup("a", 2).action == "stall"
        assert plan.lookup("b", 2) is None
        assert plan.lookup("c", 1) is None

    def test_raise_trigger(self):
        with pytest.raises(InjectedFault, match="job 'j' attempt 2"):
            FaultSpec("j", 2, "raise").trigger()


class TestSerialSupervision:
    def test_retry_recovers_bit_identically(self):
        """A job whose first attempt raises retries and matches a clean run."""
        jobs = small_jobs()
        clean = run_ensemble(jobs)
        plan = RunnerFaultPlan.build(FaultSpec(jobs[1].job_id, 1, "raise"))
        faulted = run_ensemble(jobs, retry=QUICK_RETRY, fault_plan=plan)
        assert not faulted.failures
        for c, f in zip(clean.results, faulted.results):
            assert c.trace.points == f.trace.points
            assert c.accepted_moves == f.accepted_moves
            assert c.rejection_counts == f.rejection_counts
        assert [r.attempts for r in faulted.results] == [1, 2, 1]
        assert faulted.table.column("status") == ["ok", "ok", "ok"]
        assert faulted.table.column("attempts") == [1, 2, 1]

    def test_quarantine_completes_with_failure_records(self):
        jobs = small_jobs()
        doomed = jobs[1].job_id
        result = run_ensemble(
            jobs,
            retry=QUICK_RETRY,
            fault_plan=fail_always(doomed, QUICK_RETRY.max_attempts),
            failure_policy="quarantine",
        )
        assert [r.job.job_id for r in result.results] == [jobs[0].job_id, jobs[2].job_id]
        assert result.failed_ids == [doomed]
        failure = result.failure_for(doomed)
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "InjectedFault"
        assert failure.attempts == 2
        assert [e["attempt"] for e in failure.attempt_errors] == [1, 2]
        assert "InjectedFault" in failure.traceback
        with pytest.raises(KeyError):
            result.failure_for(jobs[0].job_id)
        # The table interleaves both kinds in submission order and the
        # ok()/failed() views split them.
        assert result.table.column("status") == ["ok", "failed", "ok"]
        assert len(result.table.ok()) == 2
        failed_rows = result.table.failed()
        assert len(failed_rows) == 1
        assert failed_rows.rows[0]["job_id"] == doomed
        assert failed_rows.rows[0]["error_type"] == "InjectedFault"
        assert failed_rows.rows[0]["attempts"] == 2

    def test_raise_policy_aborts_with_partial_results(self):
        jobs = small_jobs()
        plan = fail_always(jobs[1].job_id, QUICK_RETRY.max_attempts)
        with pytest.raises(EnsembleAborted, match="2 attempt") as excinfo:
            run_ensemble(jobs, retry=QUICK_RETRY, fault_plan=plan)
        error = excinfo.value
        assert [f.job.job_id for f in error.failures] == [jobs[1].job_id]
        partial = error.partial
        assert partial is not None
        assert [r.job.job_id for r in partial.results] == [jobs[0].job_id]
        assert partial.table.column("status") == ["ok", "failed"]

    def test_callbacks_and_progress_count_failures(self):
        jobs = small_jobs()
        doomed = jobs[0].job_id
        failures, reports = [], []
        run_ensemble(
            jobs,
            retry=QUICK_RETRY,
            fault_plan=fail_always(doomed, QUICK_RETRY.max_attempts),
            failure_policy="quarantine",
            on_failure=failures.append,
            on_progress=reports.append,
        )
        assert [f.job.job_id for f in failures] == [doomed]
        assert [p.completed for p in reports] == [1, 2, 3]
        assert [p.failed for p in reports] == [1, 1, 1]
        # Failed attempts are executed work: the ETA must account for them.
        assert all(p.eta_seconds is not None for p in reports)
        assert reports[-1].eta_seconds == 0.0

    def test_default_policy_aborts_with_the_failure_record(self, monkeypatch, tmp_path):
        """``failure_policy="raise"`` without a retry policy: the abort
        carries the structured failure, and the checkpoint keeps it for a
        re-run to retry."""
        from repro.runtime import EnsembleCheckpoint, supervision

        jobs = small_jobs()
        doomed = jobs[1].job_id
        real_execute = supervision.execute_job

        def explode(job):
            if job.job_id == doomed:
                raise OSError("disk on fire")
            return real_execute(job)

        monkeypatch.setattr(supervision, "execute_job", explode)
        with pytest.raises(EnsembleAborted, match="1 attempt") as excinfo:
            run_ensemble(jobs, checkpoint=tmp_path)
        error = excinfo.value
        assert [f.job.job_id for f in error.failures] == [doomed]
        failure = error.failures[0]
        assert isinstance(failure, JobFailure)
        assert failure.attempts == 1
        assert failure.error_type == "OSError"
        assert failure.message == "disk on fire"
        assert [r.job.job_id for r in error.partial.results] == [jobs[0].job_id]
        cp = EnsembleCheckpoint(tmp_path)
        assert cp.quarantined_ids() == [doomed]
        assert cp.load_failure(jobs[1]).error_type == "OSError"

        # A clean re-run resumes the completed job and retries the failed one.
        monkeypatch.undo()
        resumed = run_ensemble(jobs, checkpoint=tmp_path)
        assert resumed.loaded_from_checkpoint == 1
        assert resumed.executed == 2
        assert not resumed.failures
        assert cp.quarantined_ids() == []


class TestAbortAttachesPartial:
    def test_infrastructure_error_wraps_with_partial(self, monkeypatch, tmp_path):
        """A mid-run crash must surface everything that did complete."""
        from repro.runtime import EnsembleCheckpoint

        jobs = small_jobs()
        real_store = EnsembleCheckpoint.store
        calls = []

        def explode_on_second(self, result):
            calls.append(result.job.job_id)
            if len(calls) == 2:
                raise OSError("disk on fire")
            return real_store(self, result)

        monkeypatch.setattr(EnsembleCheckpoint, "store", explode_on_second)
        with pytest.raises(EnsembleAborted, match="disk on fire") as excinfo:
            run_ensemble(jobs, checkpoint=tmp_path)
        error = excinfo.value
        assert isinstance(error.__cause__, OSError)
        assert [r.job.job_id for r in error.partial.results] == [jobs[0].job_id]
        # The completed job was checkpointed before the abort: a clean
        # rerun resumes it instead of recomputing.
        monkeypatch.undo()
        resumed = run_ensemble(jobs, checkpoint=tmp_path)
        assert resumed.loaded_from_checkpoint == 1
        assert len(resumed.results) == len(jobs)


class TestQuarantineCheckpoint:
    def test_resume_retries_exactly_the_quarantined_jobs(self, tmp_path):
        jobs = small_jobs()
        doomed = jobs[2].job_id
        checkpoint = tmp_path / "cp"
        first = run_ensemble(
            jobs,
            checkpoint=checkpoint,
            retry=QUICK_RETRY,
            fault_plan=fail_always(doomed, QUICK_RETRY.max_attempts),
            failure_policy="quarantine",
        )
        assert first.failed_ids == [doomed]

        from repro.runtime import EnsembleCheckpoint

        cp = EnsembleCheckpoint(checkpoint)
        assert cp.quarantined_ids() == [doomed]
        assert cp.load_failure(jobs[2]).error_type == "InjectedFault"

        # Same ensemble, faults gone (the transient cleared): only the
        # quarantined job runs, and its success overwrites the failure doc.
        resumed = run_ensemble(
            jobs, checkpoint=checkpoint, retry=QUICK_RETRY, failure_policy="quarantine"
        )
        assert not resumed.failures
        assert resumed.loaded_from_checkpoint == 2
        assert resumed.executed == 1
        assert cp.quarantined_ids() == []
        assert cp.load_failure(jobs[2]) is None
        clean = run_ensemble(jobs)
        retried = resumed.result_for(doomed)
        assert retried.trace.points == clean.result_for(doomed).trace.points


class TestSupervisedPool:
    def test_worker_count_validation(self):
        with pytest.raises(ConfigurationError):
            SupervisedPool(workers=0)

    def test_empty_job_list_yields_nothing(self):
        assert list(SupervisedPool(workers=2).run([])) == []

    def test_stalled_worker_acks_start_then_reports_ok(self):
        """A worker busy past a stall still speaks the protocol: ``started``
        on assignment, then ``ok`` for the first attempt."""
        ctx = multiprocessing.get_context("fork")
        tasks = ctx.Queue(1)
        results, sender = ctx.Pipe(duplex=False)
        process = ctx.Process(target=_worker_main, args=(0, tasks, sender), daemon=True)
        process.start()
        sender.close()
        try:
            job = small_jobs(1)[0]
            tasks.put((job, 1, FaultSpec(job.job_id, 1, "stall", seconds=0.3)))
            assert results.poll(10.0)
            assert results.recv()[0] == "started"
            assert results.poll(10.0)
            kind, _, job_id, attempt, result = results.recv()
            assert (kind, job_id, attempt) == ("ok", job.job_id, 1)
            assert result.attempts == 1
            tasks.put(None)
            process.join(5.0)
            assert process.exitcode == 0
        finally:
            if process.is_alive():
                process.terminate()
                process.join(1.0)

    def test_messages_sent_before_a_death_are_read_and_a_cut_one_is_dropped(self):
        """A worker's pipe keeps what was sent whole after the worker is
        gone; a message cut short by the death ends the read instead of
        blocking it."""
        results, sender = multiprocessing.Pipe(duplex=False)
        sent = ("ok", 0, "job-a", 1, {"payload": list(range(100))})
        sender.send(sent)
        header = struct.pack("!i", 4096)
        os.write(sender.fileno(), header + pickle.dumps(sent)[:64])
        sender.close()
        worker = _Worker(0, None, None, results)
        assert worker.receive() == [sent]
        assert worker.hung_up
        results.close()
