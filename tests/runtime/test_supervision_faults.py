"""The runner-level fault-injection harness, on real worker processes.

These tests pin the supervisor's recovery contract: whatever faults are
injected — raises, stalls past the timeout, hard ``os._exit`` worker
deaths — every job that completes is bit-identical per seed to a clean
serial run, failures carry structured records, and a checkpointed run
resumes by retrying exactly the quarantined jobs.

The full harness (worker kills under every start method) runs in the
nightly slow lane; the quick fork-based subset stays in tier 1.  A pool
worker holds one running job and one queued behind it; the queued-slot
tests pin that a crash or timeout is charged to the running job alone.
"""

import multiprocessing

import pytest

from repro.runtime import (
    EnsembleCheckpoint,
    RunnerFaultPlan,
    FaultSpec,
    RetryPolicy,
    replica_jobs,
    run_ensemble,
)
from repro.runtime.supervision import SupervisedPool

START_METHODS = [
    method
    for method in ("fork", "spawn", "forkserver")
    if method in multiprocessing.get_all_start_methods()
]


def harness_jobs(replicas=6):
    """Cheap fast-engine chains with stable ids (replica-lam4-r<k>)."""
    return replica_jobs(n=15, lam=4.0, iterations=2000, replicas=replicas, seed=11)


def assert_bit_identical(clean, recovered):
    for c, r in zip(clean, recovered):
        assert c.job.job_id == r.job.job_id
        assert c.trace.points == r.trace.points
        assert c.accepted_moves == r.accepted_moves
        assert c.rejection_counts == r.rejection_counts


class TestTier1Subset:
    def test_raise_faults_recover_on_fork_workers(self):
        """In-process raises in two workers: retried, bit-identical."""
        jobs = harness_jobs(4)
        clean = run_ensemble(jobs)
        plan = RunnerFaultPlan.build(
            FaultSpec(jobs[0].job_id, 1, "raise"),
            FaultSpec(jobs[2].job_id, 1, "raise"),
        )
        recovered = run_ensemble(
            jobs,
            workers=2,
            start_method="fork",
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.01, jitter=0.0),
            fault_plan=plan,
        )
        assert not recovered.failures
        assert_bit_identical(clean.results, recovered.results)
        assert [r.attempts for r in recovered.results] == [2, 1, 2, 1]

    def test_timeout_kills_stalled_worker_and_retries(self):
        """workers=1 with a timeout promotes to one supervised process."""
        jobs = harness_jobs(1)
        clean = run_ensemble(jobs)
        plan = RunnerFaultPlan.build(FaultSpec(jobs[0].job_id, 1, "stall", seconds=30.0))
        recovered = run_ensemble(
            jobs,
            workers=1,
            start_method="fork",
            retry=RetryPolicy(
                max_attempts=2, backoff_seconds=0.01, jitter=0.0, timeout_seconds=1.0
            ),
            fault_plan=plan,
        )
        assert not recovered.failures
        assert_bit_identical(clean.results, recovered.results)
        assert recovered.results[0].attempts == 2
        # The stalled attempt was killed at its deadline, not slept through.
        assert recovered.wall_seconds < 15.0


@pytest.mark.slow
class TestFullHarness:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_every_fault_kind_under_every_start_method(self, start_method):
        """Raise, stall-past-timeout and os._exit all recover; one job is doomed."""
        jobs = harness_jobs(6)
        clean = run_ensemble(jobs)
        doomed = jobs[3].job_id
        plan = RunnerFaultPlan.build(
            FaultSpec(jobs[0].job_id, 1, "raise"),
            FaultSpec(jobs[1].job_id, 1, "stall", seconds=60.0),
            FaultSpec(jobs[2].job_id, 1, "exit"),
            FaultSpec(doomed, 1, "raise"),
            FaultSpec(doomed, 2, "raise"),
            FaultSpec(doomed, 3, "raise"),
        )
        result = run_ensemble(
            jobs,
            workers=3,
            start_method=start_method,
            retry=RetryPolicy(
                max_attempts=3, backoff_seconds=0.01, jitter=0.0, timeout_seconds=5.0
            ),
            fault_plan=plan,
            failure_policy="quarantine",
        )
        assert result.failed_ids == [doomed]
        survivors = [job for job in jobs if job.job_id != doomed]
        assert [r.job.job_id for r in result.results] == [j.job_id for j in survivors]
        clean_by_id = {r.job.job_id: r for r in clean.results}
        assert_bit_identical(
            [clean_by_id[r.job.job_id] for r in result.results], result.results
        )
        attempts = {r.job.job_id: r.attempts for r in result.results}
        assert attempts[jobs[0].job_id] == 2  # raised once
        assert attempts[jobs[1].job_id] == 2  # killed at the timeout once
        assert attempts[jobs[2].job_id] == 2  # worker died once
        assert attempts[jobs[4].job_id] == 1
        assert attempts[jobs[5].job_id] == 1
        failure = result.failure_for(doomed)
        assert failure.attempts == 3
        assert failure.error_type == "InjectedFault"
        assert [e["error_type"] for e in failure.attempt_errors] == ["InjectedFault"] * 3
        assert "InjectedFault" in failure.traceback

    def test_crash_and_timeout_failures_carry_their_error_types(self):
        """Jobs that die the same way every attempt quarantine with the
        supervisor-side error, not a generic failure."""
        jobs = harness_jobs(3)
        plan = RunnerFaultPlan.build(
            FaultSpec(jobs[0].job_id, 1, "exit", exit_code=23),
            FaultSpec(jobs[0].job_id, 2, "exit", exit_code=23),
            FaultSpec(jobs[1].job_id, 1, "stall", seconds=60.0),
            FaultSpec(jobs[1].job_id, 2, "stall", seconds=60.0),
        )
        result = run_ensemble(
            jobs,
            workers=2,
            start_method="fork",
            retry=RetryPolicy(
                max_attempts=2, backoff_seconds=0.01, jitter=0.0, timeout_seconds=1.0
            ),
            fault_plan=plan,
            failure_policy="quarantine",
        )
        assert result.failed_ids == [jobs[0].job_id, jobs[1].job_id]
        crashed = result.failure_for(jobs[0].job_id)
        assert crashed.error_type == "WorkerCrashed"
        assert "exitcode 23" in crashed.message
        assert crashed.attempts == 2
        timed_out = result.failure_for(jobs[1].job_id)
        assert timed_out.error_type == "JobTimeout"
        assert "1s wall-clock timeout" in timed_out.message
        assert timed_out.attempts == 2
        assert timed_out.wall_seconds >= 1.5  # two attempts, each ~timeout long
        # The untouched job completed normally alongside the carnage.
        assert [r.job.job_id for r in result.results] == [jobs[2].job_id]
        assert result.results[0].attempts == 1

    def test_checkpointed_quarantine_resumes_across_processes(self, tmp_path):
        """Quarantine docs written by a parallel run drive the resume."""
        jobs = harness_jobs(4)
        doomed = jobs[1].job_id
        plan = RunnerFaultPlan.build(
            FaultSpec(doomed, 1, "exit"), FaultSpec(doomed, 2, "exit")
        )
        retry = RetryPolicy(max_attempts=2, backoff_seconds=0.01, jitter=0.0,
                            timeout_seconds=10.0)
        first = run_ensemble(
            jobs,
            workers=2,
            start_method="fork",
            checkpoint=tmp_path,
            retry=retry,
            fault_plan=plan,
            failure_policy="quarantine",
        )
        assert first.failed_ids == [doomed]
        assert EnsembleCheckpoint(tmp_path).quarantined_ids() == [doomed]

        resumed = run_ensemble(
            jobs,
            workers=2,
            start_method="fork",
            checkpoint=tmp_path,
            retry=retry,
            failure_policy="quarantine",
        )
        assert not resumed.failures
        assert resumed.loaded_from_checkpoint == 3
        assert resumed.executed == 1
        assert EnsembleCheckpoint(tmp_path).quarantined_ids() == []
        clean = run_ensemble(jobs)
        assert_bit_identical(clean.results, resumed.results)


@pytest.mark.slow
@pytest.mark.parametrize("start_method", START_METHODS)
class TestQueuedSlot:
    """One worker (``workers=1`` with a timeout runs on one pool worker), so
    the second job is queued behind the first."""

    def test_worker_exit_spares_the_queued_job(self, start_method):
        """The running job's worker exits: the queued job completes on a
        replacement, on its first attempt, with no error entry."""
        jobs = harness_jobs(2)
        clean = run_ensemble(jobs)
        result = run_ensemble(
            jobs,
            workers=1,
            start_method=start_method,
            retry=RetryPolicy(max_attempts=1, timeout_seconds=60.0),
            fault_plan=RunnerFaultPlan.build(FaultSpec(jobs[0].job_id, 1, "exit")),
            failure_policy="quarantine",
        )
        assert result.failed_ids == [jobs[0].job_id]
        crashed = result.failure_for(jobs[0].job_id)
        assert [e["error_type"] for e in crashed.attempt_errors] == ["WorkerCrashed"]
        assert [r.job.job_id for r in result.results] == [jobs[1].job_id]
        assert result.results[0].attempts == 1
        assert_bit_identical(clean.results[1:], result.results)

    def test_exit_after_a_finished_job_is_charged_to_the_exiting_job(
        self, start_method
    ):
        """Every other job exits as it starts, right after the job before it
        finished on the same worker: each finished job keeps its result.
        The outcome must have left the worker before the next job starts;
        four exits give a lost outcome four chances to show."""
        jobs = harness_jobs(8)
        doomed, kept = jobs[1::2], jobs[0::2]
        result = run_ensemble(
            jobs,
            workers=1,
            start_method=start_method,
            retry=RetryPolicy(max_attempts=1, timeout_seconds=60.0),
            fault_plan=RunnerFaultPlan.build(
                *(FaultSpec(job.job_id, 1, "exit") for job in doomed)
            ),
            failure_policy="quarantine",
        )
        assert result.failed_ids == [job.job_id for job in doomed]
        for job in doomed:
            errors = result.failure_for(job.job_id).attempt_errors
            assert [e["error_type"] for e in errors] == ["WorkerCrashed"]
        assert [r.job.job_id for r in result.results] == [job.job_id for job in kept]
        assert [r.attempts for r in result.results] == [1] * len(kept)

    def test_timeout_charges_only_the_stalled_job(self, start_method):
        jobs = harness_jobs(2)
        result = run_ensemble(
            jobs,
            workers=1,
            start_method=start_method,
            retry=RetryPolicy(max_attempts=1, timeout_seconds=1.5),
            fault_plan=RunnerFaultPlan.build(
                FaultSpec(jobs[0].job_id, 1, "stall", seconds=60.0)
            ),
            failure_policy="quarantine",
        )
        assert result.failed_ids == [jobs[0].job_id]
        timed_out = result.failure_for(jobs[0].job_id)
        assert [e["error_type"] for e in timed_out.attempt_errors] == ["JobTimeout"]
        assert [r.job.job_id for r in result.results] == [jobs[1].job_id]
        assert result.results[0].attempts == 1

    def test_replacement_boot_is_not_charged_to_the_retry(self, start_method, monkeypatch):
        """Attempt 1 stalls past a 0.5 s timeout.  Attempt 2 runs on a
        replacement worker, which under spawn or forkserver takes about
        as long as the timeout to boot; its clock starts at its
        ``started`` ack, so it completes, charged nothing."""
        charged = []
        attempt_failed = SupervisedPool._attempt_failed

        def spy(pool, state, attempt, error_type, *args, **kwargs):
            charged.append((attempt, error_type))
            return attempt_failed(pool, state, attempt, error_type, *args, **kwargs)

        monkeypatch.setattr(SupervisedPool, "_attempt_failed", spy)
        jobs = harness_jobs(1)
        clean = run_ensemble(jobs)
        result = run_ensemble(
            jobs,
            workers=1,
            start_method=start_method,
            retry=RetryPolicy(
                max_attempts=3, backoff_seconds=0.01, jitter=0.0, timeout_seconds=0.5
            ),
            fault_plan=RunnerFaultPlan.build(
                FaultSpec(jobs[0].job_id, 1, "stall", seconds=60.0)
            ),
            failure_policy="quarantine",
        )
        assert not result.failures
        assert [r.attempts for r in result.results] == [2]
        assert charged == [(1, "JobTimeout")]
        assert_bit_identical(clean.results, result.results)

    def test_queued_job_clock_starts_when_it_runs(self, start_method):
        """Each job stalls 1 s under a 1.6 s timeout.  The second waits
        ~1 s queued, so a clock started at dispatch would kill it."""
        jobs = harness_jobs(2)
        plan = RunnerFaultPlan.build(
            *(FaultSpec(job.job_id, 1, "stall", seconds=1.0) for job in jobs)
        )
        result = run_ensemble(
            jobs,
            workers=1,
            start_method=start_method,
            retry=RetryPolicy(max_attempts=1, timeout_seconds=1.6),
            fault_plan=plan,
            failure_policy="quarantine",
        )
        assert not result.failures
        assert [r.attempts for r in result.results] == [1, 1]

    def test_two_workers_match_the_serial_run(self, start_method):
        jobs = harness_jobs(10)
        clean = run_ensemble(jobs)
        pooled = run_ensemble(jobs, workers=2, start_method=start_method)
        assert [r.attempts for r in pooled.results] == [1] * len(jobs)
        assert_bit_identical(clean.results, pooled.results)
