"""Checkpoint/resume tests: round-trips, exact resume, stale-directory refusal."""

import dataclasses
import json

import pytest

from repro.errors import SerializationError
from repro.runtime import (
    EnsembleCheckpoint,
    JobFailure,
    chain_result_from_json,
    chain_result_to_json,
    job_failure_from_json,
    job_failure_to_json,
    job_from_json,
    job_to_json,
    lambda_sweep_jobs,
    run_ensemble,
    run_job,
)


def sweep_jobs():
    return lambda_sweep_jobs(n=15, lambdas=[2.0, 5.0], iterations=2000, seed=3, replicas=2)


class TestSerializationRoundTrip:
    def test_job_roundtrip_is_lossless(self):
        for job in sweep_jobs():
            payload = json.loads(json.dumps(job_to_json(job)))
            assert job_from_json(payload) == job

    def test_job_roundtrip_with_explicit_nodes(self):
        from repro.runtime import ChainJob

        job = ChainJob(
            job_id="tri",
            lam=3.0,
            seed=1,
            initial_nodes=((0, 0), (1, 0), (0, 1)),
            kind="compression_time",
            alpha=2.0,
            max_iterations=500,
        )
        assert job_from_json(json.loads(json.dumps(job_to_json(job)))) == job

    def test_result_roundtrip_is_lossless(self):
        result = run_job(sweep_jobs()[0])
        payload = json.loads(json.dumps(chain_result_to_json(result)))
        loaded = chain_result_from_json(payload)
        assert loaded.job == result.job
        assert loaded.trace.points == result.trace.points
        assert loaded.iterations == result.iterations
        assert loaded.accepted_moves == result.accepted_moves
        assert loaded.rejection_counts == result.rejection_counts
        assert loaded.compression_time == result.compression_time

    def test_malformed_payloads_rejected(self):
        with pytest.raises(SerializationError):
            chain_result_from_json({"kind": "something_else"})
        with pytest.raises(SerializationError):
            job_from_json({"job_id": "x"})

    def test_invalid_job_fields_surface_as_serialization_error(self):
        """ChainJob validation failures inside a document must not leak ConfigurationError."""
        good = job_to_json(sweep_jobs()[0])
        for corruption in ({"engine": "warp"}, {"kind": "nope"}, {"iterations": -1}):
            with pytest.raises(SerializationError):
                job_from_json({**good, **corruption})

    def test_tuple_metadata_resumes_cleanly(self, tmp_path):
        """JSON normalizes tuples to lists; the fingerprint must not care."""
        from repro.runtime import ChainJob

        job = ChainJob(
            job_id="meta", lam=4.0, seed=0, n=10, iterations=50,
            metadata={"window": (1, 2)},
        )
        run_ensemble([job], checkpoint=tmp_path)
        resumed = run_ensemble([job], checkpoint=tmp_path)
        assert resumed.loaded_from_checkpoint == 1

    def test_non_serializable_metadata_fails_loudly(self):
        from repro.runtime import ChainJob

        job = ChainJob(
            job_id="bad-meta", lam=4.0, seed=0, n=10, iterations=50,
            metadata={"tags": {"a"}},
        )
        with pytest.raises(SerializationError):
            job_to_json(job)


class TestCheckpointResume:
    def test_resume_skips_completed_and_is_bit_identical(self, tmp_path):
        jobs = sweep_jobs()
        baseline = run_ensemble(jobs, workers=1)

        # Simulate an interrupted run: only half the ensemble completed.
        partial = run_ensemble(jobs[:2], workers=1, checkpoint=tmp_path)
        assert partial.loaded_from_checkpoint == 0
        assert sorted(EnsembleCheckpoint(tmp_path).completed_ids()) == sorted(
            job.job_id for job in jobs[:2]
        )

        resumed = run_ensemble(jobs, workers=4, checkpoint=tmp_path)
        assert resumed.loaded_from_checkpoint == 2
        assert resumed.executed == 2
        for base, res in zip(baseline.results, resumed.results):
            assert base.trace.points == res.trace.points
            assert base.rejection_counts == res.rejection_counts

    def test_fully_checkpointed_run_executes_nothing(self, tmp_path):
        jobs = sweep_jobs()
        run_ensemble(jobs, checkpoint=tmp_path)
        again = run_ensemble(jobs, checkpoint=tmp_path)
        assert again.loaded_from_checkpoint == len(jobs)
        assert again.executed == 0
        assert all(result.from_checkpoint for result in again.results)

    def test_stale_checkpoint_is_refused(self, tmp_path):
        jobs = sweep_jobs()
        run_ensemble(jobs[:1], checkpoint=tmp_path)
        # Same job id, different specification (more iterations).
        altered = dataclasses.replace(jobs[0], iterations=jobs[0].iterations + 1)
        with pytest.raises(SerializationError):
            run_ensemble([altered], checkpoint=tmp_path)

    def test_engine_options_document_is_refused_as_stale(self, tmp_path):
        """A document whose job still carries an ``engine_options`` key (the
        engine keyword knob no job has any more) fingerprints differently
        from every submittable job: resuming refuses it as stale instead of
        crashing on an unexpected constructor argument."""
        jobs = sweep_jobs()[:1]
        run_ensemble(jobs, checkpoint=tmp_path)
        checkpoint = EnsembleCheckpoint(tmp_path)
        path = checkpoint.path_for(jobs[0].job_id)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["job"]["engine_options"] = {"tiles": [2, 2], "workers": 2}
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SerializationError, match="stale checkpoint"):
            checkpoint.load(jobs[0])
        with pytest.raises(SerializationError, match="stale checkpoint"):
            run_ensemble(jobs, checkpoint=tmp_path)
        with pytest.raises(SerializationError, match="malformed job payload"):
            job_from_json(payload["job"])

    def test_vector_engine_document_loads_and_resumes(self, tmp_path):
        """A document stored by an ``engine="vector"`` job still loads and
        resumes; the alias key runs the same engine as ``"fast"``."""
        jobs = [dataclasses.replace(job, engine="vector") for job in sweep_jobs()]
        baseline = run_ensemble(sweep_jobs(), workers=1)
        run_ensemble(jobs[:2], workers=1, checkpoint=tmp_path)
        path = EnsembleCheckpoint(tmp_path).path_for(jobs[0].job_id)
        stored = json.loads(path.read_text(encoding="utf-8"))["job"]
        assert stored["engine"] == "vector"
        assert job_from_json(stored) == jobs[0]
        resumed = run_ensemble(jobs, workers=1, checkpoint=tmp_path)
        assert resumed.loaded_from_checkpoint == 2
        assert resumed.executed == 2
        for base, res in zip(baseline.results, resumed.results):
            assert base.trace.points == res.trace.points
            assert base.rejection_counts == res.rejection_counts

    def test_checkpoint_files_are_plain_json(self, tmp_path):
        jobs = sweep_jobs()[:1]
        run_ensemble(jobs, checkpoint=tmp_path)
        path = EnsembleCheckpoint(tmp_path).path_for(jobs[0].job_id)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["kind"] == "chain_result"
        assert payload["job"]["job_id"] == jobs[0].job_id
        assert payload["trace"]["kind"] == "compression_trace"

    def test_result_documents_carry_status_and_attempts(self, tmp_path):
        """New documents state status/attempts; old documents (which
        predate the fields) read back as a single-attempt success."""
        jobs = sweep_jobs()[:1]
        run_ensemble(jobs, checkpoint=tmp_path)
        path = EnsembleCheckpoint(tmp_path).path_for(jobs[0].job_id)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["status"] == "ok"
        assert payload["attempts"] == 1
        del payload["status"], payload["attempts"]
        old = chain_result_from_json(payload)
        assert old.attempts == 1


class TestFailureDocuments:
    def failure(self, job):
        return JobFailure(
            job=job,
            error_type="InjectedFault",
            message="injected fault",
            traceback="Traceback ...",
            attempts=2,
            wall_seconds=0.5,
            attempt_errors=[
                {"attempt": 1, "error_type": "InjectedFault",
                 "message": "injected fault", "wall_seconds": 0.2},
                {"attempt": 2, "error_type": "InjectedFault",
                 "message": "injected fault", "wall_seconds": 0.3},
            ],
        )

    def test_failure_roundtrip_is_lossless(self):
        failure = self.failure(sweep_jobs()[0])
        payload = json.loads(json.dumps(job_failure_to_json(failure)))
        assert payload["kind"] == "job_failure"
        assert payload["status"] == "failed"
        loaded = job_failure_from_json(payload)
        assert loaded.job == failure.job
        assert loaded.error_type == failure.error_type
        assert loaded.message == failure.message
        assert loaded.traceback == failure.traceback
        assert loaded.attempts == failure.attempts
        assert loaded.wall_seconds == failure.wall_seconds
        assert loaded.attempt_errors == failure.attempt_errors

    def test_malformed_failure_payloads_rejected(self):
        with pytest.raises(SerializationError):
            job_failure_from_json({"kind": "chain_result"})
        with pytest.raises(SerializationError):
            job_failure_from_json({"kind": "job_failure"})

    def test_failure_doc_counts_as_not_completed(self, tmp_path):
        """A quarantined job's slot holds its failure record: ``load``
        reads it as pending (so resume retries it), ``load_failure``
        surfaces the record, and a later success overwrites it."""
        jobs = sweep_jobs()[:1]
        checkpoint = EnsembleCheckpoint(tmp_path)
        checkpoint.store_failure(self.failure(jobs[0]))
        assert checkpoint.load(jobs[0]) is None
        assert checkpoint.load_failure(jobs[0]).attempts == 2
        assert checkpoint.quarantined_ids() == [jobs[0].job_id]
        assert checkpoint.completed_ids() == [jobs[0].job_id]

        result = run_ensemble(jobs, checkpoint=tmp_path)
        assert result.executed == 1
        assert checkpoint.quarantined_ids() == []
        assert checkpoint.load_failure(jobs[0]) is None
        assert checkpoint.load(jobs[0]) is not None

    def test_stale_failure_doc_is_refused(self, tmp_path):
        """Fingerprint validation covers failure documents too: a foreign
        directory is refused before any retry runs."""
        jobs = sweep_jobs()[:1]
        checkpoint = EnsembleCheckpoint(tmp_path)
        checkpoint.store_failure(self.failure(jobs[0]))
        altered = dataclasses.replace(jobs[0], iterations=jobs[0].iterations + 1)
        with pytest.raises(SerializationError, match="stale checkpoint"):
            checkpoint.load(altered)
        with pytest.raises(SerializationError, match="stale checkpoint"):
            checkpoint.load_failure(altered)
        with pytest.raises(SerializationError, match="stale checkpoint"):
            run_ensemble([altered], checkpoint=tmp_path)
