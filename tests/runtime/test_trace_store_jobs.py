"""Streaming-trace integration across the job/checkpoint stack.

Lockstep guarantees: a run with ``trace_store`` set streams a trace that
is row-for-row identical to the in-memory trace of an identically-seeded
run without it — for every kernel (compression, amoebot, separation,
bridging) — because the sink consumes no randomness.  Checkpoint
documents for store-backed jobs carry a ``trace_store_ref`` instead of
inline points, re-attach to the directory on resume, and refuse
mismatched or incomplete manifests.
"""

import dataclasses
import json

import pytest

from repro.core.compression import CompressionSimulation
from repro.errors import SerializationError
from repro.io.trace_store import TraceStoreReader, TraceStoreSink
from repro.runtime import (
    EnsembleCheckpoint,
    chain_result_from_json,
    chain_result_to_json,
    job_from_json,
    job_to_json,
    replica_jobs,
    run_ensemble,
    run_job,
)
from repro.runtime.jobs import (
    AmoebotJob,
    ChainJob,
    amoebot_replica_jobs,
    bridging_gamma_sweep_jobs,
    execute_job,
    separation_replica_jobs,
)


def with_store(job, root):
    return dataclasses.replace(job, trace_store=str(root))


def assert_lockstep(job, root):
    """Streamed and in-memory runs of the same job must agree exactly."""
    plain = execute_job(job)
    streamed = execute_job(with_store(job, root))
    assert plain.trace == streamed.trace
    assert plain.iterations == streamed.iterations
    assert plain.accepted_moves == streamed.accepted_moves
    assert plain.trace_store_path is None
    assert streamed.trace_store_path is not None

    reader = TraceStoreReader(streamed.trace_store_path)
    assert reader.complete
    assert reader.read_trace() == plain.trace  # row for row, bit for bit
    assert reader.meta["job_id"] == job.job_id
    assert reader.meta["job"] == job_to_json(with_store(job, root))
    return streamed


class TestLockstep:
    def test_compression_trace_job(self, tmp_path):
        job = replica_jobs(n=15, lam=4.0, iterations=1500, replicas=1, seed=7)[0]
        streamed = assert_lockstep(job, tmp_path)
        assert streamed.trace_store_path == str(tmp_path / job.job_id)

    def test_compression_time_job(self, tmp_path):
        job = ChainJob(
            job_id="hit",
            lam=5.0,
            seed=11,
            n=12,
            kind="compression_time",
            alpha=3.0,
            max_iterations=20_000,
            check_every=500,
        )
        plain = run_job(job)
        streamed = run_job(with_store(job, tmp_path))
        assert plain.compression_time == streamed.compression_time
        assert plain.trace == streamed.trace
        assert TraceStoreReader(streamed.trace_store_path).read_trace() == plain.trace

    def test_amoebot_job(self, tmp_path):
        job = amoebot_replica_jobs(
            n=10, lam=4.0, activations=400, replicas=1, seed=5
        )[0]
        assert_lockstep(job, tmp_path)

    def test_separation_job(self, tmp_path):
        job = separation_replica_jobs(
            n=12, lam=4.0, gamma=4.0, iterations=600, replicas=1, seed=9
        )[0]
        assert_lockstep(job, tmp_path)

    def test_bridging_job(self, tmp_path):
        job = bridging_gamma_sweep_jobs(
            n=12, lam=4.0, gammas=[2.0], iterations=600, arm_length=6, seed=13
        )[0]
        assert_lockstep(job, tmp_path)

    def test_engine_hook_directly(self, tmp_path):
        """The ``trace_sink=`` hook itself, below the job layer."""
        from repro.lattice.shapes import line

        plain = CompressionSimulation(line(12), lam=4.0, seed=3, engine="fast")
        plain.run(1200, record_every=60)
        sink = TraceStoreSink(tmp_path / "s", meta={"n": 12, "lambda": 4.0})
        streamed = CompressionSimulation(
            line(12), lam=4.0, seed=3, engine="fast", trace_sink=sink
        )
        streamed.run(1200, record_every=60)
        sink.close()
        assert streamed.trace == plain.trace
        assert TraceStoreReader(tmp_path / "s").read_trace() == plain.trace

    def test_engine_hook_cadence(self, tmp_path):
        """``every=k`` keeps one recorded point in k, first always included."""
        from repro.lattice.shapes import line

        sink = TraceStoreSink(tmp_path / "s", every=3, meta={"n": 12, "lambda": 4.0})
        simulation = CompressionSimulation(
            line(12), lam=4.0, seed=3, engine="fast", trace_sink=sink
        )
        simulation.run(1200, record_every=60)
        sink.close()
        kept = TraceStoreReader(tmp_path / "s").read_trace().points
        assert kept == simulation.trace.points[::3]


class TestCheckpointIntegration:
    def jobs(self, root):
        return [
            with_store(job, root)
            for job in replica_jobs(n=12, lam=4.0, iterations=800, replicas=3, seed=21)
        ]

    def test_document_references_store_instead_of_points(self, tmp_path):
        job = self.jobs(tmp_path / "stores")[0]
        result = run_job(job)
        payload = chain_result_to_json(result)
        assert payload["trace"]["kind"] == "trace_store_ref"
        assert payload["trace"]["path"] == result.trace_store_path
        assert "points" not in payload["trace"]
        loaded = chain_result_from_json(json.loads(json.dumps(payload)))
        assert loaded.trace == result.trace
        assert loaded.trace_store_path == result.trace_store_path

    def test_resume_reattaches_store(self, tmp_path):
        jobs = self.jobs(tmp_path / "stores")
        first = run_ensemble(jobs, checkpoint=tmp_path / "cp")
        resumed = run_ensemble(jobs, checkpoint=tmp_path / "cp")
        assert resumed.loaded_from_checkpoint == len(jobs)
        for job in jobs:
            a = first.result_for(job.job_id)
            b = resumed.result_for(job.job_id)
            assert a.trace == b.trace
            assert b.trace_store_path == str(tmp_path / "stores" / job.job_id)
            assert b.from_checkpoint

    def test_resume_reattaches_v1_store(self, tmp_path, rewrite_as_v1):
        """Stores written in format version 1 (one file per column) stay
        re-attachable from the checkpoints that reference them."""
        jobs = self.jobs(tmp_path / "stores")
        first = run_ensemble(jobs, checkpoint=tmp_path / "cp")
        for job in jobs:
            rewrite_as_v1(tmp_path / "stores" / job.job_id)
        resumed = run_ensemble(jobs, checkpoint=tmp_path / "cp")
        assert resumed.loaded_from_checkpoint == len(jobs)
        for job in jobs:
            b = resumed.result_for(job.job_id)
            assert TraceStoreReader(b.trace_store_path).format_version == 1
            assert b.trace == first.result_for(job.job_id).trace
            assert b.from_checkpoint

    def test_partial_resume_executes_only_missing(self, tmp_path):
        jobs = self.jobs(tmp_path / "stores")
        checkpoint = EnsembleCheckpoint(tmp_path / "cp")
        for job in jobs[:2]:
            checkpoint.store(run_job(job))
        resumed = run_ensemble(jobs, checkpoint=tmp_path / "cp")
        assert resumed.loaded_from_checkpoint == 2
        assert resumed.executed == 1

    def test_refuses_mismatched_manifest_fingerprint(self, tmp_path):
        jobs = self.jobs(tmp_path / "stores")[:1]
        run_ensemble(jobs, checkpoint=tmp_path / "cp")
        manifest_path = tmp_path / "stores" / jobs[0].job_id / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["meta"]["job"]["seed"] = manifest["meta"]["job"]["seed"] + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SerializationError, match="different job specification"):
            run_ensemble(jobs, checkpoint=tmp_path / "cp")

    def test_refuses_incomplete_store(self, tmp_path):
        jobs = self.jobs(tmp_path / "stores")[:1]
        run_ensemble(jobs, checkpoint=tmp_path / "cp")
        manifest_path = tmp_path / "stores" / jobs[0].job_id / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["complete"] = False
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SerializationError, match="incomplete"):
            run_ensemble(jobs, checkpoint=tmp_path / "cp")

    def test_refuses_deleted_store(self, tmp_path):
        import shutil

        jobs = self.jobs(tmp_path / "stores")[:1]
        run_ensemble(jobs, checkpoint=tmp_path / "cp")
        shutil.rmtree(tmp_path / "stores" / jobs[0].job_id)
        with pytest.raises(SerializationError):
            run_ensemble(jobs, checkpoint=tmp_path / "cp")


class TestFingerprintCompat:
    def test_storeless_job_payload_has_no_trace_store_key(self):
        """Old checkpoint documents predate the field; storeless jobs must
        fingerprint exactly as they did then."""
        job = replica_jobs(n=10, lam=4.0, iterations=100, replicas=1, seed=0)[0]
        payload = job_to_json(job)
        assert "trace_store" not in payload
        assert job_from_json(json.loads(json.dumps(payload))) == job

    def test_store_backed_job_round_trips(self, tmp_path):
        job = with_store(
            replica_jobs(n=10, lam=4.0, iterations=100, replicas=1, seed=0)[0],
            tmp_path,
        )
        payload = job_to_json(job)
        assert payload["trace_store"] == str(tmp_path)
        assert job_from_json(json.loads(json.dumps(payload))) == job
        amoebot = AmoebotJob(
            job_id="a", lam=4.0, seed=1, n=8, activations=10,
            trace_store=str(tmp_path),
        )
        assert job_from_json(json.loads(json.dumps(job_to_json(amoebot)))) == amoebot

    def test_trace_store_must_be_path_like(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="trace_store"):
            ChainJob(job_id="x", lam=4.0, seed=0, n=10, iterations=10, trace_store=7)
