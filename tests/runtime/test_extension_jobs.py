"""Runtime integration of the separation/bridging jobs (weight kernels).

The extension chains must be first-class ensemble citizens: picklable
JSON-able jobs, results that are pure functions of the job (so parallel
runs are bit-identical to serial ones), checkpoint round-trips with
fingerprint refusal, and kernel metrics (homogeneous edges, gap
occupancy) flowing into the results table as columns.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, SerializationError
from repro.runtime import (
    BridgingJob,
    SeparationJob,
    bridging_gamma_sweep_jobs,
    execute_job,
    run_ensemble,
    separation_replica_jobs,
)
from repro.runtime.checkpoint import (
    EnsembleCheckpoint,
    chain_result_from_json,
    chain_result_to_json,
    job_from_json,
    job_to_json,
)


def separation_job(**overrides):
    params = dict(
        job_id="sep-test",
        lam=2.0,
        gamma=1.5,
        seed=5,
        n=20,
        iterations=2000,
        record_every=1000,
    )
    params.update(overrides)
    return SeparationJob(**params)


def bridging_job(**overrides):
    params = dict(
        job_id="bridge-test",
        lam=4.0,
        gamma=2.0,
        seed=5,
        n=20,
        arm_length=4,
        iterations=2000,
        record_every=1000,
    )
    params.update(overrides)
    return BridgingJob(**params)


class TestJobValidation:
    def test_separation_job_validation(self):
        with pytest.raises(ConfigurationError):
            separation_job(job_id="bad id!")
        for engine in ("warp", "sharded"):
            with pytest.raises(
                ConfigurationError, match=r"expected one of \['fast', 'reference', 'vector'\]"
            ):
                separation_job(engine=engine)
        with pytest.raises(ConfigurationError):
            separation_job(coloring="stripes")
        with pytest.raises(ConfigurationError):
            separation_job(n=None)  # neither n nor colored_nodes
        with pytest.raises(ConfigurationError):
            separation_job(colored_nodes=((0, 0, 0), (1, 0, 1)))  # both given
        with pytest.raises(ConfigurationError):
            separation_job(seed="five")
        with pytest.raises(ConfigurationError):
            separation_job(iterations=-1)
        with pytest.raises(ConfigurationError):
            separation_job(kind="trace")

    def test_bridging_job_validation(self):
        for engine in ("warp", "sharded"):
            with pytest.raises(
                ConfigurationError, match=r"expected one of \['fast', 'reference', 'vector'\]"
            ):
                bridging_job(engine=engine)
        with pytest.raises(ConfigurationError):
            bridging_job(arm_length=1)
        with pytest.raises(ConfigurationError):
            bridging_job(n=0)
        with pytest.raises(ConfigurationError):
            bridging_job(kind="trace")

    def test_explicit_colored_nodes_start(self):
        job = separation_job(
            n=None,
            colored_nodes=((0, 0, 0), (1, 0, 1), (2, 0, 0)),
            iterations=100,
        )
        colored = job.build_initial()
        assert colored.color_counts() == {0: 2, 1: 1}


class TestExecution:
    def test_separation_result_carries_kernel_metrics(self):
        result = execute_job(separation_job())
        assert result.iterations == 2000
        assert set(result.extra) == {
            "accepted_swaps",
            "initial_homogeneous_edges",
            "final_homogeneous_edges",
            "final_heterogeneous_edges",
        }
        row = result.row()
        assert row["final_homogeneous_edges"] == result.extra["final_homogeneous_edges"]
        assert row["kind"] == "separation_trace"
        # Swap rejections are tallied alongside the movement reasons.
        assert "swap_rejected" in result.rejection_counts

    def test_bridging_result_carries_bridge_metrics(self):
        result = execute_job(bridging_job())
        assert result.iterations == 2000
        assert set(result.extra) == {"final_gap_occupancy", "final_anchor_path_length"}
        row = result.row()
        assert row["final_gap_occupancy"] == result.extra["final_gap_occupancy"]
        assert row["kind"] == "bridging_trace"

    @pytest.mark.parametrize("make_job", [separation_job, bridging_job])
    def test_results_are_pure_functions_of_the_job(self, make_job):
        first = execute_job(make_job())
        second = execute_job(make_job())
        assert first.trace.points == second.trace.points
        assert first.rejection_counts == second.rejection_counts
        assert first.extra == second.extra

    def test_engines_agree_on_job_results(self):
        """All three engines yield identical numbers for equal jobs."""
        for make_job in (separation_job, bridging_job):
            fast = execute_job(make_job(engine="fast"))
            for engine in ("reference", "vector"):
                other = execute_job(make_job(engine=engine))
                assert fast.trace.points == other.trace.points, engine
                assert fast.rejection_counts == other.rejection_counts, engine
                assert fast.extra == other.extra, engine


class TestEnsembles:
    def test_mixed_extension_ensemble_parallel_matches_serial(self):
        jobs = (
            separation_replica_jobs(
                n=16, lam=2.0, gamma=2.0, iterations=1500, replicas=2, seed=1
            )
            + bridging_gamma_sweep_jobs(
                n=15, lam=4.0, gammas=[1.0, 4.0], iterations=1500, arm_length=4, seed=2
            )
        )
        serial = run_ensemble(jobs, workers=1)
        parallel = run_ensemble(jobs, workers=2)
        for a, b in zip(serial.results, parallel.results):
            assert a.job.job_id == b.job.job_id
            assert a.trace.points == b.trace.points
            assert a.extra == b.extra
        assert serial.table.rows == [r.row() for r in serial.results]

    def test_builder_seeding_is_stable_under_growth(self):
        small = separation_replica_jobs(
            n=10, lam=2.0, gamma=2.0, iterations=10, replicas=2, seed=3
        )
        large = separation_replica_jobs(
            n=10, lam=2.0, gamma=2.0, iterations=10, replicas=4, seed=3
        )
        assert [job.seed for job in small] == [job.seed for job in large[:2]]

    def test_gamma_sweep_metrics_flow_into_the_table(self):
        jobs = bridging_gamma_sweep_jobs(
            n=20, lam=4.0, gammas=[1.0, 6.0], iterations=8000, arm_length=4, seed=0
        )
        ensemble = run_ensemble(jobs)
        tolerant = ensemble.table.where(gamma_index=0)
        averse = ensemble.table.where(gamma_index=1)
        assert averse.mean("final_gap_occupancy") <= tolerant.mean(
            "final_gap_occupancy"
        )


class TestSerialization:
    @pytest.mark.parametrize("make_job", [separation_job, bridging_job])
    def test_job_json_round_trip(self, make_job):
        job = make_job()
        payload = job_to_json(job)
        assert payload["job_type"] in ("separation", "bridging")
        assert job_from_json(payload) == job

    def test_colored_nodes_round_trip(self):
        job = separation_job(n=None, colored_nodes=((0, 0, 0), (1, 0, 1)), iterations=5)
        assert job_from_json(job_to_json(job)) == job

    @pytest.mark.parametrize("make_job", [separation_job, bridging_job])
    def test_result_round_trip_preserves_extra(self, make_job):
        result = execute_job(make_job(iterations=500))
        restored = chain_result_from_json(chain_result_to_json(result))
        assert restored.extra == result.extra
        assert restored.trace.points == result.trace.points
        assert restored.job == result.job

    def test_checkpoint_resume_and_fingerprint_refusal(self, tmp_path):
        checkpoint = EnsembleCheckpoint(tmp_path)
        jobs = [separation_job(iterations=500), bridging_job(iterations=500)]
        first = run_ensemble(jobs, checkpoint=checkpoint)
        assert first.loaded_from_checkpoint == 0
        resumed = run_ensemble(jobs, checkpoint=checkpoint)
        assert resumed.loaded_from_checkpoint == 2
        for a, b in zip(first.results, resumed.results):
            assert a.trace.points == b.trace.points
            assert a.extra == b.extra
        # A reseeded job with the same id must be refused, not mixed in.
        with pytest.raises(SerializationError):
            run_ensemble(
                [dataclasses.replace(jobs[0], seed=99)], checkpoint=checkpoint
            )


class TestCheckpointExtraCompat:
    """Kernel metrics must survive checkpoint resume across document vintages."""

    def test_empty_extra_is_written_explicitly(self):
        """New documents always state their kernel metrics, even when empty."""
        result = execute_job(separation_job(iterations=100))
        stripped = dataclasses.replace(result, extra={})
        payload = chain_result_to_json(stripped)
        assert payload["extra"] == {}
        assert chain_result_from_json(payload).extra == {}

    def test_null_extra_loads_as_empty(self):
        result = execute_job(separation_job(iterations=100))
        payload = chain_result_to_json(result)
        payload["extra"] = None
        assert chain_result_from_json(payload).extra == {}

    def test_numpy_scalar_extra_round_trips_as_plain_int(self, tmp_path):
        """An engine counter leaking through as numpy.int64 must not abort
        the atomic checkpoint write."""
        result = execute_job(bridging_job(iterations=100))
        poisoned = dataclasses.replace(
            result, extra={"final_gap_occupancy": np.int64(7)}
        )
        checkpoint = EnsembleCheckpoint(tmp_path)
        checkpoint.store(poisoned)
        loaded = checkpoint.load(poisoned.job)
        assert loaded.extra == {"final_gap_occupancy": 7}
        assert type(loaded.extra["final_gap_occupancy"]) is int

    def test_legacy_document_resumes_next_to_new_document(self, tmp_path):
        """A pre-extra document mixed with a new one must keep the kernel-metric
        columns in the resumed results table."""
        checkpoint = EnsembleCheckpoint(tmp_path)
        jobs = (
            separation_job(job_id="old-doc", seed=1, iterations=500),
            separation_job(job_id="new-doc", seed=2, iterations=500),
        )
        run_ensemble(jobs, checkpoint=checkpoint)
        path = checkpoint.path_for("old-doc")
        payload = json.loads(path.read_text())
        del payload["extra"]  # simulate a document written before extra existed
        path.write_text(json.dumps(payload))
        resumed = run_ensemble(jobs, checkpoint=checkpoint)
        assert resumed.loaded_from_checkpoint == 2
        table = resumed.table
        assert "final_homogeneous_edges" in table.columns
        old_row, new_row = table.rows
        assert "final_homogeneous_edges" not in old_row  # data was never stored
        final = new_row["final_homogeneous_edges"]
        assert isinstance(final, int)
        # Split/apply helpers keep working over the mixed rows.
        assert table.column("final_homogeneous_edges") == [None, final]
        assert table.mean("final_homogeneous_edges") == float(final)
