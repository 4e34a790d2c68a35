"""Tests for the parallel ensemble runner: jobs, determinism, results table."""

import numpy as np
import pytest

from repro.core.compression import CompressionSimulation
from repro.errors import AnalysisError, ConfigurationError
from repro.runtime import (
    AmoebotJob,
    BridgingJob,
    ChainJob,
    EnsembleRunner,
    ResultsTable,
    lambda_sweep_jobs,
    replica_jobs,
    run_ensemble,
    run_job,
    scaling_time_jobs,
    SeparationJob,
)
from repro.rng import spawn_seeds


def small_sweep_jobs():
    """A 4-point sweep x 2 replicas: 8 cheap jobs shared by several tests."""
    return lambda_sweep_jobs(
        n=20, lambdas=[1.5, 2.5, 4.0, 6.0], iterations=4000, seed=0, replicas=2
    )


def _valid(job_type, **defaults):
    """A builder of one valid ``job_type``, with keyword overrides."""
    return lambda **overrides: job_type(**{**defaults, **overrides})


#: One valid job of each type, with keyword overrides.
JOB_TYPES = {
    "chain": _valid(ChainJob, job_id="a", lam=4.0, seed=0, n=10, iterations=100),
    "amoebot": _valid(AmoebotJob, job_id="a", lam=4.0, seed=0, n=10, activations=100),
    "separation": _valid(
        SeparationJob, job_id="a", lam=4.0, gamma=2.0, seed=0, n=10, iterations=100
    ),
    "bridging": _valid(
        BridgingJob, job_id="a", lam=4.0, gamma=2.0, seed=0, n=10, arm_length=4,
        iterations=100,
    ),
}


@pytest.mark.parametrize(
    "job_type, field, value, message",
    [
        ("chain", "lam", -1, "lambda must be positive"),
        ("amoebot", "lam", 0, "lambda must be positive"),
        ("separation", "gamma", -2, "gamma must be positive"),
        ("bridging", "gamma", 0, "gamma must be positive"),
        ("chain", "seed", -1, "seed must be non-negative"),
        ("chain", "iterations", 1000.0, "iterations must be an integer"),
        ("chain", "iterations", True, "iterations must be an integer"),
        ("chain", "record_every", 10.0, "record_every must be an integer"),
        ("chain", "n", 10.0, "^n must be an integer"),
        ("chain", "n", 0, "^n must be positive"),
        ("chain", "check_every", 0, "check_every must be positive"),
        ("chain", "max_iterations", -1, "max_iterations must be non-negative"),
        ("amoebot", "activations", 100.0, "activations must be an integer"),
        ("amoebot", "rates", ((0, -1.0),), "every rate must be positive"),
        ("separation", "num_colors", 0, "num_colors must be positive"),
        ("separation", "swap_probability", 1.5, r"swap_probability must lie in \[0, 1\]"),
        ("separation", "swap_probability", -0.1, r"swap_probability must lie in \[0, 1\]"),
        ("bridging", "opening", 0, "opening must be positive"),
        ("bridging", "n", 0, "^n must be positive"),
    ],
)
def test_nonpositive_bias_rejected_at_construction(job_type, field, value, message):
    """A job with lambda <= 0 (or gamma <= 0 on the extension jobs), or
    with a field its worker cannot run (a negative seed, a float or bool
    count, a count below its floor, a swap probability outside [0, 1], a
    non-positive rate), is refused when it is built, not quarantined later
    by a worker."""
    with pytest.raises(ConfigurationError, match=message):
        JOB_TYPES[job_type](**{field: value})
    with pytest.raises(ConfigurationError, match="lambda must be positive"):
        JOB_TYPES[job_type](lam=float("nan"))


@pytest.mark.parametrize("record_every", [0, -5])
@pytest.mark.parametrize("job_type", sorted(JOB_TYPES))
def test_record_every_rejected_at_construction(job_type, record_every):
    """Every job type rejects a non-positive interval when it is built,
    not later inside a worker attempt."""
    with pytest.raises(ConfigurationError, match="record_every must be positive"):
        JOB_TYPES[job_type](record_every=record_every)
    assert JOB_TYPES[job_type](record_every=None).record_every is None
    # numpy integers pass operator.index, so they stay valid counts.
    assert JOB_TYPES[job_type](record_every=np.int32(10)).record_every == 10


class TestChainJob:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChainJob(job_id="bad id!", lam=4.0, seed=0, n=10)
        with pytest.raises(ConfigurationError):
            ChainJob(job_id="a", lam=4.0, seed=0)  # neither n nor nodes
        with pytest.raises(ConfigurationError):
            ChainJob(job_id="a", lam=4.0, seed=0, n=10, initial_nodes=((0, 0),))
        for engine in ("warp", "sharded"):
            with pytest.raises(
                ConfigurationError, match=r"expected one of \['fast', 'reference', 'vector'\]"
            ):
                ChainJob(job_id="a", lam=4.0, seed=0, n=10, engine=engine)
        with pytest.raises(ConfigurationError):
            ChainJob(job_id="a", lam=4.0, seed=0, n=10, kind="nope")
        with pytest.raises(ConfigurationError):
            ChainJob(job_id="a", lam=4.0, seed=0, n=10, kind="compression_time")
        with pytest.raises(ConfigurationError):
            ChainJob(job_id="a", lam=4.0, seed="zero", n=10)

    def test_explicit_initial_nodes(self):
        job = ChainJob(
            job_id="tri",
            lam=4.0,
            seed=3,
            initial_nodes=((0, 0), (1, 0), (0, 1)),
            iterations=100,
        )
        result = run_job(job)
        assert result.trace.n == 3
        assert result.iterations == 100

    def test_builders_are_deterministic(self):
        assert small_sweep_jobs() == small_sweep_jobs()
        first = scaling_time_jobs([10, 14], lam=6.0, alpha=1.8, repetitions=2, budget_factor=100)
        assert first == scaling_time_jobs(
            [10, 14], lam=6.0, alpha=1.8, repetitions=2, budget_factor=100
        )
        replicas = replica_jobs(n=15, lam=4.0, iterations=500, replicas=3, seed=9)
        assert [job.seed for job in replicas] == spawn_seeds(9, 3)
        assert len({job.job_id for job in replicas}) == 3

    def test_job_matches_direct_simulation(self):
        """A job's trace is exactly what CompressionSimulation produces for its seed."""
        job = small_sweep_jobs()[0]
        result = run_job(job)
        simulation = CompressionSimulation.from_line(
            job.n, lam=job.lam, seed=job.seed, engine=job.engine
        )
        simulation.run(job.iterations, record_every=job.record_every)
        assert result.trace.points == simulation.trace.points
        assert result.accepted_moves == simulation.chain.accepted_moves


class TestEnsembleDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self):
        """4 workers, same jobs: per-seed traces and counters must be identical."""
        jobs = small_sweep_jobs()
        serial = run_ensemble(jobs, workers=1)
        parallel = run_ensemble(jobs, workers=4)
        assert [r.job.job_id for r in serial.results] == [r.job.job_id for r in parallel.results]
        for s, p in zip(serial.results, parallel.results):
            assert s.trace.points == p.trace.points
            assert s.accepted_moves == p.accepted_moves
            assert s.rejection_counts == p.rejection_counts
            assert s.compression_time == p.compression_time
        # Tables agree on everything except wall-clock timings.
        for srow, prow in zip(serial.table.rows, parallel.table.rows):
            srow = {k: v for k, v in srow.items() if k != "wall_seconds"}
            prow = {k: v for k, v in prow.items() if k != "wall_seconds"}
            assert srow == prow

    def test_compression_time_jobs_deterministic_across_workers(self):
        jobs = scaling_time_jobs(
            [10, 12], lam=6.0, alpha=1.8, repetitions=2, budget_factor=300, seed=5
        )
        serial = run_ensemble(jobs, workers=1)
        parallel = run_ensemble(jobs, workers=4)
        assert serial.table.column("compression_time") == parallel.table.column(
            "compression_time"
        )

    def test_duplicate_job_ids_rejected(self):
        job = small_sweep_jobs()[0]
        with pytest.raises(ConfigurationError):
            run_ensemble([job, job])

    def test_worker_validation(self):
        with pytest.raises(ConfigurationError):
            EnsembleRunner(workers=0)

    def test_on_result_streams_every_job(self):
        jobs = small_sweep_jobs()[:3]
        seen = []
        run_ensemble(jobs, workers=2, on_result=lambda result: seen.append(result.job.job_id))
        assert sorted(seen) == sorted(job.job_id for job in jobs)

    def test_on_progress_fires_once_per_job_in_submission_order(self):
        """Serial execution completes jobs in submission order, so the
        progress stream must follow it: one report per job, completed
        counting 1..total, ETA present and ending at zero."""
        jobs = small_sweep_jobs()[:4]
        reports = []
        run_ensemble(jobs, workers=1, on_progress=reports.append)
        assert [progress.job_id for progress in reports] == [job.job_id for job in jobs]
        assert [progress.completed for progress in reports] == [1, 2, 3, 4]
        assert all(progress.total == len(jobs) for progress in reports)
        elapsed = [progress.elapsed_seconds for progress in reports]
        assert elapsed == sorted(elapsed) and elapsed[0] >= 0.0
        for progress in reports[:-1]:
            assert progress.eta_seconds is not None and progress.eta_seconds >= 0.0
        assert reports[-1].eta_seconds == 0.0

    def test_on_progress_counts_checkpoint_restores(self, tmp_path):
        jobs = small_sweep_jobs()[:3]
        run_ensemble(jobs, checkpoint=tmp_path)
        reports = []
        resumed = run_ensemble(jobs, checkpoint=tmp_path, on_progress=reports.append)
        assert resumed.loaded_from_checkpoint == len(jobs)
        assert [progress.completed for progress in reports] == [1, 2, 3]
        assert reports[-1].eta_seconds == 0.0

    def test_eta_is_none_while_only_restores_have_completed(self, tmp_path):
        """Checkpoint restores execute no work, so ``elapsed / executed``
        has no denominator: mid-stream ETA must be ``None``, never a
        division error or a bogus near-zero estimate — but completing the
        whole ensemble from restores still reports ``eta_seconds == 0.0``."""
        jobs = small_sweep_jobs()[:3]
        run_ensemble(jobs, checkpoint=tmp_path)
        reports = []
        run_ensemble(jobs, checkpoint=tmp_path, on_progress=reports.append)
        assert [progress.eta_seconds for progress in reports] == [None, None, 0.0]

    def test_eta_recovers_once_a_job_executes_after_restores(self, tmp_path):
        """A partially-restored run: restore reports carry no ETA, the
        first executed job re-establishes the estimate, completion pins
        it to zero."""
        jobs = small_sweep_jobs()[:4]
        run_ensemble(jobs[:2], checkpoint=tmp_path)
        reports = []
        resumed = run_ensemble(jobs, checkpoint=tmp_path, on_progress=reports.append)
        assert resumed.loaded_from_checkpoint == 2
        assert resumed.executed == 2
        assert [progress.completed for progress in reports] == [1, 2, 3, 4]
        assert [progress.eta_seconds is None for progress in reports] == [
            True, True, False, False,
        ]
        third = reports[2]
        # One executed job, one remaining: the classic estimate is the
        # elapsed wall-clock itself.
        assert third.eta_seconds == pytest.approx(third.elapsed_seconds)
        assert reports[3].eta_seconds == 0.0

    def test_vector_engine_jobs_match_fast_engine_jobs(self):
        """engine="vector" runs through the runner and agrees with "fast"."""
        fast_job = ChainJob(job_id="f", lam=4.0, seed=11, n=40, iterations=20_000)
        vector_job = ChainJob(
            job_id="v", lam=4.0, seed=11, n=40, engine="vector", iterations=20_000
        )
        fast_result, vector_result = run_ensemble([fast_job, vector_job]).results
        assert vector_result.accepted_moves == fast_result.accepted_moves
        assert vector_result.rejection_counts == fast_result.rejection_counts
        assert vector_result.trace.final() == fast_result.trace.final()


class TestResultsTable:
    def test_table_shape_and_grouping(self):
        jobs = small_sweep_jobs()
        ensemble = run_ensemble(jobs)
        table = ensemble.table
        assert len(table) == len(jobs)
        assert set(table.column("lambda")) == {1.5, 2.5, 4.0, 6.0}
        groups = table.group_by("lambda")
        assert all(len(group) == 2 for group in groups.values())
        filtered = table.where(**{"lambda": 4.0, "replica": 0})
        assert len(filtered) == 1
        assert filtered.rows[0]["job_id"] == "sweep-i2-lam4-r0"

    def test_near_equal_lambdas_get_distinct_job_ids(self):
        jobs = lambda_sweep_jobs(
            n=10, lambdas=[2.17, 2.1700001, 2.0000001, 2.0], iterations=10, seed=0
        )
        assert len({job.job_id for job in jobs}) == len(jobs)

    def test_raising_replicas_preserves_existing_seeds(self):
        """Replica-major seed indexing: a grown ensemble keeps its old jobs."""
        small = lambda_sweep_jobs(n=10, lambdas=[2.0, 4.0, 6.0], iterations=10, seed=0)
        grown = lambda_sweep_jobs(
            n=10, lambdas=[2.0, 4.0, 6.0], iterations=10, seed=0, replicas=3
        )
        by_id = {job.job_id: job for job in grown}
        assert all(by_id[job.job_id] == job for job in small)
        scale_small = scaling_time_jobs([10, 14], lam=6.0, alpha=1.8, repetitions=1, budget_factor=50)
        scale_grown = scaling_time_jobs([10, 14], lam=6.0, alpha=1.8, repetitions=3, budget_factor=50)
        grown_ids = {job.job_id: job for job in scale_grown}
        assert all(grown_ids[job.job_id] == job for job in scale_small)

    def test_extreme_lambdas_make_valid_job_ids(self):
        """%g scientific notation must not leak '+' into id-pattern territory."""
        jobs = lambda_sweep_jobs(n=10, lambdas=[1e6, 1e-7], iterations=10, seed=0)
        assert [job.job_id for job in jobs] == ["sweep-i0-lam1e06-r0", "sweep-i1-lam1e-07-r0"]
        assert replica_jobs(n=10, lam=2e6, iterations=10, replicas=1)[0].job_id == (
            "replica-lam2e06-r0"
        )

    def test_sweep_physics_in_table(self):
        """Large lambda compresses: the table must show the trend end to end."""
        jobs = lambda_sweep_jobs(n=25, lambdas=[1.5, 6.0], iterations=30_000, seed=2)
        table = run_ensemble(jobs, workers=2).table
        expanded = table.where(**{"lambda": 1.5}).mean("final_perimeter")
        compressed = table.where(**{"lambda": 6.0}).mean("final_perimeter")
        assert expanded > compressed

    def test_summary_via_statistics(self):
        jobs = replica_jobs(n=15, lam=4.0, iterations=3000, replicas=4, seed=7)
        table = run_ensemble(jobs, workers=2).table
        (summary,) = table.summary("final_alpha")
        assert summary["count"] == 4
        assert summary["missing"] == 0
        assert summary["ci_low"] <= summary["mean"] <= summary["ci_high"]
        by_lambda = table.summary("final_alpha", by="lambda")
        assert [s["group"] for s in by_lambda] == [4.0]

    def test_summary_reports_missing_hitting_times(self):
        jobs = scaling_time_jobs(
            [20], lam=4.0, alpha=1.01, repetitions=2, budget_factor=0.1, seed=0
        )
        table = run_ensemble(jobs).table
        (summary,) = table.summary("compression_time", by="n")
        assert summary["missing"] == 2
        assert summary["mean"] is None

    def test_json_roundtrip_and_errors(self):
        table = ResultsTable([{"a": 1, "b": 2.5}])
        clone = ResultsTable.from_json(table.to_json())
        assert clone.rows == table.rows
        with pytest.raises(AnalysisError):
            ResultsTable.from_json({"kind": "other"})
        with pytest.raises(AnalysisError):
            ResultsTable().mean("anything")
