"""Streaming analysis paths vs their in-memory counterparts.

Every iterator-based path added for on-disk ensembles must agree with
the materialized computation it replaces: Welford/Chan moments vs numpy,
chunked autocorrelation vs the FFT-free in-memory version, store-backed
ensemble summaries vs the results-table summary, and streamed hitting
times vs a scan of the materialized trace.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.analysis.convergence import hitting_time_from_rows
from repro.analysis.mixing import (
    streaming_autocorrelation,
    streaming_integrated_autocorrelation_time,
)
from repro.analysis.statistics import (
    StreamingMoments,
    _normal_quantile,
    autocorrelation,
    ensemble_summary,
    ensemble_summary_from_stores,
    integrated_autocorrelation_time,
    resampled_ci_from_stores,
    streaming_ensemble_summary,
)
from repro.errors import AnalysisError
from repro.io.trace_store import TraceStoreReader
from repro.runtime import replica_jobs, run_ensemble
from repro.runtime.results import ResultsTable


def chunked(series, size):
    return lambda: (
        series[i : i + size] for i in range(0, len(series), size)
    )


class TestStreamingMoments:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.normal(3.0, 2.0, size=501)
        moments = StreamingMoments()
        for chunk in chunked(data, 37)():
            moments.extend(chunk)
        assert moments.count == data.size
        assert moments.mean == pytest.approx(data.mean(), abs=1e-12)
        assert moments.variance == pytest.approx(data.var(ddof=1), abs=1e-10)
        assert moments.std_error == pytest.approx(
            data.std(ddof=1) / math.sqrt(data.size), abs=1e-12
        )

    def test_update_and_extend_agree(self):
        data = [1.5, -2.0, 7.25, 0.0, 3.5]
        one = StreamingMoments()
        for v in data:
            one.update(v)
        batched = StreamingMoments()
        batched.extend(data[:2])
        batched.extend([])  # no-op
        batched.extend(data[2:])
        assert one.count == batched.count
        assert one.mean == pytest.approx(batched.mean, abs=1e-14)
        assert one.variance == pytest.approx(batched.variance, abs=1e-14)

    def test_degenerate_counts(self):
        moments = StreamingMoments()
        assert math.isnan(moments.variance)
        moments.update(4.0)
        assert moments.mean == 4.0
        assert math.isnan(moments.std_error)


class TestNormalQuantile:
    def test_known_values(self):
        assert _normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)
        assert _normal_quantile(0.975) == pytest.approx(1.959963985, abs=1e-6)
        assert _normal_quantile(0.025) == pytest.approx(-1.959963985, abs=1e-6)
        assert _normal_quantile(0.999) == pytest.approx(3.090232306, abs=1e-6)
        assert _normal_quantile(0.001) == pytest.approx(-3.090232306, abs=1e-6)

    def test_rejects_out_of_range(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(AnalysisError):
                _normal_quantile(p)


class TestStreamingAutocorrelation:
    def test_matches_in_memory(self):
        rng = np.random.default_rng(1)
        series = np.cumsum(rng.normal(size=503))  # strongly correlated
        for chunk_size in (1, 7, 37, 503, 1000):
            streamed = streaming_autocorrelation(chunked(series, chunk_size), max_lag=40)
            np.testing.assert_allclose(
                streamed, autocorrelation(series, max_lag=40), atol=1e-10
            )

    def test_tau_matches_in_memory(self):
        rng = np.random.default_rng(2)
        series = np.cumsum(rng.normal(size=400))
        streamed = streaming_integrated_autocorrelation_time(
            chunked(series, 41), max_lag=60
        )
        assert streamed == pytest.approx(
            integrated_autocorrelation_time(series, max_lag=60), abs=1e-10
        )

    def test_clamps_max_lag_like_in_memory(self):
        series = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        streamed = streaming_integrated_autocorrelation_time(
            chunked(series, 2), max_lag=100
        )
        assert streamed == pytest.approx(
            integrated_autocorrelation_time(series, max_lag=100), abs=1e-12
        )

    def test_constant_series_returns_ones(self):
        rho = streaming_autocorrelation(chunked(np.ones(10), 3), max_lag=4)
        np.testing.assert_array_equal(rho, np.ones(5))

    def test_validation(self):
        with pytest.raises(AnalysisError):
            streaming_autocorrelation(chunked(np.arange(10.0), 3), max_lag=0)
        with pytest.raises(AnalysisError):
            streaming_autocorrelation(chunked(np.arange(10.0), 3), max_lag=10)
        with pytest.raises(AnalysisError):
            streaming_autocorrelation(chunked(np.array([1.0]), 1), max_lag=1)


class TestStreamingEnsembleSummary:
    def test_rows_match_in_memory_summary(self):
        rows = [
            {"lambda": 2.0, "final_alpha": 1.5},
            {"lambda": 2.0, "final_alpha": 2.5},
            {"lambda": 2.0, "final_alpha": 3.5},
            {"lambda": 5.0, "final_alpha": 1.1},
            {"lambda": 5.0, "final_alpha": None},
        ]
        table = ResultsTable(rows)
        materialized = ensemble_summary(table, "final_alpha", by="lambda")
        streamed = streaming_ensemble_summary(
            (row["lambda"], row["final_alpha"]) for row in rows
        )
        assert [s["group"] for s in streamed] == [m["group"] for m in materialized]
        for s, m in zip(streamed, materialized):
            assert s["count"] == m["count"]
            assert s["missing"] == m["missing"]
            assert s["mean"] == pytest.approx(m["mean"], abs=1e-12)
            if m["std_error"] is not None:
                assert s["std_error"] == pytest.approx(m["std_error"], abs=1e-12)
                # Normal-approx interval brackets the mean symmetrically.
                assert s["ci_low"] < s["mean"] < s["ci_high"]

    def test_all_missing_group(self):
        rows = streaming_ensemble_summary([("a", None), ("a", None)])
        assert rows == [
            {
                "group": "a", "count": 0, "missing": 2, "mean": None,
                "std_error": None, "ci_low": None, "ci_high": None,
            }
        ]

    def test_level_validation(self):
        with pytest.raises(AnalysisError):
            streaming_ensemble_summary([("a", 1.0)], level=1.0)


class TestEnsembleSummaryFromStores:
    @pytest.fixture()
    def store_ensemble(self, tmp_path):
        jobs = [
            dataclasses.replace(job, trace_store=str(tmp_path))
            for job in replica_jobs(n=12, lam=4.0, iterations=600, replicas=3, seed=17)
        ]
        ensemble = run_ensemble(jobs)
        return tmp_path, ensemble

    def test_matches_table_summary(self, store_ensemble):
        root, ensemble = store_ensemble
        from_stores = ensemble_summary_from_stores(str(root), "alpha")
        from_table = ensemble_summary(ensemble.table, "final_alpha")
        assert len(from_stores) == 1
        assert from_stores[0]["count"] == from_table[0]["count"] == 3
        assert from_stores[0]["mean"] == pytest.approx(from_table[0]["mean"], abs=1e-12)
        assert from_stores[0]["std_error"] == pytest.approx(
            from_table[0]["std_error"], abs=1e-12
        )

    def test_group_by_meta_and_dotted_path(self, store_ensemble):
        root, _ = store_ensemble
        by_lambda = ensemble_summary_from_stores(str(root), "alpha", by="lambda")
        assert [row["group"] for row in by_lambda] == [4.0]
        by_seed = ensemble_summary_from_stores(str(root), "alpha", by="job.seed")
        assert len(by_seed) == 3  # one group per replica seed
        assert all(row["count"] == 1 for row in by_seed)

    def test_accepts_reader_iterables_and_empty_stores(self, store_ensemble, tmp_path):
        from repro.io.trace_store import TraceStoreWriter, iter_trace_stores

        root, _ = store_ensemble
        readers = list(iter_trace_stores(root))
        from_readers = ensemble_summary_from_stores(readers, "alpha")
        assert from_readers == ensemble_summary_from_stores(str(root), "alpha")
        # An empty (still-warming-up) store counts as missing, not an error.
        TraceStoreWriter(tmp_path / "warming").close()
        rows = ensemble_summary_from_stores(
            [*readers, TraceStoreReader(tmp_path / "warming")], "alpha"
        )
        assert rows[0]["count"] == 3 and rows[0]["missing"] == 1

    def test_unknown_column_and_meta_key_raise(self, store_ensemble):
        root, _ = store_ensemble
        with pytest.raises(AnalysisError, match="no column"):
            ensemble_summary_from_stores(str(root), "nope")
        with pytest.raises(AnalysisError, match="no meta key"):
            ensemble_summary_from_stores(str(root), "alpha", by="job.nope")


class TestResampledCiFromStores:
    @pytest.fixture()
    def store_ensemble(self, tmp_path):
        jobs = [
            dataclasses.replace(job, trace_store=str(tmp_path))
            for job in replica_jobs(n=12, lam=4.0, iterations=600, replicas=3, seed=29)
        ]
        run_ensemble(jobs)
        return tmp_path

    def test_streamed_means_match_materialized_columns(self, store_ensemble):
        from repro.io.trace_store import iter_trace_stores

        readers = list(iter_trace_stores(store_ensemble))
        for burn_in in (0.0, 0.25, 0.9):
            rows = resampled_ci_from_stores(readers, "alpha", burn_in=burn_in)
            materialized = []
            for reader in readers:
                column = reader.column("alpha")
                column = column[int(burn_in * reader.num_rows) :]
                materialized.append(float(np.asarray(column, dtype=float).mean()))
            expected = float(np.mean(materialized))
            assert len(rows) == 1
            assert rows[0]["count"] == 3 and rows[0]["missing"] == 0
            assert rows[0]["mean"] == pytest.approx(expected, abs=1e-10)
            assert rows[0]["std_error"] == pytest.approx(
                float(np.std(materialized, ddof=1) / math.sqrt(3)), abs=1e-10
            )

    def test_interval_brackets_mean_and_is_seed_deterministic(self, store_ensemble):
        first = resampled_ci_from_stores(str(store_ensemble), "alpha", seed=7)
        again = resampled_ci_from_stores(str(store_ensemble), "alpha", seed=7)
        assert first == again
        row = first[0]
        assert row["ci_low"] <= row["mean"] <= row["ci_high"]

    def test_group_by_dotted_meta_path(self, store_ensemble):
        rows = resampled_ci_from_stores(str(store_ensemble), "alpha", by="job.seed")
        assert len(rows) == 3
        # Singleton groups carry a mean but no spread/interval.
        for row in rows:
            assert row["count"] == 1
            assert row["mean"] is not None
            assert row["std_error"] is None and row["ci_low"] is None

    def test_empty_and_fully_burned_stores_count_as_missing(
        self, store_ensemble, tmp_path
    ):
        from repro.io.trace_store import TraceStoreWriter, iter_trace_stores

        readers = list(iter_trace_stores(store_ensemble))
        TraceStoreWriter(tmp_path / "warming").close()
        rows = resampled_ci_from_stores(
            [*readers, TraceStoreReader(tmp_path / "warming")], "alpha"
        )
        assert rows[0]["count"] == 3 and rows[0]["missing"] == 1
        # burn_in arbitrarily close to 1 keeps at least one row per store.
        rows = resampled_ci_from_stores(readers, "alpha", burn_in=0.999)
        assert rows[0]["count"] == 3 and rows[0]["missing"] == 0

    def test_validation(self, store_ensemble):
        with pytest.raises(AnalysisError, match="no column"):
            resampled_ci_from_stores(str(store_ensemble), "nope")
        with pytest.raises(AnalysisError, match="no meta key"):
            resampled_ci_from_stores(str(store_ensemble), "alpha", by="job.nope")
        with pytest.raises(AnalysisError, match="burn_in"):
            resampled_ci_from_stores(str(store_ensemble), "alpha", burn_in=1.0)
        with pytest.raises(AnalysisError, match="level"):
            resampled_ci_from_stores(str(store_ensemble), "alpha", level=0.0)


class TestHittingTimeFromRows:
    def test_matches_trace_scan_over_store(self, tmp_path):
        job = dataclasses.replace(
            replica_jobs(n=12, lam=5.0, iterations=4000, replicas=1, seed=23)[0],
            trace_store=str(tmp_path),
        )
        from repro.runtime import run_job

        result = run_job(job)
        reader = TraceStoreReader(result.trace_store_path)
        alpha = 4.0
        expected = next(
            (p.iteration for p in result.trace.points if p.alpha <= alpha), None
        )
        assert hitting_time_from_rows(reader.iter_rows(), alpha) == expected
        assert hitting_time_from_rows(result.trace.points, alpha) == expected

    def test_none_when_never_compressed(self):
        rows = [{"alpha": 9.0, "iteration": i} for i in range(5)]
        assert hitting_time_from_rows(iter(rows), alpha=2.0) is None

    def test_validation(self):
        with pytest.raises(AnalysisError):
            hitting_time_from_rows([], alpha=1.0)
