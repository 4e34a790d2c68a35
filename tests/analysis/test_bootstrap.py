"""The chunked percentile bootstrap against the per-resample loop it replaced.

``bootstrap_confidence_interval`` draws its resample indices as
``(rows, n)`` blocks of one ``rng.integers`` call each.  The oracle below
is the loop it replaced, one ``rng.choice`` per resample; the two must
give the same interval and leave the generator in the same state, with
one chunk or many.
"""

import numpy as np
import pytest

from repro.analysis import statistics
from repro.analysis.statistics import (
    bootstrap_confidence_interval,
    ensemble_summary,
    resampled_ci_from_stores,
)
from repro.core.compression import CompressionTrace, TracePoint
from repro.errors import AnalysisError
from repro.io.trace_store import write_trace
from repro.runtime.results import ResultsTable


def loop_bootstrap(series, level, resamples, rng):
    """One ``rng.choice`` per resample: the oracle."""
    data = np.asarray(series, dtype=float)
    means = np.empty(resamples)
    for i in range(resamples):
        sample = rng.choice(data, size=data.size, replace=True)
        means[i] = sample.mean()
    lower = float(np.percentile(means, 100 * (1 - level) / 2))
    upper = float(np.percentile(means, 100 * (1 + level) / 2))
    return (lower, upper)


@pytest.mark.parametrize("chunk_cells", [None, 1, 50, 4096])
@pytest.mark.parametrize("n", [2, 3, 6, 7, 9, 100, 1000])
def test_matches_the_choice_loop_in_values_and_generator_state(
    monkeypatch, n, chunk_cells
):
    """``chunk_cells=None`` keeps the module's chunk size (one chunk here);
    the small sizes force many chunks, down to one resample each."""
    if chunk_cells is not None:
        monkeypatch.setattr(statistics, "_BOOTSTRAP_CHUNK_CELLS", chunk_cells)
    resamples = 100 if n >= 1000 else 400
    for seed in range(5):
        series = np.random.default_rng(1000 + seed).normal(loc=2.0, size=n)
        oracle_rng = np.random.default_rng(seed)
        chunked_rng = np.random.default_rng(seed)
        for level in (0.95, 0.5):
            expected = loop_bootstrap(series, level, resamples, oracle_rng)
            got = bootstrap_confidence_interval(
                series, level=level, resamples=resamples, seed=chunked_rng
            )
            assert got == expected, (n, seed, level)
        assert chunked_rng.bit_generator.state == oracle_rng.bit_generator.state


def test_integer_seed_matches_a_fresh_generator():
    series = [0.5, 1.5, 4.0, 2.25, 3.0, 1.0]
    expected = loop_bootstrap(series, 0.95, 2000, np.random.default_rng(11))
    assert bootstrap_confidence_interval(series, seed=11) == expected


@pytest.mark.parametrize("resamples", [0, -3])
def test_rejects_fewer_than_one_resample_at_every_entry_point(tmp_path, resamples):
    with pytest.raises(AnalysisError, match="resamples"):
        bootstrap_confidence_interval([1.0, 2.0, 3.0], resamples=resamples, seed=0)

    table = ResultsTable([{"value": 1.0}, {"value": 2.0}, {"value": 4.0}])
    with pytest.raises(AnalysisError, match="resamples"):
        ensemble_summary(table, "value", resamples=resamples)

    for index in range(2):
        trace = CompressionTrace(n=4, lam=4.0)
        trace.points.append(TracePoint(0, 8, 3, 0, 1.0 + index, 1.0))
        write_trace(trace, tmp_path / f"store-{index}")
    with pytest.raises(AnalysisError, match="resamples"):
        resampled_ci_from_stores(str(tmp_path), "alpha", resamples=resamples)
