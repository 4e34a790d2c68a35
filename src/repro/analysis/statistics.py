"""Time-series and ensemble statistics for simulation output.

Compression traces are autocorrelated Markov chain output; these helpers
provide the standard corrections (autocorrelation functions, batch means,
bootstrap confidence intervals) used when reporting measured perimeters and
compression times.

:func:`ensemble_summary` is the bridge from the parallel ensemble runner:
it consumes the per-chain :class:`~repro.runtime.results.ResultsTable`
streamed out of :func:`repro.runtime.runner.run_ensemble` and reduces
replica columns to means, standard errors and bootstrap confidence
intervals.  (The table is duck-typed here — anything with ``column`` and
``group_by`` works — so the analysis layer stays import-independent of the
runtime layer.)

For ensembles too large to hold in memory there is a parallel iterator
path: :class:`StreamingMoments` (single-pass Welford/Chan accumulation),
:func:`streaming_ensemble_summary` (same row shape as
:func:`ensemble_summary` from a stream of ``(group, value)`` pairs), and
:func:`ensemble_summary_from_stores`, which walks a directory of on-disk
:mod:`repro.io.trace_store` traces reading only each store's final
segment — no trace is ever materialized.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import AnalysisError
from repro.rng import RandomState, make_rng


def autocorrelation(series: Sequence[float], max_lag: int) -> np.ndarray:
    """Normalized autocorrelation function of ``series`` up to ``max_lag``.

    ``result[0]`` is always 1; a slowly decaying tail indicates slow mixing
    of the observable (e.g. the perimeter trace near the phase boundary).
    """
    data = np.asarray(series, dtype=float)
    if data.size < 2:
        raise AnalysisError("need at least two samples")
    if max_lag < 1 or max_lag >= data.size:
        raise AnalysisError("max_lag must be in [1, len(series) - 1]")
    centered = data - data.mean()
    variance = float(np.dot(centered, centered))
    if variance == 0:
        return np.ones(max_lag + 1)
    result = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        result[lag] = float(np.dot(centered[: data.size - lag], centered[lag:])) / variance
    return result


def integrated_autocorrelation_time(series: Sequence[float], max_lag: int = 100) -> float:
    """Integrated autocorrelation time ``1 + 2 * sum_k rho(k)`` with positive-sequence truncation."""
    data = np.asarray(series, dtype=float)
    max_lag = min(max_lag, data.size - 1)
    rho = autocorrelation(data, max_lag)
    tau = 1.0
    for lag in range(1, max_lag + 1):
        if rho[lag] <= 0:
            break
        tau += 2.0 * float(rho[lag])
    return tau


def batch_means(series: Sequence[float], batches: int = 10) -> Tuple[float, float]:
    """Batch-means estimate ``(mean, standard_error)`` for correlated samples."""
    data = np.asarray(series, dtype=float)
    if batches < 2:
        raise AnalysisError("need at least two batches")
    if data.size < batches:
        raise AnalysisError("need at least one sample per batch")
    usable = (data.size // batches) * batches
    matrix = data[:usable].reshape(batches, -1)
    means = matrix.mean(axis=1)
    return float(means.mean()), float(means.std(ddof=1) / np.sqrt(batches))


#: Index cells (resamples x sample size) drawn per chunk of the bootstrap:
#: bounds its index matrix and the gathered values to 8 MB each at any
#: sample size.
_BOOTSTRAP_CHUNK_CELLS = 1 << 20


def _check_bootstrap_args(level: float, resamples: int) -> None:
    if not 0 < level < 1:
        raise AnalysisError("level must lie in (0, 1)")
    if resamples < 1:
        raise AnalysisError(f"resamples must be at least 1, got {resamples}")


def bootstrap_confidence_interval(
    series: Sequence[float],
    level: float = 0.95,
    resamples: int = 2000,
    seed: RandomState = None,
) -> Tuple[float, float]:
    """Percentile bootstrap confidence interval for the mean of ``series``.

    The resample indices are drawn in chunks of ``rows x n`` with one
    ``rng.integers(0, n, size=(rows, n))`` call each.  That is the stream
    a loop of one ``rng.choice(series, size=n, replace=True)`` per
    resample draws, so the interval, and the generator's state afterwards,
    equal that loop's bit for bit.
    """
    data = np.asarray(series, dtype=float)
    if data.size < 2:
        raise AnalysisError("need at least two samples")
    _check_bootstrap_args(level, resamples)
    rng = make_rng(seed)
    means = np.empty(resamples)
    rows = max(1, _BOOTSTRAP_CHUNK_CELLS // data.size)
    for start in range(0, resamples, rows):
        stop = min(start + rows, resamples)
        indices = rng.integers(0, data.size, size=(stop - start, data.size))
        means[start:stop] = data[indices].mean(axis=1)
    lower = float(np.percentile(means, 100 * (1 - level) / 2))
    upper = float(np.percentile(means, 100 * (1 + level) / 2))
    return (lower, upper)


def ensemble_summary(
    table: Any,
    value: str,
    by: Optional[str] = None,
    level: float = 0.95,
    resamples: int = 2000,
    seed: RandomState = 0,
) -> List[Dict[str, Any]]:
    """Reduce an ensemble results table to per-group summary statistics.

    Parameters
    ----------
    table:
        A :class:`repro.runtime.results.ResultsTable` (or anything exposing
        ``column(name, drop_none=...)`` and ``group_by(key)``).
    value:
        The column to summarize, e.g. ``"final_alpha"`` or
        ``"compression_time"``.  ``None`` cells (budget-exhausted hitting
        times) are dropped and reported in ``"missing"``.
    by:
        Optional grouping column, e.g. ``"lambda"`` for a sweep or ``"n"``
        for a scaling study; ``None`` summarizes the whole table as one group.
    level, resamples, seed:
        Bootstrap confidence-interval parameters; the interval is only
        attached when a group has at least two samples.

    Returns
    -------
    One dict per group (insertion-ordered by first appearance) with keys
    ``group``, ``count``, ``missing``, ``mean``, ``std_error``,
    ``ci_low``/``ci_high`` (``None`` where undefined).
    """
    _check_bootstrap_args(level, resamples)
    groups = {None: table} if by is None else table.group_by(by)
    summaries: List[Dict[str, Any]] = []
    for group_key, group in groups.items():
        raw = group.column(value)
        values = [float(v) for v in raw if v is not None]
        summaries.append(
            _bootstrap_row(group_key, values, len(raw) - len(values), level, resamples, seed)
        )
    return summaries


def _summary_row(
    group: Any,
    count: int,
    missing: int,
    mean: Optional[float] = None,
    std_error: Optional[float] = None,
    ci: Tuple[Optional[float], Optional[float]] = (None, None),
) -> Dict[str, Any]:
    """One summary row, shaped alike by every summary of this module."""
    return {
        "group": group,
        "count": count,
        "missing": missing,
        "mean": mean,
        "std_error": std_error,
        "ci_low": ci[0],
        "ci_high": ci[1],
    }


def _bootstrap_row(
    group: Any,
    values: Sequence[float],
    missing: int,
    level: float,
    resamples: int,
    seed: RandomState,
) -> Dict[str, Any]:
    """The summary row of a materialized sample: its mean, and from two
    values on its standard error and percentile-bootstrap interval."""
    data = np.asarray(values, dtype=float)
    mean = float(data.mean()) if data.size else None
    if data.size < 2:
        return _summary_row(group, data.size, missing, mean)
    return _summary_row(
        group,
        data.size,
        missing,
        mean,
        float(data.std(ddof=1) / np.sqrt(data.size)),
        bootstrap_confidence_interval(data, level=level, resamples=resamples, seed=seed),
    )


# ---------------------------------------------------------------------- #
# Iterator-based paths for on-disk ensembles
# ---------------------------------------------------------------------- #
class StreamingMoments:
    """Single-pass count/mean/variance accumulation (Welford/Chan).

    The constant-memory replacement for ``np.asarray(values).mean()`` when
    the values come out of an on-disk ensemble: scalars go through
    :meth:`update`, whole segment arrays through :meth:`extend` (Chan's
    pairwise merge, so segment-at-a-time accumulation is numerically
    stable), and the resulting ``mean``/``std_error`` agree with the
    materialized computation to floating-point accuracy.
    """

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, value: float) -> None:
        """Fold in one sample."""
        self.count += 1
        delta = float(value) - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (float(value) - self.mean)

    def extend(self, values: Union[Sequence[float], np.ndarray]) -> None:
        """Fold in a batch of samples (one trace-store segment, typically)."""
        data = np.asarray(values, dtype=float)
        if data.size == 0:
            return
        batch_mean = float(data.mean())
        batch_m2 = float(((data - batch_mean) ** 2).sum())
        total = self.count + data.size
        delta = batch_mean - self.mean
        self.mean += delta * data.size / total
        self._m2 += batch_m2 + delta * delta * self.count * data.size / total
        self.count = total

    @property
    def variance(self) -> float:
        """Sample variance (``ddof=1``); ``nan`` below two samples."""
        if self.count < 2:
            return float("nan")
        return self._m2 / (self.count - 1)

    @property
    def std_error(self) -> float:
        """Standard error of the mean; ``nan`` below two samples."""
        if self.count < 2:
            return float("nan")
        return math.sqrt(self.variance / self.count)


def _normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation).

    Accurate to ~1e-9 over (0, 1) — far below the statistical noise of any
    ensemble this is applied to; keeps the streaming summary scipy-free.
    """
    if not 0.0 < p < 1.0:
        raise AnalysisError(f"quantile argument must lie in (0, 1), got {p}")
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


def streaming_ensemble_summary(
    items: Iterable[Tuple[Any, Optional[float]]],
    level: float = 0.95,
) -> List[Dict[str, Any]]:
    """Single-pass, constant-memory-per-group analogue of :func:`ensemble_summary`.

    Parameters
    ----------
    items:
        An iterable of ``(group, value)`` pairs — e.g. one pair per
        on-disk trace store.  ``value=None`` counts as ``missing`` for its
        group, mirroring the budget-exhausted-hitting-time convention.
    level:
        Confidence level of the interval.

    Returns
    -------
    The same row shape as :func:`ensemble_summary` (``group``, ``count``,
    ``missing``, ``mean``, ``std_error``, ``ci_low``/``ci_high``), in
    first-appearance group order.  The one semantic difference is the
    interval: bootstrapping requires materializing the sample, so the
    streaming path reports the normal-approximation interval
    ``mean ± z * std_error`` instead — equal in the large-ensemble limit
    this path exists for.
    """
    if not 0 < level < 1:
        raise AnalysisError("level must lie in (0, 1)")
    moments: Dict[Any, StreamingMoments] = {}
    missing: Dict[Any, int] = {}
    for group, value in items:
        accumulator = moments.get(group)
        if accumulator is None:
            accumulator = moments[group] = StreamingMoments()
            missing[group] = 0
        if value is None:
            missing[group] += 1
        else:
            accumulator.update(float(value))
    z = _normal_quantile((1.0 + level) / 2.0)
    summaries: List[Dict[str, Any]] = []
    for group, accumulator in moments.items():
        count, mean = accumulator.count, accumulator.mean
        if count < 2:
            summaries.append(_summary_row(group, count, missing[group], mean if count else None))
            continue
        se = accumulator.std_error
        summaries.append(
            _summary_row(group, count, missing[group], mean, se, (mean - z * se, mean + z * se))
        )
    return summaries


def ensemble_summary_from_stores(
    stores: Any,
    value: str,
    by: Optional[str] = None,
    level: float = 0.95,
) -> List[Dict[str, Any]]:
    """Summarize the final recorded ``value`` across on-disk trace stores.

    Runs entirely over :mod:`repro.io.trace_store` readers — only each
    store's *final segment* is read, so an ensemble of 10^8-row traces
    summarizes in milliseconds without materializing anything.

    Parameters
    ----------
    stores:
        A trace-store ensemble root directory (each job's store a
        subdirectory, as written by the runtime's ``trace_store=`` jobs),
        or an iterable of :class:`~repro.io.trace_store.TraceStoreReader`
        objects / store directories.
    value:
        Trace column to summarize at the final recorded row, e.g.
        ``"alpha"`` or ``"perimeter"``.
    by:
        Optional manifest-meta key to group by — the job runners stamp
        ``"lambda"``, ``"n"``, ``"kind"`` and the full ``"job"``
        fingerprint into every manifest, and nested job fields are
        reachable as ``"job.gamma"``-style dotted paths.
    level:
        Confidence level for the normal-approximation interval (see
        :func:`streaming_ensemble_summary`).

    Stores with no committed rows yet (a crashed writer, a run still
    warming up) are counted as ``missing`` rather than refused, so the
    summary can run while an ensemble is still being written.
    """
    def items() -> Iterator[Tuple[Any, Optional[float]]]:
        for reader in _store_readers(stores):
            group = _store_meta_key(reader, by)
            if reader.num_rows == 0:
                yield group, None
                continue
            row = reader.final_row()
            if value not in row:
                raise AnalysisError(
                    f"store {reader.directory} has no column {value!r} "
                    f"(columns: {reader.column_names})"
                )
            yield group, float(row[value])

    return streaming_ensemble_summary(items(), level=level)


def _store_readers(stores: Any) -> Iterator[Any]:
    """Normalize a store ensemble argument to an iterator of readers.

    Accepts an ensemble root directory (string or path), or an iterable
    mixing :class:`~repro.io.trace_store.TraceStoreReader` objects and
    store directories — the contract shared by every ``*_from_stores``
    entry point in this module.
    """
    from repro.io.trace_store import TraceStoreReader, iter_trace_stores

    if isinstance(stores, (str,)) or hasattr(stores, "__fspath__"):
        yield from iter_trace_stores(stores)
        return
    for item in stores:
        yield item if isinstance(item, TraceStoreReader) else TraceStoreReader(item)


def _store_meta_key(reader: Any, by: Optional[str]) -> Any:
    """Resolve a (possibly dotted) manifest-meta grouping key for a store."""
    if by is None:
        return None
    node: Any = reader.meta
    for part in by.split("."):
        if not isinstance(node, dict) or part not in node:
            raise AnalysisError(f"store {reader.directory} has no meta key {by!r}")
        node = node[part]
    return node


def resampled_ci_from_stores(
    stores: Any,
    value: str,
    by: Optional[str] = None,
    level: float = 0.95,
    resamples: int = 2000,
    seed: RandomState = 0,
    burn_in: float = 0.0,
) -> List[Dict[str, Any]]:
    """Bootstrap CIs over the *full recorded columns* of on-disk trace stores.

    Post-hoc re-analysis of an archived ensemble:
    :func:`ensemble_summary_from_stores` summarizes each run by the final
    recorded row alone, which answers "where did the chains end up" but
    wastes every earlier sample.  This function instead reduces each
    store to the **time-average** of the requested column over its whole
    trace (optionally discarding a ``burn_in`` fraction of the earliest
    rows), then resamples *stores* with replacement for a percentile
    bootstrap interval of that per-run average — runs are the independent
    unit, so this is the statistically honest resampling axis; the
    correlated samples within one trace are never bootstrapped across.

    The per-store reduction streams segment by segment through
    :meth:`StreamingMoments.extend`, so memory stays bounded by one
    segment regardless of trace length; the agreement test pins the
    streamed average to the materialized ``reader.column(...)`` average.

    Parameters
    ----------
    stores:
        As for :func:`ensemble_summary_from_stores`: an ensemble root
        directory, or an iterable of readers / store directories.
    value:
        Trace column to average per store, e.g. ``"alpha"``.
    by:
        Optional manifest-meta grouping key (dotted paths reach nested
        job fields, e.g. ``"job.gamma"``).
    level, resamples, seed:
        Percentile-bootstrap parameters, as for
        :func:`bootstrap_confidence_interval`.  The interval is attached
        when a group has at least two contributing stores.
    burn_in:
        Fraction in ``[0, 1)`` of each store's recorded rows to discard
        from the front before averaging (equilibration cut).

    Returns
    -------
    One row per group, in first-appearance order, shaped exactly like
    :func:`ensemble_summary` rows: ``group``, ``count``, ``missing``,
    ``mean``, ``std_error``, ``ci_low``/``ci_high``.  Stores with no
    rows surviving the burn-in cut count as ``missing``.
    """
    _check_bootstrap_args(level, resamples)
    if not 0 <= burn_in < 1:
        raise AnalysisError(f"burn_in must lie in [0, 1), got {burn_in}")
    store_means: Dict[Any, List[float]] = {}
    missing: Dict[Any, int] = {}
    for reader in _store_readers(stores):
        group = _store_meta_key(reader, by)
        if group not in store_means:
            store_means[group] = []
            missing[group] = 0
        rows = reader.num_rows
        skip = int(burn_in * rows)
        if rows - skip <= 0:
            missing[group] += 1
            continue
        if value not in reader.column_names:
            raise AnalysisError(
                f"store {reader.directory} has no column {value!r} "
                f"(columns: {reader.column_names})"
            )
        moments = StreamingMoments()
        seen = 0
        for segment in reader.iter_column(value):
            chunk = np.asarray(segment, dtype=float)
            if seen < skip:
                chunk = chunk[skip - seen :]
            seen += len(segment)
            if chunk.size:
                moments.extend(chunk)
        store_means[group].append(moments.mean)
    return [
        _bootstrap_row(group, means, missing[group], level, resamples, seed)
        for group, means in store_means.items()
    ]
