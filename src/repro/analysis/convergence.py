"""Compression-time measurement and scaling fits (Section 3.7).

The paper conjectures, from simulation, that the number of chain
iterations until compression scales between ``Theta(n^3)`` and ``O(n^4)``
("doubling the number of particles consistently results in about a
ten-fold increase in iterations").  This module measures compression times
across system sizes and fits a power law so the reproduction can report
the same scaling exponent (experiment E10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.compression import CompressionSimulation
from repro.errors import AnalysisError
from repro.rng import RandomState


def hitting_time_from_rows(rows: "Iterable", alpha: float) -> Optional[int]:
    """First recorded iteration whose configuration is alpha-compressed.

    The iterator-based path for on-disk traces: ``rows`` is any stream of
    trace samples — dicts from
    :meth:`repro.io.trace_store.TraceStoreReader.iter_rows`, or
    :class:`~repro.core.compression.TracePoint` objects — scanned in
    order and abandoned at the first hit, so a 10^8-row store is read
    only as far as its hitting point and never materialized.  Returns
    ``None`` when no recorded sample is alpha-compressed (at the
    recording granularity, exactly like
    :meth:`~repro.core.compression.CompressionSimulation.run_until_compressed`
    at its ``check_every`` granularity).
    """
    if alpha <= 1:
        raise AnalysisError(f"alpha must exceed 1, got {alpha}")
    for row in rows:
        if isinstance(row, dict):
            ratio, iteration = row["alpha"], row["iteration"]
        else:
            ratio, iteration = row.alpha, row.iteration
        if ratio <= alpha:
            return int(iteration)
    return None


def measure_compression_time(
    n: int,
    lam: float,
    alpha: float,
    max_iterations: int,
    seed: RandomState = None,
    check_every: int = 2000,
    engine: str = "fast",
) -> Optional[int]:
    """Iterations until a line of ``n`` particles first becomes alpha-compressed.

    Returns ``None`` when the iteration budget is exhausted first.
    """
    simulation = CompressionSimulation.from_line(n, lam=lam, seed=seed, engine=engine)
    return simulation.run_until_compressed(
        alpha=alpha, max_iterations=max_iterations, check_every=check_every
    )


@dataclass
class ScalingResult:
    """Result of a compression-time scaling study.

    Attributes
    ----------
    sizes:
        The system sizes measured.
    times:
        Mean iterations-to-compression per size (``nan`` where every
        repetition exhausted its budget).
    per_size_times:
        The raw measurements, one list per size.
    exponent:
        The fitted power-law exponent ``b`` in ``time ~ a * n^b`` over the
        sizes with successful measurements (``None`` when fewer than two
        sizes succeeded).
    prefactor:
        The fitted prefactor ``a``.
    """

    sizes: List[int]
    times: List[float]
    per_size_times: List[List[Optional[int]]]
    exponent: Optional[float]
    prefactor: Optional[float]


def fit_power_law(sizes: Sequence[float], values: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit of ``values ~ a * sizes^b`` in log-log space; returns ``(a, b)``."""
    sizes = np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float)
    if sizes.shape != values.shape or sizes.size < 2:
        raise AnalysisError("need at least two (size, value) pairs to fit a power law")
    if np.any(sizes <= 0) or np.any(values <= 0):
        raise AnalysisError("power-law fitting requires positive data")
    slope, intercept = np.polyfit(np.log(sizes), np.log(values), deg=1)
    return float(np.exp(intercept)), float(slope)


def scaling_study(
    sizes: Sequence[int],
    lam: float = 4.0,
    alpha: float = 3.0,
    repetitions: int = 2,
    budget_factor: float = 50.0,
    seed: Optional[int] = None,
    engine: str = "fast",
    workers: int = 1,
    checkpoint: Optional[object] = None,
) -> ScalingResult:
    """Measure compression times across sizes and fit the scaling exponent.

    The ``len(sizes) * repetitions`` hitting-time measurements are
    independent chains, submitted through the parallel ensemble runner
    (:mod:`repro.runtime`): each gets a seed spawned from ``seed`` up
    front, so the measured times do not depend on ``workers``, and a
    ``checkpoint`` directory lets a multi-hour study resume.

    Parameters
    ----------
    sizes:
        System sizes ``n`` to measure.
    lam, alpha:
        Chain bias and compression target.
    repetitions:
        Independent runs per size (averaged).
    budget_factor:
        Iteration budget per run is ``budget_factor * n^3`` — generous for
        the conjectured ``Theta(n^3)``-to-``O(n^4)`` scaling at small sizes.
    engine:
        Which Algorithm M engine to run: ``"fast"`` (default, the compiled
        loops) or ``"reference"``; both give the same times for a seed.
    workers:
        Worker processes for the ensemble runner (1 = in-process).
    checkpoint:
        Optional checkpoint directory for resumable studies.
    """
    from repro.runtime.jobs import scaling_time_jobs
    from repro.runtime.runner import run_ensemble

    if repetitions < 1:
        raise AnalysisError("repetitions must be at least 1")
    jobs = scaling_time_jobs(
        sizes=sizes,
        lam=lam,
        alpha=alpha,
        repetitions=repetitions,
        budget_factor=budget_factor,
        seed=seed,
        engine=engine,
    )
    ensemble = run_ensemble(jobs, workers=workers, checkpoint=checkpoint)
    per_size: List[List[Optional[int]]] = []
    means: List[float] = []
    for i, _ in enumerate(sizes):
        group = ensemble.table.where(size_index=i)
        runs = group.column("compression_time")
        per_size.append(runs)
        successful = [float(r) for r in runs if r is not None]
        means.append(float(np.mean(successful)) if successful else float("nan"))
    valid = [(n, t) for n, t in zip(sizes, means) if not np.isnan(t) and t > 0]
    exponent = prefactor = None
    if len(valid) >= 2:
        prefactor, exponent = fit_power_law([v[0] for v in valid], [v[1] for v in valid])
    return ScalingResult(
        sizes=list(sizes),
        times=means,
        per_size_times=per_size,
        exponent=exponent,
        prefactor=prefactor,
    )
