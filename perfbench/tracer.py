"""Span tracing for the benchmark's traced mode, installed from outside ``src/``.

:meth:`Tracer.install` wraps the public entry points of each layer of the
``repro`` package in place (class methods and module attributes), and
:meth:`Tracer.uninstall` restores the originals.  A span is recorded as
``[name, start, end, parent, job_id, attrs]`` in an in-memory list; the
layer is the part of the name before the first dot.  Pool workers forked
while the wrappers are installed inherit them, start a fresh span list on
their first job, and append their spans to a per-pid spool file after
every job; :meth:`Tracer.take` reads those files back.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

Span = List[Any]  # [name, start, end, parent index or -1, job_id, attrs]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one process nest properly (a single thread records them), so
    the children of a span cover disjoint parts of its interval.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [span[2] - span[1] - child[index] for index, span in enumerate(spans)]


class _NullTracer:
    """The untraced mode: spans the benchmark opens itself cost nothing."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


NULL_TRACER = _NullTracer()


class Tracer:
    """Record spans and counts at the layer boundaries of ``repro``."""

    def __init__(self, spool: Path) -> None:
        self.spool = spool
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = {}
        self.job_id: Optional[str] = None
        self.pid = os.getpid()
        self.forked = False
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job_id, None])
        self.stack.append(index)
        return index

    def _close(self, index: int, attrs: Optional[Dict[str, Any]] = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = attrs
        self.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself (e.g. a whole pass)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        attrs_of: Optional[Callable[[tuple, Any], Dict[str, Any]]] = None,
    ) -> None:
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer._close(index, attrs_of(args, result) if attrs_of else None)

        traced.__wrapped__ = original
        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def _wrap_job(self, module: Any) -> None:
        original = module.execute_job
        tracer = self

        def traced_execute_job(job):
            if os.getpid() != tracer.pid:
                # A forked pool worker: drop the spans copied from the parent.
                tracer.pid = os.getpid()
                tracer.spans, tracer.stack, tracer.counts = [], [], {}
                tracer.forked = True
            tracer.job_id = job.job_id
            index = tracer._open("runtime.execute_job")
            try:
                return original(job)
            finally:
                tracer._close(index)
                tracer.job_id = None
                if tracer.forked:
                    tracer._spool_batch()

        setattr(module, "execute_job", traced_execute_job)
        self._patches.append((module, "execute_job", original))

    def _count_fsync(self) -> None:
        original = os.fsync

        def counted_fsync(fd):
            self.counts["io.fsyncs"] = self.counts.get("io.fsyncs", 0) + 1
            return original(fd)

        os.fsync = counted_fsync
        self._patches.append((os, "fsync", original))

    def _spool_batch(self) -> None:
        """Append this worker's spans and counts as one line of its spool file."""
        line = json.dumps({"spans": self.spans, "counts": self.counts})
        with open(self.spool / f"spans-{os.getpid()}.jsonl", "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        self.spans, self.counts = [], {}

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every traced entry point of the package."""
        from repro.algorithms.separation import SeparationMarkovChain
        from repro.algorithms import shortcut_bridging
        from repro.analysis import statistics
        from repro.core.compression import CompressionSimulation
        from repro.core.fast_chain import FastCompressionChain
        from repro.core.vector_chain import VectorCompressionChain
        from repro.io.trace_store import TraceStoreReader, TraceStoreSink
        from repro.lattice.configuration import ParticleConfiguration
        from repro.rng import BatchedMoveDraws
        from repro.runtime import checkpoint, jobs, runner, supervision

        def loop_attrs(args, _):
            return {"mode": args[0].kernel.mode, "iterations": args[1]}

        def nbytes(_, array):
            return {"bytes": int(array.nbytes) if array is not None else 0}

        self.spool.mkdir(parents=True, exist_ok=True)
        self._wrap(ParticleConfiguration, "__init__", "lattice.configuration")
        for job_class in (jobs.ChainJob, jobs.SeparationJob):
            self._wrap(job_class, "build_initial", "lattice.build_initial")
        self._wrap(jobs.BridgingJob, "build_terrain", "lattice.build_initial")
        self._wrap(shortcut_bridging, "initial_bridge_configuration", "lattice.build_initial")
        for engine in (CompressionSimulation, FastCompressionChain, VectorCompressionChain):
            self._wrap(engine, "__init__", "core.engine_init")
        self._wrap(CompressionSimulation, "run", "core.record")
        for engine in (FastCompressionChain, VectorCompressionChain):
            self._wrap(engine, "run", "core.loop", loop_attrs)
        self._wrap(BatchedMoveDraws, "refill", "rng.refill")
        self._wrap(BatchedMoveDraws, "lists", "rng.lists")
        self._wrap(BatchedMoveDraws, "lists2", "rng.lists")
        self._wrap(SeparationMarkovChain, "__init__", "algorithms.construct")
        self._wrap(shortcut_bridging.BridgingMarkovChain, "__init__", "algorithms.construct")
        self._wrap(TraceStoreSink, "__init__", "io.sink_open")
        self._wrap(TraceStoreSink, "append", "io.sink_append")
        self._wrap(TraceStoreSink, "close", "io.sink_close")
        self._wrap(TraceStoreReader, "__init__", "io.read")
        self._wrap(TraceStoreReader, "segment_column", "io.read", nbytes)
        self._wrap(checkpoint.EnsembleCheckpoint, "__init__", "runtime.checkpoint_store")
        self._wrap(checkpoint.EnsembleCheckpoint, "store", "runtime.checkpoint_store")
        self._wrap(checkpoint.EnsembleCheckpoint, "store_failure", "runtime.checkpoint_store")
        self._wrap(runner.EnsembleRunner, "run", "runtime.runner")
        self._wrap(statistics, "ensemble_summary_from_stores", "analysis.summary")
        self._wrap(statistics, "resampled_ci_from_stores", "analysis.bootstrap")
        self._wrap_job(supervision)
        self._wrap_job(runner)
        self._count_fsync()

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # Reading back
    # ------------------------------------------------------------------ #
    def take(self) -> List[Dict[str, Any]]:
        """Every batch recorded since the last call: this process's own spans
        and the pool workers' spool files, which are consumed."""
        batches = [{"spans": self.spans, "counts": self.counts}]
        self.spans, self.counts = [], {}
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                batches += [json.loads(line) for line in handle if line.strip()]
            path.unlink()
        return batches


def aggregate(batches: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum self time, inclusive time and count per span name, across batches.

    ``core.loop`` spans are also split by kernel mode (``core.loop.edge``
    and so on, with their iteration counts), ``runtime.execute_job`` self
    times are kept per job, and ``io.read`` bytes are summed.
    """
    totals: Dict[str, Dict[str, float]] = {}
    job_self: List[float] = []
    counts: Dict[str, int] = {}
    read_bytes = 0

    def add(key: str, self_time: float, duration: float, iterations: int = 0) -> None:
        entry = totals.setdefault(key, {"self": 0.0, "total": 0.0, "count": 0, "iterations": 0})
        entry["self"] += self_time
        entry["total"] += duration
        entry["count"] += 1
        entry["iterations"] += iterations

    for batch in batches:
        spans = batch["spans"]
        for key, value in batch["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for span, own in zip(spans, self_times(spans)):
            name, start, end, _, _, attrs = span
            add(name, own, end - start)
            if name == "core.loop":
                add(f"core.loop.{attrs['mode']}", own, end - start, attrs["iterations"])
            elif name == "runtime.execute_job":
                job_self.append(own)
            elif attrs and "bytes" in attrs:
                read_bytes += attrs["bytes"]
    return {"spans": totals, "job_self": job_self, "counts": counts, "read_bytes": read_bytes}
