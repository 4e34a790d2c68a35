"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload large_n_disc --seed 0 --seconds 30 --trace 0

A run repeats timed passes of the workload (each pass with the same
inputs, made from ``--seed``) until the next pass would overrun
``--seconds``, then checks the outputs.  With ``--trace 0`` it reports the
end-to-end metrics as medians over the passes; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, plus the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The package is
imported from ``src/`` next to this directory; without it the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch directories for pass outputs and traced-run spans (git-ignored).
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"



def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (self-tests)")
    return parser.parse_args(argv)


def git_state() -> Dict[str, Any]:
    """The checkout's commit and dirty flag, or nulls outside a git work tree."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(status.strip())}


def provenance(args: argparse.Namespace, engine: str) -> Dict[str, Any]:
    import numpy
    from repro.runtime import usable_cores

    record = git_state()
    record.update(
        workload=args.workload,
        engine=engine,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        usable_cores=usable_cores(),
        loadavg_before=list(os.getloadavg()),
        numpy=numpy.__version__,
        python=platform.python_version(),
    )
    return record


def cpu_ticks() -> Optional[List[int]]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (None off Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_frac(before: Optional[List[int]], after: Optional[List[int]]) -> Optional[float]:
    """Share of CPU time the hypervisor gave to other guests between two samples."""
    if not before or not after or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total else 0.0


def peak_rss_mb() -> float:
    """The larger of this process's and its reaped children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(passes: list, rss: float) -> Dict[str, float]:
    """Medians over the untraced passes of a run."""
    return {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "chain_it_per_s": statistics.median(
            p.iterations / (p.wall_s - p.setup_s) for p in passes
        ),
        # large_n_disc is a single-job ensemble: jobs_per_s is 1 / wall_s there.
        "jobs_per_s": statistics.median(p.jobs / p.wall_s for p in passes),
        "peak_rss_mb": rss,
    }


def per_layer(passes: list, untraced: list, batches: list) -> Dict[str, float]:
    """Per-pass means of the traced passes' layer times and counts.

    A layer a workload does not exercise reports 0.
    """
    import numpy

    from tracer import aggregate

    traced = len(passes)
    summary = aggregate(batches)
    spans = summary["spans"]

    def self_s(*names: str) -> float:
        return sum(spans.get(name, {}).get("self", 0.0) for name in names) / traced

    def total_s(name: str) -> float:
        return spans.get(name, {}).get("total", 0.0) / traced

    def loop_ns(mode: str) -> float:
        entry = spans.get(f"core.loop.{mode}")
        return 1e9 * entry["self"] / entry["iterations"] if entry and entry["iterations"] else 0.0

    loop_iterations = sum(
        entry["iterations"] for key, entry in spans.items() if key.startswith("core.loop.")
    )
    rng_self = sum(spans.get(name, {}).get("self", 0.0) for name in ("rng.refill", "rng.lists"))
    job_p50, job_p90 = numpy.percentile(summary["job_self"] or [0.0], [50, 90])
    runner_total = total_s("runtime.runner")
    workers = passes[0].workers
    return {
        "lattice.construct_s": self_s("lattice.configuration", "lattice.build_initial"),
        "core.engine_init_s": self_s("core.engine_init"),
        "core.warmup_s": total_s("core.warmup"),
        "core.loop_ns_per_it.edge": loop_ns("edge"),
        "core.loop_ns_per_it.edge_color": loop_ns("edge_color"),
        "core.loop_ns_per_it.edge_site": loop_ns("edge_site"),
        "core.accept_frac": sum(p.accepted for p in passes) / sum(p.iterations for p in passes),
        "rng.refill_ns_per_it": 1e9 * rng_self / loop_iterations if loop_iterations else 0.0,
        "rng.refills": spans.get("rng.refill", {}).get("count", 0) / traced,
        "algorithms.construct_s": self_s("algorithms.construct"),
        "io.sink_open_s": self_s("io.sink_open"),
        "io.sink_append_s": self_s("io.sink_append"),
        "io.sink_close_s": self_s("io.sink_close"),
        "io.fsyncs": summary["counts"].get("io.fsyncs", 0) / traced,
        "io.bytes_written": sum(p.store_bytes for p in passes) / traced,
        "io.read_s": self_s("io.read"),
        "io.bytes_read": summary["read_bytes"] / traced,
        "runtime.checkpoint_store_s": self_s("runtime.checkpoint_store"),
        "runtime.checkpoint_bytes": sum(p.checkpoint_bytes for p in passes) / traced,
        "runtime.job_overhead_s.p50": float(job_p50),
        "runtime.job_overhead_s.p90": float(job_p90),
        "runtime.jobs": sum(p.jobs for p in passes) / traced,
        "runtime.dispatch_s": self_s("runtime.runner"),
        "runtime.pool_busy_frac": total_s("runtime.execute_job") / (workers * runner_total)
        if runner_total
        else 0.0,
        "runtime.retries": sum(p.retries for p in passes) / traced,
        "runtime.quarantined": sum(p.quarantined for p in passes) / traced,
        "analysis.summary_s": self_s("analysis.summary"),
        "analysis.bootstrap_s": self_s("analysis.bootstrap"),
        "trace.unattributed_s": self_s("bench.pass"),
        "trace.overhead_frac": statistics.median(p.wall_s for p in passes)
        / statistics.median(p.wall_s for p in untraced)
        - 1.0,
    }


def declared_units(kind: str) -> Dict[str, str]:
    """Metric name to unit for ``end_to_end`` or ``per_layer``, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def run(args: argparse.Namespace) -> Dict[str, Any]:
    from tracer import Tracer
    from verify import check_pass, payload_digest
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    record = provenance(args, workload.engine)
    print("provenance " + json.dumps(record, sort_keys=True), flush=True)

    tag = f"{args.workload}-s{args.seed}-{os.getpid()}"
    scratch = WORK / tag
    tracer = Tracer(scratch / "spool") if args.trace else None
    untraced: list = []
    traced: list = []
    batches: list = []
    durations: List[float] = []
    digests: List[str] = []
    ticks = cpu_ticks()
    started = time.perf_counter()
    try:
        while True:
            use_tracer = tracer is not None and len(untraced) > len(traced)
            # Start every pass with nothing left for the disk to write back
            # and no garbage left from the previous pass.
            os.sync()
            gc.collect()
            began = time.perf_counter()
            if use_tracer:
                tracer.install()
                try:
                    result = workload.run_pass(scratch / f"pass{len(durations)}", tracer)
                finally:
                    tracer.uninstall()
                batches += tracer.take()
                traced.append(result)
            else:
                result = workload.run_pass(scratch / f"pass{len(durations)}")
                untraced.append(result)
            durations.append(time.perf_counter() - began)
            digests.append(payload_digest(result.payload))
            if len(durations) > 1:
                # Only the first pass is checked in full; holding every
                # pass's results would slow later passes' garbage collection.
                result.payload, result.results, result.final_nodes = {}, [], None
            print(
                f"pass {len(durations)} {'traced' if use_tracer else 'untraced'}: "
                f"setup_s={result.setup_s:.4f} wall_s={result.wall_s:.4f}",
                flush=True,
            )
            elapsed = time.perf_counter() - started
            enough = untraced and (tracer is None or traced)
            if enough and elapsed + statistics.median(durations) > args.seconds:
                break
        rss = peak_rss_mb()
        record["cpu_steal_frac"] = steal_frac(ticks, cpu_ticks())

        # Output checks, after the timed region.
        problems = check_pass(workload, untraced[0], sample_index=args.seed)
        problems += [
            f"pass {index} payload differs from pass 1"
            for index, digest in enumerate(digests[1:], start=2)
            if digest != digests[0]
        ]
    finally:
        # Pass outputs are deleted only now, outside every timed region:
        # deleting them between passes slowed the next passes' fsyncs as
        # the file system processed the freed blocks.  The sync settles
        # that before the next run starts.
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
        os.sync()

    every = untraced + traced
    attempted = sum(p.jobs for p in every)
    failed = sum(p.quarantined for p in every) + len(problems)
    record["loadavg_after"] = list(os.getloadavg())
    record["passes"] = {"untraced": len(untraced), "traced": len(traced)}
    record["payload_digest"] = digests[0]
    print("provenance_after " + json.dumps(record, sort_keys=True))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"failed_frac {failed / attempted:.6g} (failed {failed} of {attempted} jobs attempted)")

    if args.trace:
        values = per_layer(traced, untraced, batches)
        units = declared_units("per_layer")
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}-s{args.seed}.json", "w", encoding="utf-8") as handle:
            json.dump({"provenance": record, "batches": batches}, handle)
    else:
        values = end_to_end(untraced, rss)
        units = declared_units("end_to_end")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
