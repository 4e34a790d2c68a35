"""Steadiness report: run workloads k times and show each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --runs 10 --seconds 30
    python3 perfbench/steadiness.py --workloads lambda_sweep --runs 5 --first-seed 1

Each run is a separate ``run.py`` process with its own ``--seed``
(``first-seed``, ``first-seed + 1``, ...), executed one after another.
For every end-to-end metric the report prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the quartile spread
``(q3 - q1) / median`` beside the metric's bound from ``BENCHMARK.json``; a
spread above a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    began = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - began
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return {"median": centre, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(centre) if centre else float("inf")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}

    for workload in args.workloads:
        values: Dict[str, List[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds)
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT ({result['failed']} failed)")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed} ({result['elapsed_s']:.1f} s): "
                  + " ".join(f"{name}={values[name][-1]:.6g}" for name in bounds), flush=True)
        print(f"\n{workload}: {args.runs} runs of {args.seconds} s")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, series in values.items():
            row = spread(series)
            bound = bounds[name]
            flag = " <-- above bound/3" if row["spread"] > bound / 3 else ""
            print(f"  {name:32} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} "
                  f"{row['spread']:8.4f} {bound:>6}{flag}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
