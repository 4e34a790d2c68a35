"""Ledger rows taken in fresh interpreters.

On a 2-vCPU VM one process can run a loop at one of two speeds for its
whole life, so a row that should describe the machine takes its rounds in
several new interpreters and keeps each process's median beside the
pooled quartiles.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro

#: Fresh interpreters per multi-process row.
PROCESSES = 3


def in_fresh_processes(script: str, *args):
    """What ``script`` printed as JSON in each of :data:`PROCESSES` new
    interpreters, with ``benchmarks/`` and the package on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [
            str(Path(__file__).parent),
            str(Path(repro.__file__).resolve().parents[1]),
            env.get("PYTHONPATH", ""),
        ]
    )
    outputs = []
    for _ in range(PROCESSES):
        proc = subprocess.run(
            [sys.executable, "-c", script, *map(str, args)],
            capture_output=True, text=True, env=env, timeout=600, check=True,
        )
        outputs.append(json.loads(proc.stdout))
    return outputs


def spread(per_process: list, scale: float) -> dict:
    """Best, median and quartiles over every round, and each process's median."""
    rounds = scale * np.concatenate(per_process)
    low, high = np.percentile(rounds, [25, 75])
    return {
        "best": float(rounds.min()),
        "median": float(np.median(rounds)),
        "q1": float(low),
        "q3": float(high),
        "process_medians": [float(scale * np.median(times)) for times in per_process],
    }
