"""Machine-readable benchmark output.

Benchmarks call :func:`record` with a name and numeric fields; results are
merged into a ledger file keyed by name (``benchmarks/BENCH_chain.json``
by default; pass ``path`` for a subsystem ledger such as
``BENCH_ensemble.json``), so re-running a single benchmark updates only
its own entry.  The files are the repo's performance ledger: each PR that
touches a hot path re-runs the relevant benchmarks and commits the updated
numbers, giving the project a tracked perf trajectory instead of folklore.

The format is deliberately trivial — one JSON object, one entry per
benchmark, plus a ``_meta`` block — so any later tooling (plots,
regression gates) can consume it without a schema migration.  Each entry
written carries its own ``_meta`` (:func:`provenance`): the git commit
and whether the tree was dirty, the core count, the load average and the
python, numpy and platform versions of the run that measured it.  The
file-level ``_meta`` is the stamp of the last write; entries recorded
before per-entry stamps existed have none and are left as they are.

The ledger also defends itself: overwriting an entry with a throughput
number (any ``*_per_second`` or ``*it_per_s*`` field, or a ``speedup``
variant) more than
30% below the committed value raises :class:`BenchRegressionError`
instead of silently rewriting the perf trajectory.  Pass ``force=True``
(or run with ``--force`` on the command line) after confirming the
regression is intentional — e.g. re-baselining on slower hardware.  On
machines that should never touch the committed ledgers (CI runners of
unknown speed), set ``BENCH_LEDGER_DIR=/some/scratch`` to redirect all
ledger writes while keeping the relative speedup gates enforced.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy

RESULTS_PATH = Path(__file__).parent / "BENCH_chain.json"

#: Fraction of the committed throughput below which an overwrite refuses.
REGRESSION_TOLERANCE = 0.30


class BenchRegressionError(RuntimeError):
    """Refusal to overwrite a ledger entry with a large throughput regression."""


def _is_throughput_key(key: str) -> bool:
    """Whether a field name denotes a guarded throughput/speedup metric.

    The rule, pinned by ``tests/test_bench_emit.py``: any key containing
    ``_per_second`` (``iterations_per_second``, ``activations_per_second``,
    prefixed variants like ``fast_activations_per_second`` and suffixed
    ones like ``iterations_per_second_n1000``) or the short form
    ``it_per_s`` anywhere in the key (``vector_it_per_s``),
    plus ``speedup`` and its ``speedup_*`` / ``*_speedup`` variants.
    Parameter-ish fields (``n``, ``seconds``, ...) are never guarded.
    """
    return (
        "_per_second" in key
        or "it_per_s" in key
        or key == "speedup"
        or key.startswith("speedup_")
        or key.endswith("_speedup")
    )


def _throughput_keys(fields: Dict[str, Any]) -> List[str]:
    return [
        key
        for key, value in fields.items()
        if isinstance(value, (int, float)) and _is_throughput_key(key)
    ]


def _regressions(
    previous: Dict[str, Any], fields: Dict[str, Any]
) -> List[Tuple[str, float, float]]:
    regressions = []
    for key in _throughput_keys(fields):
        old = previous.get(key)
        new = fields[key]
        if isinstance(old, (int, float)) and old > 0 and new < (1 - REGRESSION_TOLERANCE) * old:
            regressions.append((key, float(old), float(new)))
    return regressions


def _load(path: Path) -> Dict[str, Any]:
    if path.exists():
        try:
            with path.open() as fh:
                data = json.load(fh)
            if isinstance(data, dict):
                return data
        except (OSError, ValueError):
            pass
    return {}


def _git(*args: str) -> Optional[str]:
    """The output of a git command in this checkout, or ``None`` outside one."""
    try:
        result = subprocess.run(
            ["git", *args],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return result.stdout.strip()


def provenance() -> Dict[str, Any]:
    """A ``_meta`` block: what machine and code a ledger write measured."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        # Ledgers are usually written before the change they measure is
        # committed: then the sha is its parent's and the tree is dirty.
        "git_dirty": None if status is None else bool(status),
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()) if hasattr(os, "getloadavg") else None,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }


def record(
    name: str,
    path: Optional[Union[str, Path]] = None,
    force: bool = False,
    **fields: Any,
) -> Dict[str, Any]:
    """Merge one benchmark result into a ledger file and return the entry.

    The entry is ``fields`` plus a ``_meta`` stamp of this write, which
    also becomes the file-level ``_meta``; other entries are not touched.

    Parameters
    ----------
    name:
        Stable identifier of the benchmark (the JSON key).
    path:
        Ledger file to update; defaults to ``benchmarks/BENCH_chain.json``.
        Subsystem benchmarks keep their own ledger (e.g. the ensemble
        runner writes ``benchmarks/BENCH_ensemble.json``).
    force:
        Overwrite the entry even if a throughput field regressed by more
        than :data:`REGRESSION_TOLERANCE`; also implied by a ``--force``
        command-line argument.
    fields:
        Numeric results and their parameters, e.g.
        ``record("fast_chain_n1000", engine="fast", n=1000,
        iterations_per_second=2.4e6)``.

    Raises
    ------
    BenchRegressionError
        If the entry already exists and any ``*_per_second``/``speedup``
        field would drop by more than :data:`REGRESSION_TOLERANCE`
        without ``force``.
    """
    if path is not None:
        # Explicit paths (subsystem ledgers, tests) are honored verbatim.
        target = Path(path)
    else:
        target = RESULTS_PATH
        scratch_dir = os.environ.get("BENCH_LEDGER_DIR")
        if scratch_dir:
            # CI and other foreign machines redirect the *committed default
            # ledger* to a scratch directory: the speedup gates
            # (machine-relative ratios) still run, while the committed
            # absolute-throughput rows — recorded on the baseline machine —
            # are neither overwritten nor spuriously compared against.
            target = Path(scratch_dir) / target.name
    data = _load(target)
    previous = data.get(name)
    if isinstance(previous, dict) and not force and "--force" not in sys.argv:
        regressions = _regressions(previous, fields)
        if regressions:
            detail = "; ".join(
                f"{key}: {old:.6g} -> {new:.6g} ({new / old:.0%} of committed)"
                for key, old, new in regressions
            )
            raise BenchRegressionError(
                f"refusing to overwrite ledger entry {name!r} in {target.name} with a "
                f">{REGRESSION_TOLERANCE:.0%} throughput regression ({detail}); pass "
                f"force=True (or --force) if the regression is intentional"
            )
    stamp = provenance()
    data["_meta"] = stamp
    data[name] = {**fields, "_meta": stamp}
    with target.open("w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return data[name]
