"""Output checks: payload digests for the recorded seed, structure for any seed.

The payload of a pass is, per job, the final perimeter, edges, holes,
accepted moves and rejection counts, plus the analysis rows.  All engines
consume the same draw tape, so the payload of a seed is fixed across engine
swaps; ``digests.json`` records its digest for the default seed at full
size.  For any other seed the checks fall back to structure: no job may be
quarantined, and a final configuration (the single chain's own, or one
ensemble job per kind re-run in-process) must be connected, hole-free and
have the perimeter the run reported.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from repro import BridgingMarkovChain, CompressionSimulation, ParticleConfiguration
from repro import SeparationMarkovChain, initial_bridge_configuration
from repro.runtime import BridgingJob, ChainJob, SeparationJob

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def job_payload(result) -> Dict[str, Any]:
    """The deterministic part of one ensemble job's result."""
    final = result.trace.final()
    return {
        "job_id": result.job.job_id,
        "final_perimeter": final.perimeter,
        "final_edges": final.edges,
        "final_holes": final.holes,
        "accepted_moves": result.accepted_moves,
        "rejection_counts": dict(result.rejection_counts),
    }


def _canonical(value: Any) -> Any:
    # Ten significant digits: analysis means may legitimately change in
    # the last bits when a later change reorders a floating-point sum.
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def payload_digest(payload: Dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON form of a pass payload."""
    text = json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def recorded_digest(workload: str, seed: int, smoke: bool) -> Optional[str]:
    """The digest recorded for this workload and seed, if there is one."""
    if smoke:
        return None
    digests = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    return digests.get(workload, {}).get(str(seed))


def check_quarantine(payload: Dict[str, Any]) -> List[str]:
    """No job may have been quarantined."""
    failed = payload.get("failed")
    return [f"quarantined jobs: {failed}"] if failed else []


def check_configuration(nodes: Iterable, perimeter: int, label: str) -> List[str]:
    """A final configuration must be connected, hole-free and have ``perimeter``."""
    configuration = ParticleConfiguration(nodes)
    if not configuration.is_connected:
        # The perimeter is only defined for connected configurations.
        return [f"{label}: final configuration is disconnected"]
    problems = []
    if not configuration.is_hole_free:
        problems.append(f"{label}: final configuration has holes")
    if configuration.perimeter != perimeter:
        problems.append(
            f"{label}: reported perimeter {perimeter}, recomputed {configuration.perimeter}"
        )
    return problems


def rerun_final_nodes(job) -> frozenset:
    """Re-run one ensemble job in-process and return its final node set."""
    if isinstance(job, ChainJob):
        simulation = CompressionSimulation(
            job.build_initial(), lam=job.lam, seed=job.seed, engine=job.engine
        )
        simulation.run(job.iterations, record_every=job.iterations)
        return frozenset(simulation.configuration.nodes)
    if isinstance(job, SeparationJob):
        chain = SeparationMarkovChain(
            job.build_initial(), lam=job.lam, gamma=job.gamma,
            swap_probability=job.swap_probability, seed=job.seed, engine=job.engine,
        )
        chain.chain.run(job.iterations)
        return frozenset(chain.state.nodes)
    if isinstance(job, BridgingJob):
        terrain = job.build_terrain()
        chain = BridgingMarkovChain(
            initial_bridge_configuration(terrain, job.n), terrain, lam=job.lam,
            gamma=job.gamma, seed=job.seed, engine=job.engine,
        )
        chain.chain.run(job.iterations)
        return frozenset(chain.configuration.nodes)
    raise TypeError(f"no re-run recipe for {type(job).__name__}")


def check_pass(workload, result, sample_index: int) -> List[str]:
    """Every check of one pass; an empty list means the output is correct.

    ``sample_index`` picks the ensemble job re-run in-process (one per
    job kind), so a different seed also varies which job is re-checked.
    """
    problems = check_quarantine(result.payload)
    if result.final_nodes is not None:
        job = result.payload["jobs"][0]
        problems += check_configuration(result.final_nodes, job["final_perimeter"], "disc")
    else:
        if len(result.results) != result.jobs:
            problems.append(f"{len(result.results)} results for {result.jobs} jobs")
        by_kind: Dict[str, list] = {}
        for r in result.results:
            by_kind.setdefault(r.job.kind, []).append(r)
        for _, results in sorted(by_kind.items()):
            sample = results[sample_index % len(results)]
            final = job_payload(sample)["final_perimeter"]
            problems += check_configuration(
                rerun_final_nodes(sample.job), final, sample.job.job_id
            )
        analysis = result.payload.get("analysis", {})
        for name, rows in analysis.items():
            counted = sum(row["count"] for row in rows)
            if counted != result.jobs or any(row["missing"] for row in rows):
                problems.append(f"analysis {name}: {counted} stores of {result.jobs} jobs")
    expected = recorded_digest(workload.name, workload.seed, workload.smoke)
    if expected is not None and payload_digest(result.payload) != expected:
        problems.append(f"payload digest differs from the one recorded for seed {workload.seed}")
    return problems
