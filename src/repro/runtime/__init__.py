"""Parallel ensemble execution for Algorithm M chains.

The runtime subsystem is the single entry point for running *many*
independent chains — lambda sweeps across the compression/expansion phase
boundary, replica ensembles for mixing estimates, and n-scaling studies:

* :mod:`repro.runtime.jobs` — picklable job/result descriptions and the
  standard ensemble builders;
* :mod:`repro.runtime.runner` — one execution path through the
  supervised layer, in-process or on worker processes, with
  submission-order determinism (a 4-worker run is bit-identical per seed
  to a serial run);
* :mod:`repro.runtime.results` — the shared per-chain results table
  consumed by :mod:`repro.analysis.statistics`;
* :mod:`repro.runtime.checkpoint` — atomic per-job persistence so long
  ensembles survive interruption and resume exactly;
* :mod:`repro.runtime.supervision` — fault-tolerant execution: supervised
  worker processes with dead-worker detection and replacement, retry
  policies (backoff, deterministic jitter, supervisor-enforced timeouts),
  quarantined :class:`~repro.runtime.supervision.JobFailure` records, and
  the runner-level fault-injection harness
  (:class:`~repro.runtime.supervision.RunnerFaultPlan`; the amoebot-layer
  particle-fault injector ``FaultPlan`` lives in :mod:`repro.amoebot.faults`).

Quickstart::

    from repro.runtime import lambda_sweep_jobs, run_ensemble

    jobs = lambda_sweep_jobs(n=100, lambdas=[2.0, 4.0, 6.0],
                             iterations=200_000, seed=0, replicas=4)
    ensemble = run_ensemble(jobs, workers=4, checkpoint="sweep_ckpt/")
    print(ensemble.table.summary("final_alpha", by="lambda"))
"""

from repro.runtime.jobs import (
    AMOEBOT_JOB_KIND,
    BRIDGING_JOB_KIND,
    JOB_KINDS,
    SEPARATION_JOB_KIND,
    AmoebotJob,
    BridgingJob,
    ChainJob,
    ChainResult,
    SeparationJob,
    amoebot_replica_jobs,
    bridging_gamma_sweep_jobs,
    execute_job,
    lambda_sweep_jobs,
    replica_jobs,
    run_amoebot_job,
    run_bridging_job,
    run_job,
    run_separation_job,
    scaling_time_jobs,
    separation_replica_jobs,
)
from repro.runtime.results import ResultsTable
from repro.runtime.supervision import (
    FAILURE_POLICIES,
    FAULT_ACTIONS,
    FaultSpec,
    RunnerFaultPlan,
    InjectedFault,
    JobFailure,
    RetryPolicy,
    SupervisedPool,
    run_supervised_serial,
)
from repro.runtime.checkpoint import (
    CheckpointWarning,
    EnsembleCheckpoint,
    chain_result_from_json,
    chain_result_to_json,
    job_failure_from_json,
    job_failure_to_json,
    job_from_json,
    job_to_json,
)
from repro.runtime.runner import (
    EnsembleProgress,
    EnsembleResult,
    EnsembleRunner,
    default_workers,
    run_ensemble,
    usable_cores,
)

__all__ = [
    "AMOEBOT_JOB_KIND",
    "BRIDGING_JOB_KIND",
    "FAILURE_POLICIES",
    "FAULT_ACTIONS",
    "JOB_KINDS",
    "SEPARATION_JOB_KIND",
    "FaultSpec",
    "RunnerFaultPlan",
    "InjectedFault",
    "JobFailure",
    "RetryPolicy",
    "SupervisedPool",
    "run_supervised_serial",
    "job_failure_from_json",
    "job_failure_to_json",
    "AmoebotJob",
    "BridgingJob",
    "ChainJob",
    "ChainResult",
    "SeparationJob",
    "amoebot_replica_jobs",
    "bridging_gamma_sweep_jobs",
    "execute_job",
    "run_amoebot_job",
    "run_bridging_job",
    "run_separation_job",
    "lambda_sweep_jobs",
    "replica_jobs",
    "run_job",
    "scaling_time_jobs",
    "separation_replica_jobs",
    "ResultsTable",
    "CheckpointWarning",
    "EnsembleCheckpoint",
    "chain_result_from_json",
    "chain_result_to_json",
    "job_from_json",
    "job_to_json",
    "EnsembleProgress",
    "EnsembleResult",
    "EnsembleRunner",
    "default_workers",
    "run_ensemble",
    "usable_cores",
]
