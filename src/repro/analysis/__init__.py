"""Analysis toolkit: counting, bounds, mixing, statistics and experiment harness."""

from repro.analysis.counting import (
    configuration_count_upper_bound,
    perimeter_counts,
    staircase_lower_bound,
    verify_lemma_4_4,
)
from repro.analysis.partition import (
    exact_partition_function,
    lemma_5_1_lower_bound,
    lemma_5_4_lower_bound,
    lemma_5_6_lower_bound,
    log_partition_lower_bounds,
)
from repro.analysis.bounds import (
    alpha_for_lambda,
    beta_for_lambda,
    compression_lambda_threshold,
    expansion_beta_bound_weak,
    peierls_tail_bound,
)
from repro.analysis.mixing import (
    empirical_distribution,
    spectral_gap,
    total_variation_distance,
    tv_distance_to_stationarity,
)
from repro.analysis.convergence import (
    ScalingResult,
    fit_power_law,
    measure_compression_time,
    scaling_study,
)
from repro.analysis.statistics import (
    autocorrelation,
    batch_means,
    bootstrap_confidence_interval,
)
from repro.analysis.experiments import (
    ExperimentRecord,
    run_fig2_compression,
    run_fig10_expansion,
    run_lambda_sweep,
)

__all__ = [
    "configuration_count_upper_bound",
    "perimeter_counts",
    "staircase_lower_bound",
    "verify_lemma_4_4",
    "exact_partition_function",
    "lemma_5_1_lower_bound",
    "lemma_5_4_lower_bound",
    "lemma_5_6_lower_bound",
    "log_partition_lower_bounds",
    "alpha_for_lambda",
    "beta_for_lambda",
    "compression_lambda_threshold",
    "expansion_beta_bound_weak",
    "peierls_tail_bound",
    "empirical_distribution",
    "spectral_gap",
    "total_variation_distance",
    "tv_distance_to_stationarity",
    "ScalingResult",
    "fit_power_law",
    "measure_compression_time",
    "scaling_study",
    "autocorrelation",
    "batch_means",
    "bootstrap_confidence_interval",
    "ExperimentRecord",
    "run_fig2_compression",
    "run_fig10_expansion",
    "run_lambda_sweep",
]
