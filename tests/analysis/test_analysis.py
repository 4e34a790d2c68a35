"""Tests for the analysis toolkit: counting, bounds, partition function."""

import math

import pytest

from repro.analysis.bounds import (
    alpha_for_lambda,
    beta_for_lambda,
    compression_lambda_threshold,
    compression_probability_lower_bound,
    expansion_beta_bound_weak,
    peierls_tail_bound,
)
from repro.analysis.counting import (
    configuration_count_upper_bound,
    growth_rate_estimate,
    perimeter_counts,
    saw_upper_bound_on_configurations,
    staircase_lower_bound,
    verify_lemma_4_4,
)
from repro.analysis.partition import (
    exact_log_partition_function,
    exact_partition_function,
    lemma_5_1_lower_bound,
    lemma_5_4_lower_bound,
    lemma_5_6_lower_bound,
    log_partition_lower_bounds,
    trivial_lower_bound,
)
from repro.constants import (
    COMPRESSION_THRESHOLD,
    EXPANSION_THRESHOLD,
    EXPANSION_THRESHOLD_WEAK,
    N50,
)
from repro.errors import AnalysisError


class TestThresholdConstants:
    def test_paper_constants(self):
        assert COMPRESSION_THRESHOLD == pytest.approx(2 + math.sqrt(2))
        assert EXPANSION_THRESHOLD == pytest.approx((2 * N50) ** 0.01, rel=1e-12)
        assert 2.17 < EXPANSION_THRESHOLD < 2.18
        assert EXPANSION_THRESHOLD_WEAK == pytest.approx(math.sqrt(2))
        # The proven regimes leave a gap: 2.17 < lambda_c < 3.414.
        assert EXPANSION_THRESHOLD < COMPRESSION_THRESHOLD

    def test_compression_threshold_formula(self):
        # alpha -> infinity pushes lambda* down to 2 + sqrt(2).
        assert compression_lambda_threshold(1000.0) == pytest.approx(
            COMPRESSION_THRESHOLD, rel=1e-2
        )
        # alpha close to 1 requires enormous bias.
        assert compression_lambda_threshold(1.1) > 1e5
        with pytest.raises(AnalysisError):
            compression_lambda_threshold(1.0)

    def test_alpha_and_lambda_threshold_are_inverse(self):
        for lam in [3.5, 4.0, 5.0, 8.0]:
            alpha = alpha_for_lambda(lam)
            assert compression_lambda_threshold(alpha) == pytest.approx(lam, rel=1e-9)
        with pytest.raises(AnalysisError):
            alpha_for_lambda(3.0)

    def test_alpha_decreases_with_lambda(self):
        assert alpha_for_lambda(4.0) > alpha_for_lambda(6.0) > alpha_for_lambda(10.0) > 1.0

    def test_beta_for_lambda_behaviour(self):
        assert 0 < beta_for_lambda(2.0) < beta_for_lambda(1.5) < beta_for_lambda(1.0) < 1
        # Below 1 the weak bound of Corollary 5.3 applies and is continuous-ish.
        assert 0 < beta_for_lambda(0.5) < 1
        assert expansion_beta_bound_weak(1.0) == pytest.approx(
            math.log(math.sqrt(2)) / math.log(COMPRESSION_THRESHOLD)
        )
        with pytest.raises(AnalysisError):
            beta_for_lambda(2.5)
        with pytest.raises(AnalysisError):
            beta_for_lambda(0.0)

    def test_peierls_tail_bound_decreases_with_n_and_lambda(self):
        small_n = peierls_tail_bound(100, 6.0, 4.0)
        large_n = peierls_tail_bound(10_000, 6.0, 4.0)
        assert large_n < small_n
        assert large_n < 1e-5
        stronger_bias = peierls_tail_bound(400, 10.0, 4.0)
        assert stronger_bias < peierls_tail_bound(400, 6.0, 4.0)
        assert 0 <= compression_probability_lower_bound(10_000, 6.0, 4.0) <= 1
        with pytest.raises(AnalysisError):
            peierls_tail_bound(400, 3.0, 4.0)


class TestCounting:
    def test_staircase_lower_bound(self):
        assert staircase_lower_bound(5) == 16
        counts = perimeter_counts(5)
        assert counts[8] >= staircase_lower_bound(5)

    def test_lemma_4_4_holds_for_enumerable_sizes(self):
        for n in [3, 4, 5, 6]:
            assert verify_lemma_4_4(n, nu=3.6)
        with pytest.raises(AnalysisError):
            configuration_count_upper_bound(5, nu=3.0)

    def test_saw_upper_bound_dominates_exact_counts(self):
        counts = perimeter_counts(4)
        for perimeter, count in counts.items():
            if 2 * perimeter + 6 <= 20:
                assert saw_upper_bound_on_configurations(perimeter) >= count

    def test_growth_rate_estimate_is_reasonable(self):
        rate = growth_rate_estimate(6)
        assert 3.0 < rate < 6.0


class TestPartitionFunction:
    def test_exact_partition_function_small_cases(self):
        # n = 2: one configuration (up to translation has 3 orientations) of perimeter 2.
        assert exact_partition_function(2, 2.0) == pytest.approx(3 * 2.0 ** -2)

    @pytest.mark.parametrize("lam", [1.0, 1.3, 1.8])
    @pytest.mark.parametrize("n", [5, 6])
    def test_lower_bounds_are_lower_bounds(self, n, lam):
        exact = exact_log_partition_function(n, lam)
        assert lemma_5_1_lower_bound(n, lam) <= exact + 1e-9
        assert lemma_5_4_lower_bound(n, lam) <= exact + 1e-9
        assert lemma_5_6_lower_bound(n, lam) <= exact + 1e-9
        assert trivial_lower_bound(n, lam) <= exact + 1e-9

    def test_bound_ordering_for_large_systems(self):
        """For lambda >= 1 the N50-based bound dominates the weaker ones at scale."""
        n, lam = 10_000, 1.5
        assert lemma_5_6_lower_bound(n, lam) > lemma_5_4_lower_bound(n, lam)
        assert lemma_5_4_lower_bound(n, lam) > lemma_5_1_lower_bound(n, lam)

    def test_bounds_dictionary(self):
        bounds = log_partition_lower_bounds(8, 1.2)
        assert set(bounds) == {"trivial (Thm 4.5)", "Lemma 5.1", "Lemma 5.4", "Lemma 5.6"}
        bounds_small_lambda = log_partition_lower_bounds(8, 0.7)
        assert "Lemma 5.6" not in bounds_small_lambda

    def test_validation(self):
        with pytest.raises(AnalysisError):
            exact_partition_function(4, 0.0)
        with pytest.raises(AnalysisError):
            lemma_5_6_lower_bound(10, 0.5)
