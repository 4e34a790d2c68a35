"""Exact stationary-distribution tests for small systems (Lemmas 3.9-3.13).

The compiled-engine agreement test samples ``run_chain``'s sampled path,
so ``pytest --native-library PATH`` runs it against another build of
``chain_loops.c``.
"""

import numpy as np
import pytest

from repro.analysis.mixing import empirical_distribution, total_variation_distance
from repro.core.fast_chain import FastCompressionChain
from repro.core.stationary import (
    MAX_EXACT_PARTICLES,
    build_state_space,
    exact_stationary_distribution,
    stationary_distribution_from_matrix,
    transition_matrix,
    verify_aperiodicity,
    verify_detailed_balance,
    verify_irreducibility,
    verify_transience_of_holes,
)
from repro.errors import AnalysisError
from repro.lattice.shapes import line


@pytest.fixture(scope="module")
def space4():
    return build_state_space(4)


@pytest.fixture(scope="module")
def matrix4(space4):
    return transition_matrix(space4, lam=3.0)


class TestStateSpace:
    def test_counts(self, space4):
        assert space4.size == 44
        assert space4.hole_free.all()
        assert len(space4.hole_free_indices) == 44

    def test_six_particle_space_contains_one_holey_state(self):
        space = build_state_space(6)
        assert space.size == 814
        assert int(space.hole_free.sum()) == 813

    def test_hole_free_only_space(self):
        space = build_state_space(6, include_holes=False)
        assert space.size == 813

    def test_size_limit(self):
        with pytest.raises(AnalysisError):
            build_state_space(MAX_EXACT_PARTICLES + 1)
        with pytest.raises(AnalysisError):
            build_state_space(0)


class TestTransitionMatrix:
    def test_rows_sum_to_one(self, matrix4):
        assert np.allclose(matrix4.sum(axis=1), 1.0)
        assert (matrix4 >= 0).all()

    def test_self_loops_present(self, space4, matrix4):
        assert verify_aperiodicity(space4, matrix4)

    def test_irreducible_on_hole_free_states(self, space4, matrix4):
        assert verify_irreducibility(space4, matrix4)

    def test_lambda_must_be_positive(self, space4):
        with pytest.raises(AnalysisError):
            transition_matrix(space4, lam=0.0)


class TestStationaryDistribution:
    def test_algebraic_form_matches_matrix_solution(self, space4, matrix4):
        """pi(sigma) ∝ lambda^{e(sigma)} solves pi M = pi (Lemma 3.13)."""
        exact = exact_stationary_distribution(space4, lam=3.0)
        solved = stationary_distribution_from_matrix(matrix4)
        assert np.allclose(exact, solved, atol=1e-8)
        assert exact.sum() == pytest.approx(1.0)

    def test_detailed_balance(self, space4, matrix4):
        exact = exact_stationary_distribution(space4, lam=3.0)
        assert verify_detailed_balance(space4, matrix4, exact)

    def test_stationarity_under_one_step(self, space4, matrix4):
        exact = exact_stationary_distribution(space4, lam=3.0)
        assert np.allclose(exact @ matrix4, exact, atol=1e-12)

    def test_holey_states_have_zero_stationary_mass(self):
        """Lemma 3.12: any stationary distribution vanishes on Omega \\ Omega*."""
        space = build_state_space(6)
        matrix = transition_matrix(space, lam=2.5)
        exact = exact_stationary_distribution(space, lam=2.5)
        solved = stationary_distribution_from_matrix(matrix)
        holey = ~space.hole_free
        assert np.all(exact[holey] == 0.0)
        assert np.allclose(solved[holey], 0.0, atol=1e-8)
        assert np.allclose(exact, solved, atol=1e-7)
        assert verify_transience_of_holes(space, matrix)

    def test_uniform_distribution_when_lambda_is_one(self, space4):
        exact = exact_stationary_distribution(space4, lam=1.0)
        assert np.allclose(exact, 1.0 / space4.size)

    def test_larger_lambda_concentrates_on_compressed_states(self, space4):
        weak = exact_stationary_distribution(space4, lam=1.5)
        strong = exact_stationary_distribution(space4, lam=6.0)
        perimeters = np.array([state.perimeter for state in space4.states], dtype=float)
        assert perimeters @ strong < perimeters @ weak

    def test_distribution_requires_hole_free_states(self):
        space = build_state_space(3)
        with pytest.raises(AnalysisError):
            exact_stationary_distribution(space, lam=0.0)


class TestEmpiricalAgreement:
    def test_simulated_chain_visits_states_per_the_stationary_distribution(self):
        """Simulation-level confirmation of Lemma 3.13 for n = 3."""
        space = build_state_space(3)
        exact = exact_stationary_distribution(space, lam=3.0)
        empirical = empirical_distribution(
            space, lam=3.0, iterations=120_000, burn_in=5_000, sample_every=5, seed=0
        )
        assert total_variation_distance(exact, empirical) < 0.05

    @pytest.mark.parametrize("n, lam", [(5, 2.0), (6, 4.0), (7, 3.0)])
    def test_compiled_engine_edge_marginal_matches_the_exact_one(self, n, lam, native_build):
        """The compiled loop samples e(sigma) with the law pi(e) = sum of
        pi(sigma) over the states with e(sigma) = e (Lemma 3.13).

        100k samples, 50 proposals apart, sit at TV 0.001-0.006 from the
        exact marginal; running the engine at 1.1 * lambda moves the
        marginal by 0.04-0.06.
        """
        engine = FastCompressionChain(line(n), lam=lam, seed=0)
        if engine._library is None:
            pytest.skip("the Python loop cannot sample: chain_loops.c did not build")
        space = build_state_space(n)
        exact = exact_stationary_distribution(space, lam)
        edges = np.array([state.edge_count for state in space.states])
        marginal = np.bincount(edges, weights=exact)
        engine.run(10_000)
        samples = engine.run(5_000_000, sample_every=50)
        observed = np.bincount(samples, minlength=len(marginal)) / len(samples)
        assert total_variation_distance(marginal, observed) < 0.02
