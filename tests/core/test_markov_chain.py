"""Tests for Algorithm M: the compression Markov chain."""

import pytest

from repro.core.fast_chain import FastCompressionChain
from repro.core.kernels import MOVEMENT_REJECTION_REASONS
from repro.core.markov_chain import CompressionMarkovChain, StepResult
from repro.errors import ConfigurationError
from repro.lattice.configuration import ParticleConfiguration
from repro.lattice.shapes import line, random_connected, ring, spiral


class TestConstruction:
    def test_requires_connected_start(self):
        with pytest.raises(ConfigurationError):
            CompressionMarkovChain(ParticleConfiguration([(0, 0), (5, 5)]), lam=4.0)

    def test_requires_positive_lambda(self, line10):
        with pytest.raises(ConfigurationError):
            CompressionMarkovChain(line10, lam=0.0)

    def test_initial_state_exposed(self, line10):
        chain = CompressionMarkovChain(line10, lam=4.0, seed=0)
        assert chain.n == 10
        assert chain.configuration == line10
        assert chain.edge_count == 9
        assert chain.iterations == 0


class TestStepAccounting:
    def test_step_results_have_valid_reasons(self, line10):
        chain = CompressionMarkovChain(line10, lam=4.0, seed=1)
        for _ in range(500):
            result = chain.step()
            assert isinstance(result, StepResult)
            assert result.reason in MOVEMENT_REJECTION_REASONS + ("moved",)
            assert result.moved == (result.reason == "moved")
        assert chain.iterations == 500
        counts = chain.rejection_counts
        assert chain.accepted_moves + sum(counts.values()) == 500

    def test_incremental_edge_count_matches_recount(self):
        chain = CompressionMarkovChain(random_connected(20, seed=9), lam=4.0, seed=2)
        for _ in range(10):
            chain.run(200)
            assert chain.edge_count == chain.configuration.edge_count

    def test_step_advances_one_iteration(self, line10):
        chain = CompressionMarkovChain(line10, lam=4.0, seed=3)
        seen = []
        for _ in range(50):
            result = chain.step()
            seen.append(chain.iterations)
            assert chain.edge_count == chain.configuration.edge_count, result
        assert seen == list(range(1, 51))

    def test_negative_iterations_rejected(self, line10):
        chain = CompressionMarkovChain(line10, lam=4.0, seed=0)
        with pytest.raises(ConfigurationError):
            chain.run(-1)

    def test_reproducibility(self, line10):
        first = CompressionMarkovChain(line10, lam=4.0, seed=42)
        second = CompressionMarkovChain(line10, lam=4.0, seed=42)
        first.run(2000)
        second.run(2000)
        assert first.configuration == second.configuration
        assert first.accepted_moves == second.accepted_moves


class TestInvariants:
    """The structural guarantees of Section 3.4, checked along real trajectories."""

    def test_connectivity_is_preserved(self):
        chain = CompressionMarkovChain(random_connected(25, seed=4), lam=4.0, seed=5)
        for _ in range(20):
            chain.run(500)
            assert chain.configuration.is_connected

    def test_hole_free_configurations_stay_hole_free(self):
        chain = CompressionMarkovChain(line(25), lam=4.0, seed=6)
        for _ in range(20):
            chain.run(500)
            assert chain.configuration.is_hole_free

    def test_holes_are_eventually_eliminated(self):
        """Lemma 3.8 at simulation scale: the ring's hole disappears and never returns."""
        chain = CompressionMarkovChain(ring(2), lam=4.0, seed=7)
        hole_free_since = None
        for block in range(60):
            chain.run(1000)
            if not chain.configuration.has_holes:
                hole_free_since = block
                break
        assert hole_free_since is not None, "the hole was never eliminated"
        for _ in range(10):
            chain.run(500)
            assert chain.configuration.is_hole_free

    def test_particle_count_is_conserved(self):
        chain = CompressionMarkovChain(line(15), lam=4.0, seed=8)
        chain.run(5000)
        assert chain.configuration.n == 15

    def test_perimeter_matches_edge_count_when_hole_free(self):
        chain = CompressionMarkovChain(line(20), lam=4.0, seed=9)
        chain.run(5000)
        configuration = chain.configuration
        assert configuration.is_hole_free
        assert chain.perimeter() == 3 * 20 - chain.edge_count - 3


class TestConfigurationCache:
    """The configuration value object is cached between accepted moves."""

    @pytest.mark.parametrize("engine", [CompressionMarkovChain, FastCompressionChain])
    def test_repeated_access_returns_same_object(self, engine):
        chain = engine(line(10), lam=4.0, seed=0)
        first = chain.configuration
        # No moves in between: repeated access must do no extra work, which
        # object identity proves (a rebuild would allocate a fresh instance).
        assert chain.configuration is first
        assert chain.configuration is first

    @pytest.mark.parametrize("engine", [CompressionMarkovChain, FastCompressionChain])
    def test_accepted_move_invalidates_cache(self, engine):
        chain = engine(line(10), lam=4.0, seed=0)
        before = chain.configuration
        while chain.accepted_moves == 0:
            chain.step()
        after = chain.configuration
        assert after is not before
        assert after != before
        assert after is chain.configuration  # cached again until the next move

    def test_rejections_do_not_invalidate_cache(self):
        chain = CompressionMarkovChain(line(10), lam=4.0, seed=0)
        cached = chain.configuration
        while True:
            result = chain.step()
            if not result.moved:
                break
            cached = chain.configuration
        assert chain.configuration is cached


class TestBiasDirection:
    def test_large_lambda_compresses_small_lambda_does_not(self):
        compress = CompressionMarkovChain(line(30), lam=5.0, seed=10)
        expand = CompressionMarkovChain(line(30), lam=1.0, seed=10)
        compress.run(60_000)
        expand.run(60_000)
        assert compress.perimeter() < expand.perimeter()
        assert compress.edge_count > expand.edge_count

    def test_lambda_one_is_unbiased_random_walk_on_configurations(self):
        chain = CompressionMarkovChain(line(12), lam=1.0, seed=11)
        chain.run(3000)
        # With lambda = 1 every valid proposal is accepted, so the
        # Metropolis filter never rejects.
        assert chain.rejection_counts["metropolis_rejected"] == 0
