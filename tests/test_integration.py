"""End-to-end integration tests spanning the whole library.

These are the "does the reproduction actually reproduce the paper's
headline behaviour" checks: compression above the threshold, expansion
below it, equivalence of the centralized and distributed engines on the
same workload, and the public API advertised in the README quickstart.
"""

import pytest

import repro
from repro import (
    AmoebotSystem,
    CompressionMarkovChain,
    CompressionSimulation,
    ExpansionSimulation,
    FastAmoebotSystem,
    ParticleConfiguration,
    line,
)
from repro.constants import COMPRESSION_THRESHOLD, EXPANSION_THRESHOLD
from repro.errors import ConfigurationError
from repro.lattice.geometry import max_perimeter, min_perimeter
from repro.lattice.shapes import spiral


class TestAchievedRatios:
    """The alpha and beta each engine reports: p / pmin and p / pmax."""

    def test_spiral_is_maximally_compressed(self):
        simulation = CompressionSimulation(spiral(30), lam=4.0, seed=0)
        assert simulation.compression_ratio() == pytest.approx(1.0)
        assert simulation.is_alpha_compressed(1.01)
        assert not simulation.is_beta_expanded(0.5)
        for system in (AmoebotSystem, FastAmoebotSystem):
            assert system(spiral(30), lam=4.0, seed=0).compression_ratio() == pytest.approx(1.0)

    def test_line_is_maximally_expanded(self):
        simulation = ExpansionSimulation.from_line(30, lam=1.5, seed=0)
        assert simulation.expansion_ratio() == pytest.approx(1.0)
        assert simulation.is_beta_expanded(0.99)
        assert not simulation.is_alpha_compressed(2.0)
        line_alpha = max_perimeter(30) / min_perimeter(30)
        for system in (AmoebotSystem, FastAmoebotSystem):
            assert system(line(30), lam=1.5, seed=0).compression_ratio() == pytest.approx(line_alpha)

    def test_argument_validation(self):
        simulation = ExpansionSimulation(spiral(5), lam=1.5, seed=0)
        with pytest.raises(ConfigurationError):
            simulation.is_alpha_compressed(1.0)
        with pytest.raises(ConfigurationError):
            simulation.is_beta_expanded(0.0)


class TestHeadlineBehaviour:
    """Experiment E1/E2 in miniature: the lambda = 4 system compresses markedly
    while the lambda = 2 system stays expanded, from the same line start."""

    N = 40
    ITERATIONS = 120_000

    @pytest.fixture(scope="class")
    def compressed_run(self):
        simulation = CompressionSimulation.from_line(self.N, lam=4.0, seed=2024)
        simulation.run(self.ITERATIONS, record_every=self.ITERATIONS // 10)
        return simulation

    @pytest.fixture(scope="class")
    def expanded_run(self):
        simulation = ExpansionSimulation.from_line(self.N, lam=2.0, seed=2024)
        simulation.run(self.ITERATIONS, record_every=self.ITERATIONS // 10)
        return simulation

    def test_lambda_4_compresses(self, compressed_run):
        final = compressed_run.trace.final()
        assert final.perimeter < 0.55 * (2 * self.N - 2)
        assert compressed_run.compression_ratio() < 3.5

    def test_lambda_2_does_not_compress(self, expanded_run):
        final = expanded_run.trace.final()
        assert final.beta > 0.45
        assert expanded_run.compression_ratio() > compressed_run_alpha_threshold()

    def test_gap_between_the_two_regimes(self, compressed_run, expanded_run):
        assert compressed_run.chain.perimeter() < expanded_run.chain.perimeter()
        assert compressed_run.chain.edge_count > expanded_run.chain.edge_count

    def test_invariants_hold_at_the_end_of_both_runs(self, compressed_run, expanded_run):
        for simulation in (compressed_run, expanded_run):
            configuration = simulation.configuration
            assert configuration.n == self.N
            assert configuration.is_connected
            assert configuration.is_hole_free


def compressed_run_alpha_threshold() -> float:
    """The lambda=2 run should stay clearly less compressed than this ratio."""
    return 2.2


class TestEnginesAgree:
    def test_markov_chain_and_amoebot_system_follow_the_same_rule(self):
        """Both engines, run on the same workload, end in comparably compressed states."""
        n, lam = 30, 5.0
        chain = CompressionMarkovChain(line(n), lam=lam, seed=7)
        chain.run(80_000)
        system = AmoebotSystem(line(n), lam=lam, seed=7)
        system.run(240_000)
        assert chain.perimeter() / min_perimeter(n) < 3.0
        assert system.compression_ratio() < 3.0

    def test_package_level_exports(self):
        assert repro.__version__ == "2.0.0"
        assert repro.VectorCompressionChain is not None
        assert EXPANSION_THRESHOLD < COMPRESSION_THRESHOLD
        configuration = ParticleConfiguration([(0, 0), (1, 0)])
        assert configuration.perimeter == 2


class TestQuickstartContract:
    def test_readme_quickstart_sequence(self):
        simulation = CompressionSimulation.from_line(50, lam=4.0, seed=0)
        simulation.run(100_000)
        assert simulation.compression_ratio() < 4.0
        assert simulation.expansion_ratio() < 0.8
