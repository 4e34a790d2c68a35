"""Tests for Algorithm M's weight and acceptance rule.

The chain accepts a structurally legal move iff ``q < lambda^(e' - e)``
(Condition (3)), and its stationary weight is ``lambda^e(sigma)``, or
equivalently ``lambda^(-p(sigma))`` up to the constant ``lambda^(3n-3)``
(Corollary 3.14).  The acceptance rule has one home, the
:class:`~repro.core.kernels.CompressionKernel` table both engines and
:func:`~repro.core.stationary.transition_matrix` read; these tests pin
that table, and the reference engine's use of it, to the paper's rule.
"""

import math

import pytest

from repro.core.kernels import CompressionKernel
from repro.core.markov_chain import CompressionMarkovChain
from repro.core.stationary import (
    build_state_space,
    exact_stationary_distribution,
    transition_matrix,
)
from repro.errors import AnalysisError, ConfigurationError
from repro.lattice.shapes import hexagon, line, spiral
from repro.rng import BatchedMoveDraws, make_rng


def acceptance(lam, delta):
    """The kernel's acceptance probability for an edge delta ``e' - e``."""
    return CompressionKernel(lam).acceptance_list()[delta + 6]


def metropolis_outcomes(initial, lam, seed, iterations):
    """``(edge delta, uniform, moved)`` for every proposal of a reference
    run that reached the Metropolis coin, with the uniform read from a
    twin of the chain's draw tape."""
    chain = CompressionMarkovChain(initial, lam=lam, seed=seed)
    twin = BatchedMoveDraws(make_rng(seed), initial.n)
    outcomes = []
    for _ in range(iterations):
        _, _, q = twin.draw()
        result = chain.step()
        if result.reason in ("moved", "metropolis_rejected"):
            outcomes.append((result.edge_delta, q, result.moved))
    return outcomes


@pytest.fixture(scope="module")
def compressing_run():
    return metropolis_outcomes(line(20), 4.0, 11, 60_000)


class TestWeight:
    def test_hamiltonian_is_negative_edge_count(self, flower):
        """H(sigma) = -e(sigma): the flower has 12 edges and perimeter 6."""
        assert flower.edge_count == 12
        assert flower.perimeter == 6

    def test_weight_forms_agree_up_to_constant(self):
        """lambda^e and lambda^{-p} differ by the constant lambda^{3n-3} (Corollary 3.14)."""
        lam = 3.0
        for configuration in [line(8), hexagon(1), spiral(12)]:
            n = configuration.n
            ratio = lam ** configuration.edge_count / lam ** (-configuration.perimeter)
            assert math.isclose(ratio, lam ** (3 * n - 3), rel_tol=1e-9)

    def test_stationary_weight_ratios_are_lambda_to_the_edge_difference(self):
        space = build_state_space(4)
        distribution = exact_stationary_distribution(space, 2.0)
        hole_free = space.hole_free_indices
        first = hole_free[0]
        for i in hole_free:
            delta = space.states[i].edge_count - space.states[first].edge_count
            assert math.isclose(distribution[i] / distribution[first], 2.0**delta, rel_tol=1e-12)

    def test_compressed_configurations_have_lower_energy(self):
        compressed = spiral(20)
        stretched = line(20)
        assert compressed.edge_count > stretched.edge_count
        assert compressed.perimeter < stretched.perimeter

    def test_weight_ratio_is_local(self):
        """The acceptance of a move reads only its edge delta."""
        table = CompressionKernel(2.0).acceptance_list()
        assert len(table) == 13
        assert table[2 + 6] / table[-2 + 6] == 4.0
        assert table[-1 + 6] == 0.5

    def test_invalid_lambda(self):
        with pytest.raises(ConfigurationError):
            CompressionKernel(0.0)
        with pytest.raises(AnalysisError):
            exact_stationary_distribution(build_state_space(3), -1.0)


class TestAcceptance:
    def test_acceptance_table_clipping(self):
        assert acceptance(4.0, 2) == 1.0
        assert acceptance(4.0, -1) == 0.25
        assert acceptance(0.5, -1) == 1.0
        assert acceptance(0.5, 2) == 0.25

    def test_invalid_lambda_rejected(self):
        with pytest.raises(AnalysisError):
            transition_matrix(build_state_space(3), 0.0)
        with pytest.raises(ConfigurationError):
            CompressionMarkovChain(line(3), lam=-2.0)

    def test_engine_decides_by_condition_3(self, compressing_run):
        """q < lambda^(e'-e) is exactly the reference engine's acceptance rule."""
        assert len(compressing_run) > 1000
        for delta, q, moved in compressing_run:
            assert moved == (q < acceptance(4.0, delta))

    def test_empirical_acceptance_rate_matches_probability(self, compressing_run):
        downhill = [moved for delta, _, moved in compressing_run if delta == -1]
        assert len(downhill) > 2000
        assert abs(sum(downhill) / len(downhill) - 0.25) < 0.02

    def test_uphill_moves_always_accepted(self, compressing_run):
        uphill = [moved for delta, _, moved in compressing_run if delta >= 0]
        assert len(uphill) > 1000
        assert all(uphill)

    def test_detailed_balance_of_acceptance_ratios(self):
        """acceptance(delta) / acceptance(-delta) == lambda^delta for every delta."""
        lam = 3.0
        for delta in range(-6, 7):
            forward = acceptance(lam, delta)
            backward = acceptance(lam, -delta)
            assert math.isclose(forward / backward, lam**delta, rel_tol=1e-12)
