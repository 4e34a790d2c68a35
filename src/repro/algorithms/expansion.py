"""Running the compression chain in the expansion regime (Section 5).

The same Markov chain M, run with ``0 < lambda < 2.17``, provably fails to
compress: at stationarity the configuration is beta-expanded for some
constant ``beta`` with all but exponentially small probability
(Corollary 5.8).  This module wraps :class:`CompressionSimulation` with the
expansion-oriented conveniences used by the Figure 10 experiment.
"""

from __future__ import annotations

from typing import Optional

from repro.constants import EXPANSION_THRESHOLD
from repro.core.compression import CompressionSimulation, CompressionTrace
from repro.errors import ConfigurationError
from repro.lattice.configuration import ParticleConfiguration
from repro.rng import RandomState


class ExpansionSimulation(CompressionSimulation):
    """A compression-chain simulation intended for the expansion regime.

    Identical dynamics to :class:`CompressionSimulation`; the constructor
    refuses a bias in the proven compression regime, because that almost
    certainly indicates a mixed-up experiment.
    """

    def __init__(
        self,
        initial: ParticleConfiguration,
        lam: float,
        seed: RandomState = None,
        engine: str = "reference",
    ) -> None:
        if lam >= EXPANSION_THRESHOLD:
            raise ConfigurationError(
                f"lambda={lam} is not in the proven expansion regime "
                f"(lambda < {EXPANSION_THRESHOLD:.3f})"
            )
        super().__init__(initial, lam=lam, seed=seed, engine=engine)

    @classmethod
    def from_line(
        cls,
        n: int,
        lam: float,
        seed: RandomState = None,
        engine: str = "reference",
    ) -> "ExpansionSimulation":
        """``n`` particles starting in a line, as in Figure 10 (``lambda = 2``)."""
        from repro.lattice.shapes import line

        return cls(line(n), lam=lam, seed=seed, engine=engine)

    def run_until_expanded(
        self,
        beta: float,
        max_iterations: int,
        check_every: int = 1000,
    ) -> Optional[int]:
        """Run until the configuration is beta-expanded, or return ``None`` on budget exhaustion."""
        if not 0 < beta < 1:
            raise ConfigurationError(f"beta must lie in (0, 1), got {beta}")
        return self._run_until(
            lambda: self.is_beta_expanded(beta), max_iterations, check_every
        )
