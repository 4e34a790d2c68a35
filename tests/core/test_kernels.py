"""Tests for the weight-kernel protocol (:mod:`repro.core.kernels`).

Two contracts live here:

* **Bit-transparency of the default kernel.**  An engine constructed
  without a kernel must behave exactly like one constructed with an
  explicit :class:`CompressionKernel` — same trajectory, same random
  stream.  (The committed golden traces separately pin that this joint
  behaviour equals the pre-kernel engines.)
* **Table correctness.**  Every kernel's precomputed acceptance tables
  must equal the literal ``min(1, ...)`` weight expressions from the
  papers, entry for entry.
"""

import pytest

from repro.core.fast_chain import FastCompressionChain
from repro.core.kernels import (
    COLOR_DELTA_RANGE,
    EDGE_DELTA_RANGE,
    KERNEL_MODES,
    MOVEMENT_REJECTION_REASONS,
    SWAP_DELTA_RANGE,
    SWAP_REJECTION_REASONS,
    BridgingKernel,
    CompressionKernel,
    SeparationKernel,
    WeightKernel,
)
from repro.core.markov_chain import REJECTION_REASONS, CompressionMarkovChain
from repro.core.vector_chain import VectorCompressionChain
from repro.errors import AlgorithmError, ConfigurationError
from repro.lattice.shapes import line, spiral

ALL_ENGINES = (CompressionMarkovChain, FastCompressionChain, VectorCompressionChain)


def _halves_colors(configuration):
    ordered = sorted(configuration.nodes)
    half = len(ordered) // 2
    return {node: (0 if i < half else 1) for i, node in enumerate(ordered)}


class TestKernelProtocol:
    def test_modes_and_lanes(self):
        compression = CompressionKernel(4.0)
        bridging = BridgingKernel(4.0, 2.0, land=frozenset({(0, 0)}))
        separation = SeparationKernel(4.0, 2.0, colors={(0, 0): 0})
        assert compression.mode == "edge" and compression.lanes == 1
        assert bridging.mode == "edge_site" and bridging.lanes == 1
        assert separation.mode == "edge_color" and separation.lanes == 2
        for kernel in (compression, bridging, separation):
            assert kernel.mode in KERNEL_MODES

    def test_rejection_reason_sets(self):
        assert REJECTION_REASONS == MOVEMENT_REJECTION_REASONS
        assert CompressionKernel(4.0).rejection_reasons == MOVEMENT_REJECTION_REASONS
        assert (
            SeparationKernel(4.0, 2.0, colors={(0, 0): 0}).rejection_reasons
            == MOVEMENT_REJECTION_REASONS + SWAP_REJECTION_REASONS
        )

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            CompressionKernel(0.0)
        with pytest.raises(AlgorithmError):
            BridgingKernel(4.0, -1.0, land=frozenset())
        with pytest.raises(AlgorithmError):
            SeparationKernel(4.0, 0.0, colors={(0, 0): 0})
        with pytest.raises(AlgorithmError):
            SeparationKernel(4.0, 2.0, colors={(0, 0): 0}, swap_probability=1.5)
        with pytest.raises(ConfigurationError):
            SeparationKernel(4.0, 2.0, colors={})
        with pytest.raises(ConfigurationError):
            SeparationKernel(4.0, 2.0, colors={(0, 0): 255})  # byte plane overflow


class TestAcceptanceTables:
    def test_compression_list_is_the_literal_weight(self):
        kernel = CompressionKernel(3.5)
        table = kernel.acceptance_list()
        assert len(table) == len(EDGE_DELTA_RANGE)
        for delta in EDGE_DELTA_RANGE:
            assert table[delta + 6] == min(1.0, 3.5 ** delta)

    def test_bridging_rows_are_the_literal_weight(self):
        kernel = BridgingKernel(4.0, 2.5, land=frozenset({(0, 0)}))
        rows = kernel.acceptance_rows()
        assert len(rows) == 3
        for site_delta in (-1, 0, 1):
            for delta in EDGE_DELTA_RANGE:
                expected = min(1.0, (4.0 ** delta) * (2.5 ** (-site_delta)))
                assert rows[site_delta + 1][delta + 6] == expected

    def test_separation_tables_are_the_literal_weights(self):
        kernel = SeparationKernel(4.0, 3.0, colors={(0, 0): 0})
        rows = kernel.movement_rows()
        assert len(rows) == len(COLOR_DELTA_RANGE)
        for a_delta in COLOR_DELTA_RANGE:
            for delta in EDGE_DELTA_RANGE:
                expected = min(1.0, (4.0 ** delta) * (3.0 ** a_delta))
                assert rows[a_delta + 5][delta + 6] == expected
        swap = kernel.swap_row()
        assert len(swap) == len(SWAP_DELTA_RANGE)
        for delta in SWAP_DELTA_RANGE:
            assert swap[delta + 10] == min(1.0, 3.0 ** delta)

    def test_site_weight_partitions_the_lattice(self):
        kernel = BridgingKernel(4.0, 2.0, land=frozenset({(0, 0), (1, 0)}))
        assert kernel.site_weight((0, 0)) == 0
        assert kernel.site_weight((5, 5)) == 1


class TestDefaultKernelTransparency:
    @pytest.mark.parametrize("engine", ALL_ENGINES, ids=lambda e: e.__name__)
    def test_explicit_compression_kernel_matches_default(self, engine):
        """kernel=CompressionKernel(lam) is indistinguishable from lam alone."""
        implicit = engine(line(25), lam=4.0, seed=5)
        explicit = engine(line(25), seed=5, kernel=CompressionKernel(4.0))
        for _ in range(1500):
            assert explicit.step() == implicit.step()
        assert explicit.occupied == implicit.occupied
        assert explicit.rejection_counts == implicit.rejection_counts
        assert isinstance(implicit.kernel, CompressionKernel)

    @pytest.mark.parametrize("engine", ALL_ENGINES, ids=lambda e: e.__name__)
    def test_lam_kernel_disagreement_is_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            engine(line(5), lam=2.0, kernel=CompressionKernel(4.0))

    @pytest.mark.parametrize("engine", ALL_ENGINES, ids=lambda e: e.__name__)
    def test_missing_lam_without_kernel_is_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            engine(line(5))


class TestEngineKernelSupport:
    def test_vector_engine_drives_all_registered_kernel_modes(self):
        """The compiled loops cover the aux-plane kernels too."""
        colors = _halves_colors(spiral(12))
        separation = VectorCompressionChain(
            spiral(12), kernel=SeparationKernel(4.0, 2.0, colors=colors)
        )
        bridging = VectorCompressionChain(
            line(6), kernel=BridgingKernel(4.0, 2.0, land=frozenset(line(6).nodes))
        )
        separation.run(200)
        bridging.run(200)
        assert separation.iterations == bridging.iterations == 200

    def test_engines_refuse_unknown_kernel_modes(self):
        """Every registered mode has a compiled loop; a kernel of any other
        mode is refused at construction, naming the mode."""

        class FrontierKernel(CompressionKernel):
            mode = "edge_frontier"

        for engine in (CompressionMarkovChain, FastCompressionChain):
            with pytest.raises(ConfigurationError, match="'edge_frontier'"):
                engine(line(6), kernel=FrontierKernel(4.0))

    def test_scalar_engines_reject_mismatched_color_maps(self):
        kernel = SeparationKernel(4.0, 2.0, colors={(0, 0): 0, (9, 9): 1})
        for engine in (CompressionMarkovChain, FastCompressionChain):
            with pytest.raises(ConfigurationError):
                engine(line(2), kernel=kernel)

    def test_kernel_accessors_guard_their_mode(self):
        chain = FastCompressionChain(line(8), lam=4.0, seed=0)
        with pytest.raises(ConfigurationError):
            chain.site_count
        with pytest.raises(ConfigurationError):
            chain.color_map()
