"""Tests for the experiment harness, serialization and visualization."""

import json

import pytest

from repro.analysis.experiments import (
    ExperimentRecord,
    run_bridging_sweep,
    run_fig2_compression,
    run_fig10_expansion,
    run_lambda_sweep,
    run_separation_experiment,
)
from repro.core.compression import CompressionSimulation
from repro.errors import SerializationError
from repro.io.serialization import (
    configuration_from_json,
    configuration_to_json,
    load_configuration,
    load_experiment_record,
    save_configuration,
    save_experiment_record,
    trace_to_json,
)
from repro.lattice.shapes import hexagon, line, ring, spiral
from repro.viz.ascii_art import render_ascii, render_trace_sparkline
from repro.viz.svg import render_svg, save_svg


class TestExperimentHarness:
    def test_fig2_record_shows_compression(self):
        record = run_fig2_compression(n=25, iterations=40_000, snapshots=4, seed=0)
        assert record.experiment_id == "E1"
        assert record.results["initial_perimeter"] == 2 * 25 - 2
        assert record.results["final_perimeter"] < record.results["initial_perimeter"]
        assert len(record.results["perimeter_snapshots"]) == 5

    def test_fig2_default_engine_matches_reference(self):
        """The default engine's record equals the reference engine's."""
        kwargs = dict(n=20, iterations=6000, snapshots=3, seed=4)
        default = run_fig2_compression(**kwargs)
        assert default == run_fig2_compression(engine="reference", **kwargs)
        assert default.results["final_perimeter"] < default.results["initial_perimeter"]

    def test_fig10_record_shows_no_compression(self):
        record = run_fig10_expansion(n=25, iterations=30_000, seed=0)
        assert record.experiment_id == "E2"
        assert record.results["final_beta"] > 0.45
        assert record.results["final_alpha"] > 1.5

    def test_lambda_sweep_monotone_trend(self):
        record = run_lambda_sweep(
            n=25, lambdas=(1.5, 4.0, 6.0), iterations=40_000, seed=1
        )
        rows = record.results["rows"]
        assert [row["lambda"] for row in rows] == [1.5, 4.0, 6.0]
        assert rows[0]["final_perimeter"] > rows[-1]["final_perimeter"]

    def test_separation_experiment_rows_per_gamma_and_seed_determinism(self):
        kwargs = dict(n=24, gammas=(0.5, 4.0), iterations=3000, replicas=2, seed=5)
        record = run_separation_experiment(**kwargs)
        assert record.experiment_id == "E15"
        rows = record.results["rows"]
        assert [row["gamma"] for row in rows] == [0.5, 4.0]
        assert [row["replicas"] for row in rows] == [2, 2]
        assert run_separation_experiment(**kwargs).results["rows"] == rows

    def test_bridging_sweep_rows_per_gamma_and_seed_determinism(self):
        kwargs = dict(
            n=15, arm_length=5, iterations=3000, gammas=(1.0, 4.0), replicas=2, seed=5
        )
        record = run_bridging_sweep(**kwargs)
        assert record.experiment_id == "E16"
        rows = record.results["rows"]
        assert [row["gamma"] for row in rows] == [1.0, 4.0]
        assert [row["replicas"] for row in rows] == [2, 2]
        assert run_bridging_sweep(**kwargs).results["rows"] == rows


class TestSerialization:
    def test_configuration_roundtrip_via_files(self, tmp_path):
        for configuration in [line(9), hexagon(2), ring(2)]:
            path = save_configuration(configuration, tmp_path / "configuration.json")
            assert load_configuration(path) == configuration

    def test_configuration_payload_is_plain_json(self):
        payload = configuration_to_json(spiral(8))
        json.dumps(payload)  # must not raise
        assert payload["kind"] == "particle_configuration"
        assert payload["n"] == 8

    def test_malformed_payload_rejected(self):
        with pytest.raises(SerializationError):
            configuration_from_json({"kind": "something_else"})
        with pytest.raises(SerializationError):
            configuration_from_json({"kind": "particle_configuration", "nodes": "nope"})
        with pytest.raises(SerializationError):
            configuration_from_json(
                {"kind": "particle_configuration", "n": 5, "nodes": [[0, 0]]}
            )

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SerializationError):
            load_configuration(tmp_path / "does_not_exist.json")

    def test_trace_serialization(self):
        simulation = CompressionSimulation.from_line(10, lam=4.0, seed=0)
        simulation.run(2000, record_every=1000)
        payload = trace_to_json(simulation.trace)
        json.dumps(payload)
        assert payload["n"] == 10
        assert len(payload["points"]) == 3

    def test_experiment_record_roundtrip(self, tmp_path):
        record = ExperimentRecord(
            experiment_id="E99",
            description="test record",
            parameters={"n": 5},
            results={"value": 1.5},
            expectation="nothing in particular",
        )
        path = save_experiment_record(record, tmp_path / "record.json")
        loaded = load_experiment_record(path)
        assert loaded == record
        with pytest.raises(SerializationError):
            load_experiment_record(tmp_path / "missing.json")


class TestVisualization:
    def test_ascii_render_contains_each_particle(self):
        art = render_ascii(spiral(12))
        assert art.count("o") == 12

    def test_ascii_render_marks_holes(self, hex_ring):
        art = render_ascii(hex_ring)
        assert art.count("o") == 6
        assert art.count(".") == 1

    def test_ascii_custom_glyphs(self, triangle):
        art = render_ascii(triangle, glyphs={(0, 0): "X"})
        assert "X" in art and art.count("o") == 2

    def test_sparkline(self):
        assert render_trace_sparkline([]) == ""
        spark = render_trace_sparkline([5, 4, 3, 2, 1])
        assert len(spark) == 5
        assert render_trace_sparkline([2, 2, 2]) == "▁▁▁"

    def test_svg_render_structure(self, flower):
        svg = render_svg(flower, highlight_boundary=True)
        assert svg.startswith("<svg")
        assert svg.count("<circle") == flower.n
        assert "<path" in svg  # boundary highlight
        assert "<line" in svg  # induced edges

    def test_svg_single_particle_and_colors(self):
        from repro.lattice.configuration import ParticleConfiguration

        single = ParticleConfiguration([(0, 0)])
        svg = render_svg(single, colors={(0, 0): "#ff0000"})
        assert "#ff0000" in svg

    def test_save_svg(self, tmp_path, flower):
        path = save_svg(flower, tmp_path / "flower.svg")
        assert path.read_text().startswith("<svg")
