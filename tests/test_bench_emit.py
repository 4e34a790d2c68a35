"""The benchmark ledger's regression guard (``benchmarks/_emit.py``).

The ledger files are the repo's tracked perf trajectory; the guard makes
sure a re-run cannot silently replace a committed throughput number with
one more than 30% worse (the way ``engine_speedup_n1000`` once drifted
37x -> 25x without anyone noticing at emit time).
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy
import pytest

_EMIT_PATH = Path(__file__).parent.parent / "benchmarks" / "_emit.py"


@pytest.fixture(scope="module")
def emit():
    spec = importlib.util.spec_from_file_location("bench_emit_under_test", _EMIT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_ledger(path):
    with open(path) as fh:
        return json.load(fh)


def test_record_creates_and_merges_entries(emit, tmp_path):
    ledger = tmp_path / "BENCH_test.json"
    emit.record("alpha", path=ledger, n=10, iterations_per_second=100.0)
    emit.record("beta", path=ledger, n=20, speedup=3.0)
    data = read_ledger(ledger)
    assert data["alpha"] == {
        "n": 10, "iterations_per_second": 100.0, "_meta": data["alpha"]["_meta"]
    }
    assert data["beta"] == {"n": 20, "speedup": 3.0, "_meta": data["beta"]["_meta"]}
    assert "_meta" in data


def test_each_row_keeps_the_provenance_of_its_own_write(emit, tmp_path, monkeypatch):
    """A row carries the stamp of the write that measured it; the file-level
    ``_meta`` is the last write's; rows without a stamp stay untouched."""
    ledger = tmp_path / "BENCH_test.json"
    ledger.write_text(json.dumps({"legacy": {"n": 1, "speedup": 2.0}}))
    stamps = iter([{"git_sha": "a" * 40}, {"git_sha": "b" * 40}])
    monkeypatch.setattr(emit, "provenance", lambda: next(stamps))
    entry = emit.record("alpha", path=ledger, n=10)
    emit.record("beta", path=ledger, n=20)
    data = read_ledger(ledger)
    assert entry == {"n": 10, "_meta": {"git_sha": "a" * 40}}
    assert data["alpha"]["_meta"] == {"git_sha": "a" * 40}
    assert data["beta"]["_meta"] == {"git_sha": "b" * 40}
    assert data["_meta"] == {"git_sha": "b" * 40}
    assert data["legacy"] == {"n": 1, "speedup": 2.0}


def test_meta_records_provenance(emit, tmp_path):
    """Every write stamps the ledger and its row with the commit and its
    dirty flag, the machine's core count and load, and the python, numpy
    and platform versions."""
    ledger = tmp_path / "BENCH_test.json"
    emit.record("alpha", path=ledger, n=10)
    data = read_ledger(ledger)
    meta = data["_meta"]
    assert data["alpha"]["_meta"] == meta
    assert set(meta) == {
        "git_sha", "git_dirty", "cpu_count", "loadavg", "numpy", "python", "platform",
    }
    assert meta["cpu_count"] == os.cpu_count()
    assert meta["numpy"] == numpy.__version__
    assert meta["python"] == sys.version.split()[0]
    assert meta["git_sha"] is None or len(meta["git_sha"]) == 40
    assert meta["git_dirty"] in (None, True, False)
    assert meta["loadavg"] is None or len(meta["loadavg"]) == 3


def test_small_regressions_and_improvements_pass(emit, tmp_path):
    ledger = tmp_path / "BENCH_test.json"
    emit.record("bench", path=ledger, iterations_per_second=100.0)
    emit.record("bench", path=ledger, iterations_per_second=75.0)  # -25% is tolerated
    emit.record("bench", path=ledger, iterations_per_second=200.0)
    assert read_ledger(ledger)["bench"]["iterations_per_second"] == 200.0


def test_large_regression_is_refused(emit, tmp_path):
    ledger = tmp_path / "BENCH_test.json"
    emit.record("bench", path=ledger, n=10, iterations_per_second=100.0)
    with pytest.raises(emit.BenchRegressionError, match="bench"):
        emit.record("bench", path=ledger, n=10, iterations_per_second=69.0)
    # The committed entry survives the refused overwrite.
    assert read_ledger(ledger)["bench"]["iterations_per_second"] == 100.0


def test_speedup_field_is_guarded(emit, tmp_path):
    ledger = tmp_path / "BENCH_test.json"
    emit.record("gate", path=ledger, speedup=37.0)
    with pytest.raises(emit.BenchRegressionError, match="37"):
        emit.record("gate", path=ledger, speedup=25.0)


def test_key_matching_rules_are_pinned(emit):
    """The guard's key-matching rules, spelled out (see _is_throughput_key)."""
    guarded = [
        "iterations_per_second",
        "activations_per_second",
        "fast_activations_per_second",
        "reference_activations_per_second",
        "iterations_per_second_n1000",
        "it_per_s",
        "sharded_it_per_s_n100000",
        "vector_it_per_s",
        "speedup",
        "speedup_n1000",
        "vector_speedup",
    ]
    unguarded = ["n", "seconds", "rounds", "engine", "wall_seconds", "speedups_note"]
    for key in guarded:
        assert emit._is_throughput_key(key), key
    for key in unguarded:
        assert not emit._is_throughput_key(key), key


def test_activations_per_second_regression_is_refused(emit, tmp_path):
    """The distributed-runtime rows are guarded like the chain rows."""
    ledger = tmp_path / "BENCH_test.json"
    emit.record("amoebot", path=ledger, activations_per_second=1_000_000.0)
    with pytest.raises(emit.BenchRegressionError, match="amoebot"):
        emit.record("amoebot", path=ledger, activations_per_second=500_000.0)


def test_suffixed_speedup_fields_are_guarded(emit, tmp_path):
    ledger = tmp_path / "BENCH_test.json"
    emit.record("adv", path=ledger, speedup_n1000=4.0)
    with pytest.raises(emit.BenchRegressionError, match="adv"):
        emit.record("adv", path=ledger, speedup_n1000=1.0)


def test_bench_ledger_dir_redirects_default_ledger_only(emit, tmp_path, monkeypatch):
    """CI machines set BENCH_LEDGER_DIR so the committed default ledger
    stays untouched; explicit path= callers (tests, subsystem ledgers) are
    honored verbatim."""
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setenv("BENCH_LEDGER_DIR", str(scratch))
    committed_before = emit.RESULTS_PATH.read_text()
    emit.record("__scratch_probe__", activations_per_second=1.0)
    assert emit.RESULTS_PATH.read_text() == committed_before
    assert "__scratch_probe__" in read_ledger(scratch / emit.RESULTS_PATH.name)
    # Explicit paths are not redirected.
    explicit = tmp_path / "BENCH_explicit.json"
    emit.record("bench", path=explicit, iterations_per_second=5.0)
    assert read_ledger(explicit)["bench"]["iterations_per_second"] == 5.0
    assert not (scratch / "BENCH_explicit.json").exists()


def test_non_throughput_fields_are_not_guarded(emit, tmp_path):
    ledger = tmp_path / "BENCH_test.json"
    emit.record("bench", path=ledger, n=1000, seconds=10.0)
    emit.record("bench", path=ledger, n=10, seconds=1.0)  # params may change freely
    assert read_ledger(ledger)["bench"]["n"] == 10


def test_force_overrides_the_guard(emit, tmp_path):
    ledger = tmp_path / "BENCH_test.json"
    emit.record("bench", path=ledger, iterations_per_second=100.0)
    emit.record("bench", path=ledger, force=True, iterations_per_second=10.0)
    assert read_ledger(ledger)["bench"]["iterations_per_second"] == 10.0


def test_command_line_force_flag_overrides_the_guard(emit, tmp_path, monkeypatch):
    ledger = tmp_path / "BENCH_test.json"
    emit.record("bench", path=ledger, iterations_per_second=100.0)
    monkeypatch.setattr(sys, "argv", [*sys.argv, "--force"])
    emit.record("bench", path=ledger, iterations_per_second=10.0)
    assert read_ledger(ledger)["bench"]["iterations_per_second"] == 10.0
