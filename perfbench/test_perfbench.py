"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` from the repository root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import verify  # noqa: E402
from repro.runtime import job_to_json  # noqa: E402
from tracer import aggregate, self_times  # noqa: E402
from workloads import WORKLOADS, KernelPool, LambdaSweep, LargeNDisc, disc_nodes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_times_of_a_nested_trace():
    # pass [0, 10] > runner [1, 9] > job [2, 8] > loop [3, 6] > refill [4, 5];
    # a second job [8.5, 9] under the runner.
    spans = [
        ["bench.pass", 0.0, 10.0, -1, None, None],
        ["runtime.runner", 1.0, 9.0, 0, None, None],
        ["runtime.execute_job", 2.0, 8.0, 1, "a", None],
        ["core.loop", 3.0, 6.0, 2, "a", {"mode": "edge", "iterations": 100}],
        ["rng.refill", 4.0, 5.0, 3, "a", None],
        ["runtime.execute_job", 8.5, 9.0, 1, "b", None],
    ]
    assert self_times(spans) == pytest.approx([2.0, 1.5, 3.0, 2.0, 1.0, 0.5])
    summary = aggregate([{"spans": spans, "counts": {"io.fsyncs": 2}}])
    assert summary["spans"]["core.loop.edge"]["self"] == pytest.approx(2.0)
    assert summary["spans"]["core.loop.edge"]["iterations"] == 100
    assert summary["job_self"] == pytest.approx([3.0, 0.5])
    assert summary["counts"] == {"io.fsyncs": 2}
    # Self times partition the root's interval exactly.
    assert sum(self_times(spans)) == pytest.approx(10.0)


@pytest.mark.parametrize("cls", [LambdaSweep, KernelPool])
def test_inputs_are_deterministic_per_seed(cls, tmp_path):
    def jobs(seed):
        return [job_to_json(job) for job in cls(seed, smoke=True).build_jobs(tmp_path)]

    assert jobs(5) == jobs(5)
    assert jobs(5) != jobs(6)


def test_disc_is_the_full_size_compact_disc():
    assert len(disc_nodes(258)) == 1 + 3 * 258 * 259
    assert LargeNDisc(0, smoke=True).nodes == LargeNDisc(1, smoke=True).nodes


def test_digest_check_rejects_output_of_another_seed(tmp_path, monkeypatch):
    workload = LambdaSweep(0, smoke=True)
    own = workload.run_pass(tmp_path / "own")
    other = LambdaSweep(1, smoke=True).run_pass(tmp_path / "other")
    recorded = verify.payload_digest(own.payload)
    monkeypatch.setattr(verify, "recorded_digest", lambda *args: recorded)
    assert verify.check_pass(workload, own, sample_index=0) == []
    problems = verify.check_pass(workload, other, sample_index=0)
    assert any("digest" in problem for problem in problems)


def test_setup_ends_when_a_pool_worker_starts_the_first_job(tmp_path):
    # Jobs run only in the forked workers here: without their stamp the
    # pass would report its whole wall time as setup.
    result = KernelPool(0, smoke=True).run_pass(tmp_path / "pass")
    assert 0 < result.setup_s < result.wall_s / 2


def test_structure_check_rejects_a_wrong_perimeter():
    nodes = disc_nodes(2)
    assert verify.check_configuration(nodes, 12, "disc") == []
    assert verify.check_configuration(nodes, 13, "disc")
    assert verify.check_configuration(nodes[:1] + nodes[-1:], 4, "split")


def test_recorded_digests_cover_every_workload_at_the_default_seed():
    digests = json.loads(verify.DIGESTS_PATH.read_text(encoding="utf-8"))
    assert sorted(digests) == sorted(WORKLOADS)
    assert all("0" in by_seed for by_seed in digests.values())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_the_contract_line(workload, trace):
    completed = _run(ROOT, "--workload", workload, "--seed", "2", "--seconds", "0",
                     "--trace", trace, "--smoke")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(metric["name"] for metric in declared)
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(tmp_path, "--workload", "lambda_sweep", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
