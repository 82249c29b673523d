"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench
"""
import json
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def workloads():
    run.load_bondsim()
    import workloads

    return workloads


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_emitted_without_failures(workloads, workload, trace):
    result = run.run_workload(workload, seed=3, seconds=0.05, trace=trace, sizes=workloads.TINY)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["info"]["error_rate"] == 0, result["info"]["failures"]
    assert result["correct"], result["info"]["invariant_violations"]
    assert result["attempted"] >= 1


def test_same_seed_gives_same_inputs(workloads):
    def kinds(seed):
        ops = workloads.market_pass(seed, workloads.TINY).ops
        return [(kind, expected) for kind, _, _, expected in ops]

    assert kinds(5) == kinds(5)
    assert kinds(5) != kinds(6)


def test_command_prints_the_result_last():
    argv = [sys.executable, "bench/run.py", "--workload", "market-narrow", "--seed", "1",
            "--seconds", "0.1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert any(line.startswith("error_rate 0 ") for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "lifecycle-wide", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
