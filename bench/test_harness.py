"""Toy-size self-test of the benchmark harness (no wall-clock asserts).

    python3 -m pytest -q bench/test_harness.py

Runs every workload of the harness (those BENCHMARK.json gates and attn_train)
at toy size, untraced and traced, and checks that each emits its checks and
every metric BENCHMARK.json names, with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
import workloads  # noqa: E402


def run(args, cwd=ROOT):
    return subprocess.run(
        SPEC["command"] + args, cwd=cwd, capture_output=True, text=True, timeout=180, check=False
    )


def test_gated_workloads_are_defined_by_the_harness():
    for w in SPEC["workloads"]:
        assert w["name"] in workloads.WORKLOADS
        assert w["why"] == workloads.WORKLOADS[w["name"]][2]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_toy_run_emits_every_metric(workload, trace):
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"metric {name} " in proc.stdout
    assert any(line.startswith("machine nproc=") and "blas_threads=" in line for line in lines)
    assert "checks ok" in lines


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = run(["--workload", "desk_train", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
