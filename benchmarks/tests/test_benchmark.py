"""Smoke runs of every workload at the tiny size, and the result schema.

Run from the repository root: ``python3 -m pytest benchmarks/tests``.
No timing is asserted.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _check_schema(line: str, declared: list[dict]) -> dict:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    code, lines = _run(workload, seed=7, trace=0)
    assert code == 0
    result = _check_schema(lines[-1], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads(lines[-2])["record"]
    assert record["problems"] == [] and record["error_rate"] == 0.0
    assert record["environment"]["cpu_count"] >= 1
    assert len(record["setup_s_samples"]) == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    code, lines = _run(workload, seed=7, trace=1)
    assert code == 0
    _check_schema(lines[-1], SPEC["per_layer"])
    record = json.loads(lines[-2])["record"]
    assert record["missing_hooks"] == [] and record["count_errors"] == 0
    assert record["spans"] > 0
    assert record["checks"][0]["digest"] == record["checks"][1]["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digest(workload):
    digests = []
    for _ in range(2):
        code, lines = _run(workload, seed=11, trace=0)
        assert code == 0
        digests.append(json.loads(lines[-2])["record"]["checks"][0]["digest"])
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _run(WORKLOADS[0], seed=1, trace=0, cwd=tmp_path)
    assert code != 0
    assert lines == []
