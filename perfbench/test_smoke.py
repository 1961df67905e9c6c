"""Smoke test of the benchmark at toy size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    out = bench("--workload", workload, "--seed", "1", "--seconds", "0.2",
                "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in declared:
        assert any(line.startswith(f"{m['name']} ") and f" {m['unit']}" in line for line in lines)
    assert any(line.startswith("fail_ratio 0 ") for line in lines)
    assert any(line.startswith("env ") and '"blas_threads"' in line for line in lines)


def test_over_capacity_result_counts_as_failure(monkeypatch, capsys):
    bmcp = run.load_bmcp()
    real = bmcp.solver.solve

    def corrupt(inst, cfg, observer=None):
        result = real(inst, cfg, observer=observer)
        return dataclasses.replace(result, best_selection=np.ones(inst.m, dtype=bool))

    monkeypatch.setattr(bmcp.solver, "solve", corrupt)
    code = run.main(["--workload", "dense585", "--seed", "0", "--seconds", "0.1",
                     "--trace", "0", "--smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 3
    assert any("exceeds capacity" in line for line in lines if line.startswith("FAIL"))


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "dense585", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
