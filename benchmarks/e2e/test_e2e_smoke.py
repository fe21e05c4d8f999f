"""Smoke test of the end-to-end benchmark: a 150-node, 0.2 s profile of every workload.

Checks the contract with ``BENCHMARK.json``: exactly its workload and metric
names come out, each with its unit, as one result object on the last stdout
line.  No timing is asserted.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")  # every workload but one serves through the packed numpy kernel

import run  # noqa: E402  (pytest puts this directory on sys.path)

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PROFILE = ["--seconds", "0.2", "--nodes", "150"]


def run_profile(capsys, workload: str, trace: int, seed: int = 1):
    """``(result object, human-readable lines)`` of one smoke-profile run."""
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--trace", str(trace), *PROFILE]
    )
    lines = capsys.readouterr().out.rstrip().splitlines()
    assert code == 0, lines
    return json.loads(lines[-1]), lines[:-1]


def test_benchmark_json_names_the_harness_workloads():
    assert WORKLOADS == list(run.wl.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_emits_exactly_the_declared_metrics(capsys, workload, trace, section):
    result, _ = run_profile(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_seed_changes_the_pairs_but_not_the_metric_set(capsys):
    def inputs_line(lines):
        return next(line for line in lines if line.startswith("inputs "))

    first, first_lines = run_profile(capsys, "ci_cold_solve", 0, seed=1)
    other, other_lines = run_profile(capsys, "ci_cold_solve", 0, seed=2)
    assert inputs_line(first_lines) != inputs_line(other_lines)
    assert set(first["metrics"]) == set(other["metrics"])


def test_as_the_driver_runs_it_and_without_the_program_source(tmp_path):
    """From a checkout root with no PYTHONPATH; and exit != 0 when ``src`` is gone."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    command = [sys.executable, "benchmarks/e2e/run.py", "--workload", "ci_cold_solve", *PROFILE]
    child = subprocess.run(
        command, cwd=REPO_ROOT, env=env, capture_output=True,
        text=True, timeout=120, check=False,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    assert json.loads(child.stdout.rstrip().splitlines()[-1])["correct"] is True

    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (bare / source.name).write_bytes(source.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    child = subprocess.run(
        command, cwd=tmp_path, env=env, capture_output=True,
        text=True, timeout=60, check=False,
    )
    assert child.returncode != 0
    assert child.stdout == ""
