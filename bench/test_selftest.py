"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q bench/test_selftest.py

Checks that each run reports exactly the metrics BENCHMARK.json names, with
their units, that nothing fails on the current sources, that two traced
runs give identical counts, and that the benchmark refuses to run without
the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1
    assert res["failed"] == 0 and res["correct"], proc.stdout
    return res


def units(res: dict) -> dict:
    return {name: m["unit"] for name, m in res["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present(workload):
    res = result(workload, 0)
    assert units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = result(workload, 1), result(workload, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units(first) == expected and units(second) == expected
    exact = [name for name, unit in expected.items() if unit in ("count", "ratio")]
    assert ({n: first["metrics"][n]["value"] for n in exact}
            == {n: second["metrics"][n]["value"] for n in exact})


def test_refuses_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
