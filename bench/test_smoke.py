"""Smoke test of the benchmark itself, at the smallest sizes.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload with and without tracing, and checks that each
metric BENCHMARK.json names is emitted with its unit, that no command
failed its reference check, and that traced counts repeat exactly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "bytes")


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(workload: str, trace: int) -> tuple[dict, dict]:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, last = proc.stdout.strip().splitlines()
    return json.loads(info_line), json.loads(last)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(workload, trace):
    info, res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert info["failed_frac"] == 0.0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    assert set(info["samples"]) == set(res["metrics"])
    for key in ("python", "numpy", "nproc", "cpu_model", "commit", "seed"):
        assert key in info["env"]


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        _, res = result("certify_chain", 1)
        counts.append({k: v["value"] for k, v in res["metrics"].items() if v["unit"] in COUNT_UNITS})
    assert counts[0] == counts[1]
    assert counts[0]["chain.pairs"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("shipped_configs", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
