"""Smoke tests for the benchmark itself, on 1 case at 64^3 with n_samples=2.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_result_has_the_declared_schema(trace, section):
    proc = bench("--workload", "smoke", "--seed", "0", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert type(result["attempted"]) is int and result["attempted"] >= 1
    assert type(result["failed"]) is int and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert type(m["value"]) in (int, float)
    if trace:
        # one warp in and one warp back per tta or hybrid sample: the tracer saw every call
        cfg = run.WORKLOADS["smoke"]["config"]
        augmented_rows = 2 * cfg["n_cases"] * sum(mode in ("tta", "hybrid") for mode in cfg["modes"])
        calls = result["metrics"]["transforms.rigid_apply.calls"]["value"]
        assert calls == 2 * augmented_rows * cfg["n_samples"]


def test_workload_names_match_the_declaration():
    assert [w["name"] for w in SPEC["workloads"]] == [name for name in run.WORKLOADS if name != "smoke"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "smoke", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
