"""Smoke test of the benchmark at tiny sizes, about 15 s in all.

    python3 -m pytest -q perfbench/test_smoke.py

For each workload it runs perfbench/run.py --tiny untraced and traced, and
checks that every metric of BENCHMARK.json is reported with its unit, that no
check failed, and that the traced invocations gave the same verdicts as the
untraced ones.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _run(workload: str, trace: int) -> tuple[dict, dict[str, list]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    verdicts: dict[str, list] = {}
    for line in lines:
        if line.startswith("verdicts "):
            _, kind, table = line.split(" ", 2)
            verdicts.setdefault(kind, []).append(json.loads(table))
    return json.loads(lines[-1]), verdicts


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(workload: str, trace: int):
    result, verdicts = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace:
        assert verdicts["traced"] and all(t == verdicts["untraced"][0]
                                          for t in verdicts["untraced"] + verdicts["traced"])
    else:
        assert result["metrics"]["correct_frac"]["value"] == 1.0  # failed_frac == 0
