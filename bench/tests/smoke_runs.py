"""Every workload runs end to end at minimal length, and prints every metric
of BENCHMARK.json with its unit.

These runs take about a minute, so the file is not named test_*.py and the
repository's test suite does not collect it.  Run it by name:

    python3 -m pytest -q bench/tests/smoke_runs.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [("stepping", 1), ("dyadic", 1), ("audit", 0)])
def test_minimal_run(workload, trace):
    result = _run(workload, trace)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    # Only audit's validate calls may fail: one operation in four.
    allowed = result["attempted"] // 4 if workload == "audit" else 0
    assert result["failed"] in {0, allowed}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if trace and workload == "stepping":
        layers = {name: m["value"] for name, m in result["metrics"].items()}
        assert layers["linalg.mat_exp.calls"] == 0
        assert layers["generators.apply_q_operator.calls"] > 0
    if trace and workload == "dyadic":
        layers = {name: m["value"] for name, m in result["metrics"].items()}
        assert layers["generators.apply_q_operator.calls"] == 0
        assert layers["linalg.mat_exp.calls"] > 0
