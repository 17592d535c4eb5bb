"""Checks on the benchmark itself: exact-repeat counts and metric names.

Run from the repository root (about two minutes):

    python3 -m pytest benchmarks/test_repeat.py -q

Two traced runs of one seed must report identical counts, because the counts
cover the first block of the seed's scenario stream and are computed from
shapes and file sizes. Not part of the tier-1 suite: it times nothing but
takes minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EXACT = (".calls", ".cells", ".rows", ".complex_macs", ".bytes", ".bytes_hashed",
         ".engine_calls", ".quadrature_samples", ".distinct_ratio")


def _run(workload: str, trace: int, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counts_repeat_exactly(workload):
    first, second = _run(workload, 1), _run(workload, 1)
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = sorted(k for k in first["metrics"] if k.endswith(EXACT))
    assert any(first["metrics"][k]["value"] for k in counts)
    assert [first["metrics"][k] for k in counts] == [second["metrics"][k] for k in counts]


def test_plain_run_reports_end_to_end_metrics():
    result = _run("integral_curves", 0)
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
