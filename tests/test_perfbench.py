"""The benchmark's tracing self-test, run the way the benchmark runs it.

`perfbench/run.py --trace 1` wraps every public function of the library and
exits 3 when a span its workload must exercise has no calls, so a change in
the library can break the benchmark without failing any library test.  Each
run here takes about a second.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from trivalent.catalog import connected_13_classes
from trivalent.reflexive import vertex_enumeration

ROOT = Path(__file__).resolve().parents[1]


def traced_run(workload):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
    return {name: metric["value"] for name, metric in report["metrics"].items()}


@pytest.mark.parametrize("workload", ["cubic-qp", "census-7"])
def test_traced_benchmark_run_passes_its_self_test(workload):
    metrics = traced_run(workload)
    if workload == "census-7":
        # census-7 enumerates the vertices of the classes with m <= 5; each
        # distinct vertex is confirmed by one exact solve, and no other
        # subset is solved alone
        vertices = sum(
            len(vertex_enumeration(g))
            for (_, m), group in connected_13_classes(7).items() if m <= 5
            for g in group
        )
        assert metrics["exactlin.solve_square.calls"] == vertices
        assert metrics["exactlin.solve_square.nonsingular_ratio"] == 1.0
