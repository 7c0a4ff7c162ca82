"""Smoke test of the benchmark: every workload end to end at a tiny size.

Runs ``perfbench/run.py --smoke``: the three workloads, untraced and traced,
each with its answer audit, on an 80-vertex graph for one second.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def test_smoke_runs_every_workload_correctly():
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        cwd=BENCH.parent,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    lines = [json.loads(line) for line in completed.stdout.splitlines()]
    results = [line for line in lines if "correct" in line]
    details = [line for line in lines if "fingerprint" in line]
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(d["workload"], d["trace"]) for d in details] == [
        (workload["name"], trace)
        for workload in declared["workloads"]
        for trace in (False, True)
    ]
    for detail, result in zip(details, results):
        assert result["correct"] and result["failed"] == 0
        assert detail["audit"]["checked"] > 0
        kind = "per_layer" if detail["trace"] else "end_to_end"
        assert list(result["metrics"]) == [metric["name"] for metric in declared[kind]]
        if not detail["trace"]:
            assert all(value["value"] > 0 for value in result["metrics"].values())
