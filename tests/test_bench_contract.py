"""The benchmark's contract with the program it measures.

``perfbench`` reaches into the program in two places.  A traced run wraps
layer entry points by name, on the class body or module that defines them
(``perfbench/bench_trace.py``), so a renamed or inherited seam fails only
traced runs.  The workload process reads fixed keys of
``service_stats()`` (``perfbench/bench_worker.py``), some through a
fallback to 0, so a lost key reads as an idle layer instead of failing.

The check runs in a subprocess: the tracer patches classes for good, and
those patches must not leak into other tests.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import json
import sys

sys.path[:0] = sys.argv[1:3]

from bench_trace import SpanRecorder, install_layer_spans

recorder = SpanRecorder()
install_layer_spans(recorder)  # a missing seam raises KeyError/AttributeError

import bench_worker
from repro.graph.uncertain_graph import example_graph
from repro.service import SimilarityService


class Strict(dict):
    # A stats dict whose every read, ``get`` included, needs the key.
    def __getitem__(self, key):
        value = dict.__getitem__(self, key)
        return Strict(value) if isinstance(value, dict) else value

    def get(self, key, default=None):
        return self[key]


with SimilarityService(example_graph(), num_walks=200, seed=7) as service:
    top = service.top_k_for_vertex("v1", 3)
    service.pair("v1", "v2", method="two_phase")
    stats = service.service_stats()
counters = bench_worker._counters(Strict(stats))
print(json.dumps({
    "indexed": top.candidates_rescored is not None,
    "index_store_bytes": stats["tenants"]["default"]["topk_index"]["store"]["bytes"],
    "counters": sorted(counters),
    "spans": sorted({span[0] for span in recorder.spans}),
}))
"""


def test_tracer_seams_and_worker_counters_resolve():
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    report = json.loads(completed.stdout.splitlines()[-1])
    assert report["indexed"]  # the top-k went through the index store
    assert report["index_store_bytes"] > 0
    assert "topk_index.bytes" in report["counters"]
    # The wrapped stores are the ones the program calls.
    assert {"topk_index.build", "transition.cache_get"} <= set(report["spans"])
