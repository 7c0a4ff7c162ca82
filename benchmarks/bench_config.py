"""Shared scale knobs of the benchmark harness.

Setting ``REPRO_BENCH_QUICK=1`` switches the batched-sampling and service
benchmarks to the *smallest* graph of the Fig. 12 scalability sweep and a
reduced walk count — the CI smoke job uses this so hot-path perf regressions
fail loudly without a long benchmark run.
"""

from __future__ import annotations

import os

#: Quick mode for the CI benchmark smoke job.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: (num_vertices, num_edges) of the benchmark sweep graph: the smallest graph
#: of the Fig. 12 sweep in quick mode, a mid-size one otherwise.
SWEEP_GRAPH_SIZE = (600, 1500) if QUICK else (600, 6000)

#: (num_vertices, num_edges) of the *largest* sweep graph (service benchmarks).
LARGEST_SWEEP_GRAPH_SIZE = (600, 1500) if QUICK else (600, 7500)

#: The paper's N for the batched-sampling and service benchmarks.
BENCH_NUM_WALKS = 200 if QUICK else 1000
