"""Keyed sweep kernel: the fused kernel against its reference oracle.

One deterministic keyed sweep — the Fig. 12 sweep-graph shape, every row a
``(source, world key)`` pair — runs at two walk lengths through both step
loops of :mod:`repro.core.kernels`:

* ``reference`` — :class:`~repro.core.kernels.ReferenceKernel`, the
  original chunked loop, the bit-identity oracle and the baseline of every
  ratio.
* ``numpy`` — :class:`~repro.core.kernels.NumpyKernel`, the fused kernel
  every production sweep runs (scratch reuse, pre-shifted integer
  thresholds, flatnonzero+bincount selection, dense fast path).

The fused kernel's walk matrix is checked bit-identical to the reference
before its speedup is reported — a kernel that drifted would invalidate
the whole deterministic serving stack, so the experiment refuses to report
a speedup for it.  Timing is best-of-N (min filters scheduler noise, the
benchmark suite's protocol).

Run it from the CLI with ``python -m repro.experiments kernels [--quick]``.
"""

from __future__ import annotations

import timeit
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.kernels import NumpyKernel, ReferenceKernel
from repro.experiments.report import format_table
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_uncertain


@dataclass
class KernelRun:
    """One kernel's cost on the shared keyed sweep at one walk length."""

    kernel: str
    length: int
    best_wall_ms: float
    speedup: float  #: reference best time / this kernel's best time
    bit_identical: bool


@dataclass
class KernelsResult:
    """Both kernels' runs at every walk length."""

    num_vertices: int
    num_edges: int
    rows: int
    runs: List[KernelRun]


def run_kernels_experiment(
    num_vertices: int = 600,
    num_edges: int = 6000,
    rows: int = 60_000,
    lengths: tuple = (4, 11),
    repeats: int = 5,
) -> KernelsResult:
    """Time the reference and the fused kernel on one deterministic sweep."""
    csr = CSRGraph.from_uncertain(rmat_uncertain(num_vertices, num_edges, rng=43))
    generator = np.random.default_rng(11)
    sources = generator.integers(0, csr.num_vertices, size=rows).astype(np.int64)
    keys = generator.integers(0, 2**64, size=rows, dtype=np.uint64)

    runs: List[KernelRun] = []
    for length in lengths:
        expected = ReferenceKernel().sample(csr, sources, length, keys)
        baseline_ms = 0.0
        for name, kernel in (("reference", ReferenceKernel()), ("numpy", NumpyKernel())):
            identical = np.array_equal(kernel.sample(csr, sources, length, keys), expected)
            wall_ms = 1e3 * min(
                timeit.repeat(
                    lambda: kernel.sample(csr, sources, length, keys),
                    number=1,
                    repeat=repeats,
                )
            )
            if name == "reference":
                baseline_ms = wall_ms
            runs.append(
                KernelRun(
                    kernel=name,
                    length=length,
                    best_wall_ms=wall_ms,
                    speedup=baseline_ms / wall_ms if identical else float("nan"),
                    bit_identical=identical,
                )
            )
    return KernelsResult(
        num_vertices=num_vertices, num_edges=num_edges, rows=rows, runs=runs
    )


def format_kernels_results(result: KernelsResult) -> str:
    """Render the sweep as the experiment harness's aligned plain-text table."""
    headers = ("kernel", "length", "best ms", "speedup", "bit-identical")
    table_rows = [
        (run.kernel, run.length, run.best_wall_ms, run.speedup, run.bit_identical)
        for run in result.runs
    ]
    return "\n".join(
        [
            f"keyed sweep: {result.rows} walks on rmat"
            f"({result.num_vertices}, {result.num_edges})",
            format_table(headers, table_rows, precision=2),
        ]
    )
