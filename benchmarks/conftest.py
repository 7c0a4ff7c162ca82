"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
scale (the scale parameters live in the individual files).  Run with::

    pytest benchmarks/ --benchmark-only

Add ``-s`` to also see the regenerated tables printed to stdout.

Setting ``REPRO_BENCH_QUICK=1`` switches the batched-sampling and service
benchmarks to the *smallest* sweep graph and a reduced walk count — the CI
smoke job uses this so hot-path perf regressions fail loudly without a long
benchmark run.
"""

from __future__ import annotations

import pytest


def pytest_configure(config):
    # Benchmarks are identified by the paper artefact they regenerate.
    config.addinivalue_line("markers", "paper_artifact(name): table/figure the benchmark reproduces")
