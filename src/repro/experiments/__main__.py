"""Command-line runner for the experiment harness.

Usage::

    python -m repro.experiments <experiment> [--quick]

where ``<experiment>`` is one of the paper-figure harnesses ``datasets``,
``measures``, ``convergence``, ``efficiency``, ``accuracy``, ``param-n``,
``scalability``, ``case-ppi``, ``case-er`` or ``all``.  ``--quick`` shrinks the
workload (fewer pairs, smaller sample sizes) so a full pass finishes in a
couple of minutes.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

from repro.experiments.accuracy import format_accuracy_results, run_accuracy_experiment
from repro.experiments.case_er import (
    format_er_quality_result,
    format_er_runtime_result,
    run_er_quality_experiment,
    run_er_runtime_experiment,
)
from repro.experiments.case_ppi import format_ppi_case_study, run_ppi_case_study
from repro.experiments.convergence import (
    format_convergence_results,
    run_convergence_experiment,
)
from repro.experiments.efficiency import format_efficiency_results, run_efficiency_experiment
from repro.experiments.measures import format_measures_results, run_measures_experiment
from repro.experiments.param_n import format_param_n_results, run_param_n_experiment
from repro.experiments.report import format_dataset_summary
from repro.experiments.scalability import (
    format_scalability_results,
    run_scalability_experiment,
)


def _run_datasets(quick: bool) -> str:
    return format_dataset_summary()


def _run_measures(quick: bool) -> str:
    results = run_measures_experiment(num_pairs=20 if quick else 60)
    return format_measures_results(results)


def _run_convergence(quick: bool) -> str:
    results = run_convergence_experiment(
        datasets=("ppi1",) if quick else ("ppi1", "net"),
        num_pairs=6 if quick else 12,
        max_iterations=6 if quick else 7,
    )
    return format_convergence_results(results)


def _run_efficiency(quick: bool) -> str:
    results = run_efficiency_experiment(
        datasets=("ppi2", "net") if quick else ("ppi2", "condmat", "ppi3", "dblp"),
        num_pairs=3 if quick else 8,
        num_walks=200 if quick else 500,
    )
    return format_efficiency_results(results)


def _run_accuracy(quick: bool) -> str:
    results = run_accuracy_experiment(
        datasets=("ppi2", "net") if quick else ("ppi2", "net", "ppi1"),
        num_pairs=5 if quick else 15,
        num_walks=200 if quick else 500,
    )
    return format_accuracy_results(results)


def _run_param_n(quick: bool) -> str:
    results = run_param_n_experiment(
        sample_sizes=(125, 500, 1000) if quick else (125, 250, 500, 1000, 2000),
        num_pairs=4 if quick else 8,
    )
    return format_param_n_results(results)


def _run_scalability(quick: bool) -> str:
    results = run_scalability_experiment(
        edge_counts=(1500, 3000) if quick else (1500, 3000, 4500, 6000, 7500),
        num_pairs=3 if quick else 6,
    )
    return format_scalability_results(results)


def _run_case_ppi(quick: bool) -> str:
    result = run_ppi_case_study(k=10 if quick else 20, num_walks=200 if quick else 400)
    return format_ppi_case_study(result)


def _run_case_er(quick: bool) -> str:
    quality = run_er_quality_experiment(num_walks=100 if quick else 200)
    runtime = run_er_runtime_experiment(
        record_counts=(120, 200) if quick else (120, 200, 280, 360),
        num_walks=80 if quick else 150,
    )
    return (
        "Table V analogue (quality)\n"
        + format_er_quality_result(quality)
        + "\n\nFig. 15 analogue (runtime)\n"
        + format_er_runtime_result(runtime)
    )


EXPERIMENTS: Dict[str, Callable[[bool], str]] = {
    "datasets": _run_datasets,
    "measures": _run_measures,
    "convergence": _run_convergence,
    "efficiency": _run_efficiency,
    "accuracy": _run_accuracy,
    "param-n": _run_param_n,
    "scalability": _run_scalability,
    "case-ppi": _run_case_ppi,
    "case-er": _run_case_er,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro.experiments``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the tables and figures of the paper's evaluation.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all"],
        help="which experiment to run ('all' runs every one in sequence)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="use reduced workloads for a fast pass"
    )
    args = parser.parse_args(argv)

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(f"=== {name} ===")
        print(EXPERIMENTS[name](args.quick))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
