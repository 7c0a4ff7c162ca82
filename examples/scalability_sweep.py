"""Scalability of SR-TS and SR-SP on growing R-MAT graphs (Fig. 12 analogue).

Generates R-MAT uncertain graphs with a fixed vertex count and an increasing
number of edges (probabilities uniform in ``[0, 1]``, as in the paper), and
measures the average single-pair query time of the two-phase algorithm with
and without the bit-vector speed-up.

Run with::

    python examples/scalability_sweep.py
"""

from __future__ import annotations

from repro.experiments.scalability import (
    format_scalability_results,
    run_scalability_experiment,
)


def main() -> None:
    results = run_scalability_experiment(
        num_vertices=600,
        edge_counts=(1500, 3000, 4500, 6000),
        num_pairs=5,
    )
    print(format_scalability_results(results))
    print("\nBoth series should grow roughly linearly with the edge count,")
    print("with SR-SP consistently below SR-TS thanks to the shared sampling.")


if __name__ == "__main__":
    main()
