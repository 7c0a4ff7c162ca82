"""A sustained mixed workload against the similarity query service.

Several client threads fire pair, top-k-pairs and top-k-for-vertex queries at
one :class:`~repro.service.service.SimilarityService` over an R-MAT sweep
graph.  Concurrent submissions coalesce into batches, every batch samples
only the walk bundles the store does not already hold, and the run ends with
the service's batching and bundle-store counters — on a warm store the hit
rate climbs toward 1 and throughput is bounded by scoring, not sampling.

Run with::

    python examples/service_workload.py
"""

from __future__ import annotations

import threading
import time

from repro.graph.generators import rmat_uncertain
from repro.service import PairQuery, SimilarityService, TopKVertexQuery

NUM_CLIENTS = 4
QUERIES_PER_CLIENT = 30


def client(service: SimilarityService, vertices, offset: int, errors: list) -> None:
    try:
        for i in range(QUERIES_PER_CLIENT):
            u = vertices[(offset * 37 + i * 11) % len(vertices)]
            v = vertices[(offset * 53 + i * 29) % len(vertices)]
            if i % 5 == 0:
                service.submit(TopKVertexQuery(u, 5)).result()
            else:
                service.submit(PairQuery(u, v)).result()
    except Exception as error:  # pragma: no cover - demo diagnostics
        errors.append(error)


def main() -> None:
    graph = rmat_uncertain(600, 6000, rng=43)
    vertices = graph.vertices()
    errors: list = []

    with SimilarityService(graph, iterations=4, num_walks=500, seed=7) as service:
        threads = [
            threading.Thread(target=client, args=(service, vertices, n, errors))
            for n in range(NUM_CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start

        stats = service.service_stats()

    if errors:
        raise errors[0]
    total = NUM_CLIENTS * QUERIES_PER_CLIENT
    print(f"{total} queries from {NUM_CLIENTS} threads in {elapsed:.2f}s "
          f"({total / elapsed:.0f} queries/s)")
    print(f"batches: {stats['batches']} (largest {stats['largest_batch']}), "
          f"store hit rate: {stats['store']['hit_rate']:.2f}, "
          f"bundles held: {stats['store_entries']} ({stats['store_bytes'] / 1e6:.1f} MB)")
    print("Queries coalesced into batches share walk bundles; a warm store")
    print("answers pair queries without sampling at all.")


if __name__ == "__main__":
    main()
