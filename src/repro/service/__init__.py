"""Serving layer: batched, sharded, multi-tenant similarity queries.

The service subsystem turns the :class:`~repro.core.engine.SimRankEngine`
into a servable system:

* :mod:`repro.service.service` — :class:`SimilarityService`, the front end
  accepting pair / top-k-pairs / top-k-for-vertex queries and coalescing
  concurrent submissions into batches that share walk bundles, answered by
  a configurable pool of read workers.  Queries carry an optional
  ``graph=`` tenant name and a per-query ``num_walks=`` override; mutations
  are ingested through :meth:`SimilarityService.mutate` on a dedicated
  single-writer thread.
* :mod:`repro.service.epoch` — :class:`EpochManager` /
  :class:`EngineSnapshot`, the epoch-pinned immutable read views that let
  queries keep answering (bit-identically, at their pinned graph version)
  while mutations build and publish the next snapshot.
* :mod:`repro.service.tenancy` — :class:`GraphRegistry` hosting many named
  :class:`GraphTenant` graphs in one process (each with its own bundle-store
  budget, sampler scheme, and engine parameters) and :class:`MutationLog`,
  the validated add/remove/update mutation batches whose ingest patches CSR
  snapshots incrementally.
* :class:`ShardedWalkSampler` (from :mod:`repro.core.batch_walks`, also
  importable from :mod:`repro.service.sharding`) — the keyed walk sampler
  every tenant resolves its bundle misses through, one sweep per batch.
* :class:`WalkBundleStore` (from :mod:`repro.core.bundle_store`) — the
  LRU-bounded walk-bundle store with hit/miss/eviction/repair stats, one
  per tenant, carried forward across mutation-log ingest.
* :mod:`repro.service.qos` — :class:`AdmissionController` /
  :class:`TokenBucket` / :class:`OverloadedError`, per-tenant admission
  quotas (``max_qps`` / ``max_inflight`` / ``max_queue_depth``) enforced
  synchronously at submit, plus the structured overload rejection.
* :mod:`repro.service.runner` — the JSON-lines request runner behind
  ``python -m repro.service``.
"""

from repro.core.batch_walks import ShardedWalkSampler
from repro.core.bundle_store import BundleStoreStats, WalkBundleStore
from repro.service.epoch import (
    EngineSnapshot,
    Epoch,
    EpochLease,
    EpochManager,
    VersionedStoreView,
)
from repro.service.qos import AdmissionController, OverloadedError, TokenBucket
from repro.service.service import (
    PairQuery,
    SimilarityService,
    TopKPairsQuery,
    TopKResult,
    TopKVertexQuery,
)
from repro.service.tenancy import (
    DEFAULT_GRAPH_NAME,
    GraphRegistry,
    GraphTenant,
    Mutation,
    MutationLog,
    MutationReport,
    TenantConfig,
)

__all__ = [
    "BundleStoreStats",
    "WalkBundleStore",
    "EngineSnapshot",
    "Epoch",
    "EpochLease",
    "EpochManager",
    "VersionedStoreView",
    "AdmissionController",
    "OverloadedError",
    "TokenBucket",
    "PairQuery",
    "SimilarityService",
    "TopKPairsQuery",
    "TopKResult",
    "TopKVertexQuery",
    "ShardedWalkSampler",
    "DEFAULT_GRAPH_NAME",
    "GraphRegistry",
    "GraphTenant",
    "Mutation",
    "MutationLog",
    "MutationReport",
    "TenantConfig",
]
