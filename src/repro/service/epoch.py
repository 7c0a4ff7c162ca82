"""Epoch-pinned engine snapshots: wait-free reads under single-writer ingest.

The estimator of the paper is embarrassingly read-parallel — walk bundles
are pure functions of ``(graph snapshot, sampling scheme)`` and are shared
across queries — yet a serving layer that mutates its graph *in place*
forces every reader to coordinate with the writer.  This module removes
that coordination with the classic epoch scheme of read-optimized stores
(RCU / MVCC in miniature):

* :class:`~repro.core.executors.EngineSnapshot` (defined with the method
  executors, re-exported here) — one immutable, self-sufficient read view of
  a tenant, built by the tenant engine's
  :meth:`~repro.core.engine.SimRankEngine.snapshot`: the pinned
  :class:`~repro.graph.csr.CSRGraph`, the engine's snapshot-scoped caches
  (α cache, SR-SP filter vectors and tables, the top-k index store and the
  cross-batch transition cache, see
  :class:`~repro.core.executors.EngineCaches` — all of it lives and dies
  with the snapshot, so epoch retirement invalidates it for free), the
  engine parameters, and a :class:`~repro.core.executors.WalkSource` that
  resolves walk bundles through the engine's keyed sampler and a
  :class:`VersionedStoreView` of the tenant's
  :class:`~repro.core.bundle_store.WalkBundleStore` (defined with the store,
  re-exported here), which can never serve or retain a bundle of a
  different graph version.
* :class:`EpochManager` — publishes snapshots atomically.  Readers
  :meth:`~EpochManager.pin` the current epoch (a refcounted
  :class:`EpochLease`); the writer publishes a successor and *retires* the
  predecessor, which is freed the moment its last lease drains.  Pinning
  and publishing are a couple of refcount updates under one small lock —
  never blocked by sampling, and never blocking ingest.

Query answering against a pinned snapshot touches **no mutable tenant
state** — for *every* paper method, since the method executors
(:mod:`repro.core.executors`) run the exact algorithms on the snapshot's
pinned CSR view and all sampled randomness is keyed: in-flight queries keep
answering on their epoch while a mutation batch builds the next one, and
results stay bit-identical to a standalone engine built at the pinned graph
version (a bundle resampled on the retiring epoch equals the one the store
held).

The write side stays single-writer by construction: mutation ingest runs in
the service's dedicated writer thread (or the caller's thread for direct
:meth:`~repro.service.tenancy.GraphTenant.apply` calls), serialized per
tenant by the tenant's write lock.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Dict, List, Optional

from repro.core.bundle_store import VersionedStoreView
from repro.core.executors import EngineSnapshot
from repro.utils.errors import InvalidParameterError

__all__ = [
    "EngineSnapshot",
    "Epoch",
    "EpochLease",
    "EpochManager",
    "VersionedStoreView",
]


class Epoch:
    """One published snapshot plus its pin accounting.

    All fields are guarded by the owning :class:`EpochManager`'s lock; the
    object itself is only ever handed out inside an :class:`EpochLease`.
    """

    __slots__ = ("snapshot", "pins", "retired")

    def __init__(self, snapshot: EngineSnapshot) -> None:
        self.snapshot = snapshot
        self.pins = 0
        self.retired = False

    def __repr__(self) -> str:
        state = "retired" if self.retired else "current"
        return (
            f"Epoch(id={self.snapshot.epoch_id}, "
            f"version={self.snapshot.graph_version}, pins={self.pins}, {state})"
        )


class EpochLease:
    """A pinned epoch: holds one refcount until released.

    Use as a context manager (the service's read workers do), or call
    :meth:`release` explicitly; releasing twice is a harmless no-op.  The
    lease — not the manager — is the only handle readers need: its
    :attr:`snapshot` is guaranteed to stay fully intact (CSR arrays, caches,
    store view) until released.
    """

    __slots__ = ("_manager", "_epoch", "_released")

    def __init__(self, manager: "EpochManager", epoch: Epoch) -> None:
        self._manager = manager
        self._epoch = epoch
        self._released = False

    @property
    def snapshot(self) -> EngineSnapshot:
        """The pinned snapshot."""
        return self._epoch.snapshot

    def release(self) -> None:
        """Drop the pin; frees the epoch if it is retired and drained."""
        if not self._released:
            self._released = True
            self._manager._release(self._epoch)

    def __enter__(self) -> "EpochLease":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"EpochLease({self._epoch!r}, released={self._released})"


class EpochManager:
    """Atomic snapshot publication with refcounted reader leases.

    One manager per tenant.  The writer calls :meth:`publish` with a fully
    built :class:`EngineSnapshot`; readers call :meth:`pin`.  Every
    operation is O(1) under one small lock — the heavy work (building the
    CSR, sampling) always happens outside.

    Retirement protocol: publishing epoch *n+1* retires epoch *n*; a retired
    epoch is freed (dropped from the live table) as soon as its pin count
    reaches zero, which the lifetime counters in :meth:`stats` make
    observable — ``live`` must return to 1 when all readers drain, or the
    service is leaking snapshots.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._current: Optional[Epoch] = None
        self._live: Dict[int, Epoch] = {}
        self._next_id = 1
        self._published = 0
        self._freed = 0
        self._max_live = 0

    # -- writer side ----------------------------------------------------------

    def publish(self, snapshot: EngineSnapshot) -> EngineSnapshot:
        """Install ``snapshot`` as the current epoch, retiring the previous.

        The manager assigns the epoch id (monotone from 1); the returned
        snapshot carries it.  In-flight leases on the previous epoch are
        untouched — it is freed when the last one drains.
        """
        with self._lock:
            stamped = replace(snapshot, epoch_id=self._next_id)
            self._next_id += 1
            epoch = Epoch(stamped)
            previous = self._current
            self._current = epoch
            self._live[stamped.epoch_id] = epoch
            self._published += 1
            if previous is not None:
                previous.retired = True
                if previous.pins == 0:
                    self._free_locked(previous)
            self._max_live = max(self._max_live, len(self._live))
            return stamped

    # -- reader side ----------------------------------------------------------

    @property
    def current(self) -> Optional[Epoch]:
        """The current epoch (``None`` before the first publish)."""
        with self._lock:
            return self._current

    def pin(self) -> EpochLease:
        """Lease the current epoch; raises before the first publish."""
        with self._lock:
            if self._current is None:
                raise InvalidParameterError(
                    "no epoch published yet; the tenant must publish its "
                    "initial snapshot before readers can pin"
                )
            self._current.pins += 1
            return EpochLease(self, self._current)

    def _release(self, epoch: Epoch) -> None:
        with self._lock:
            epoch.pins -= 1
            if epoch.retired and epoch.pins == 0:
                self._free_locked(epoch)

    def _free_locked(self, epoch: Epoch) -> None:
        if self._live.pop(epoch.snapshot.epoch_id, None) is not None:
            self._freed += 1

    # -- introspection ---------------------------------------------------------

    def live_epochs(self) -> List[Epoch]:
        """The epochs not yet freed (current + retired-but-pinned)."""
        with self._lock:
            return list(self._live.values())

    def stats(self) -> Dict[str, object]:
        """Lifetime epoch accounting (the leak detector of the tests).

        ``live`` counts epochs not yet freed and ``pinned`` the leases still
        outstanding across them; with no readers in flight, a healthy tenant
        always shows ``live == 1`` (just the current epoch) and
        ``pinned == 0`` — anything else is a leaked lease.
        """
        with self._lock:
            return {
                "current": (
                    None if self._current is None else self._current.snapshot.epoch_id
                ),
                "current_version": (
                    None
                    if self._current is None
                    else self._current.snapshot.graph_version
                ),
                "published": self._published,
                "freed": self._freed,
                "live": len(self._live),
                "max_live": self._max_live,
                "pinned": sum(epoch.pins for epoch in self._live.values()),
            }

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"EpochManager(current={stats['current']}, live={stats['live']}, "
            f"pinned={stats['pinned']})"
        )
