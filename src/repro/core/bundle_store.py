"""The one bounded LRU of the serving layer: :class:`WalkBundleStore`.

The engine's original multi-pair batching kept walk bundles in plain dicts
that grew without bound — fine for one batched call, fatal for a long-running
query service that touches millions of endpoints over its lifetime.
:class:`WalkBundleStore` replaces those dicts with an LRU-evicting mapping
under a configurable byte budget, with hit/miss/eviction/repair counters,
bound to one graph snapshot identity at a time.

Every serving cache is one of these stores:

* the walk bundles of a tenant or an engine (the base class; keyed by
  :meth:`repro.core.batch_walks.ShardedWalkSampler.store_key`, so bundles
  sampled by an engine and by a service tenant under one ``(seed,
  shard_size)`` scheme are interchangeable), and, per snapshot on
  :class:`~repro.core.executors.EngineCaches`, the SR-SP propagation
  tables;
* the top-k index artifacts
  (:class:`~repro.core.topk_index.TopKIndexStore`);
* the exact transition distributions of two_phase/speedup's prefix
  (:class:`~repro.core.executors.TransitionCache`), sized by their state
  count.

The store is agnostic about keys (any hashable works) and values: an entry
weighs the ``size`` given to :meth:`WalkBundleStore.put`, by default the
value's ``nbytes``.

A walk is a pure function of its world key and of the out-rows it leaves
(:mod:`repro.core.batch_walks`), so a graph mutation need not empty the
store.  A version sync that knows the mutated rows (:meth:`sync_version`
with ``dirty``) *carries the store forward*: every entry remembers the store
generation it is valid at, the store remembers the generation at which each
vertex was last dirtied, and a lookup at a newer generation reports the
rows of the entry that left a vertex dirtied since — the only rows that can
differ from a fresh sample.  :class:`~repro.core.executors.WalkSource`
resamples those rows and puts the repaired copy back.  A sync that does not
know the mutated rows clears the store.  :class:`VersionedStoreView` pins a
store to one graph snapshot: every engine snapshot (and so every published
service epoch) resolves its bundles through one.

All operations are thread-safe: the service's batch worker and any number of
submitting threads may touch the store concurrently.  The store never holds
its lock while a value is built: callers ``get``/``lookup``, build a miss or
a repair outside the store, then ``put`` it.  The one exception is
:meth:`~repro.core.topk_index.TopKIndexStore.get_or_build`, which builds an
index artifact under the lock so concurrent readers of one snapshot share a
single build.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, Optional, Tuple

import numpy as np

from repro.utils.errors import InvalidParameterError

#: Default memory budget: generous for laptop-scale graphs, finite for a
#: long-running service (≈ 256 MiB of walk matrices).
DEFAULT_BUDGET_BYTES = 256 * 1024 * 1024


@dataclass
class BundleStoreStats:
    """Counters of one :class:`WalkBundleStore` (monotone over its lifetime).

    The owning store mutates the counters under its own lock and shares that
    lock here (:meth:`bind_lock`), so :meth:`as_dict` reads all counters
    atomically — a stats poll racing the service's read pool can never see a
    torn update (e.g. a hit counted but its lookup not yet visible).

    ``repairs`` counts the hits whose bundle was carried over a mutation and
    had rows to resample (so ``repairs <= hits``); ``rows_repaired`` sums
    those rows.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    repairs: int = 0
    rows_repaired: int = 0

    def bind_lock(self, lock: "threading.RLock") -> None:
        """Share the owning store's lock for atomic snapshot reads."""
        self._lock = lock

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly consistent snapshot of the counters."""
        lock = getattr(self, "_lock", None)
        if lock is None:
            return self._as_dict_unlocked()
        with lock:
            return self._as_dict_unlocked()

    def _as_dict_unlocked(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "repairs": self.repairs,
            "rows_repaired": self.rows_repaired,
            "hit_rate": self.hit_rate,
        }


#: The dirty table of a store with nothing carried: only the trailing
#: never-dirtied sentinel.
_NEVER_DIRTIED = np.zeros(1, dtype=np.int64)
_NEVER_DIRTIED.flags.writeable = False

#: The stale walks of a carried bundle: their row indices, and per row the
#: first step at which the walk left a dirtied vertex.
StaleRows = Tuple[np.ndarray, np.ndarray]

#: A walk-bundle lookup: the cached bundle and its :data:`StaleRows` — the
#: walks to resample before it is valid at the looked-up version (``None``
#: when it already is).
Lookup = Tuple[Any, Optional[StaleRows]]


def stale_rows(bundle: np.ndarray, dirtied: np.ndarray, since: int) -> StaleRows:
    """Walks of a bundle that left a vertex dirtied after generation ``since``.

    ``dirtied[x]`` is the generation at which vertex ``x`` was last dirtied
    and ends in a never-dirtied sentinel (0).  A walk leaves every vertex of
    ``bundle[:, :-1]``; the final column is never left.  Dead slots
    (:data:`~repro.core.batch_walks.NO_VERTEX`, -1) index the sentinel, as
    do vertices past the table (never dirtied), so neither can read a real
    vertex's entry.  Returns the stale row indices and, per stale row, the
    first step that left a dirtied vertex: the walk before it is unchanged.
    """
    left = bundle[:, :-1].astype(np.intp)
    np.minimum(left, dirtied.size - 1, out=left)
    hit = dirtied[left] > since
    rows = np.flatnonzero(hit.any(axis=1))
    return rows, hit[rows].argmax(axis=1)


class WalkBundleStore:
    """LRU-bounded mapping from keys to sized values (walk matrices here).

    Parameters
    ----------
    budget_bytes:
        Maximum total size of retained entries; least-recently-used entries
        are evicted when an insert pushes the store over the budget.
        ``None`` disables eviction (an unbounded store, used for ephemeral
        per-call caches).  A single entry larger than the whole budget is
        never retained.
    """

    def __init__(self, budget_bytes: Optional[int] = DEFAULT_BUDGET_BYTES) -> None:
        if budget_bytes is not None and budget_bytes < 1:
            raise InvalidParameterError(
                f"budget_bytes must be >= 1 or None, got {budget_bytes}"
            )
        self._budget = budget_bytes
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        # Per entry: the store generation it is valid at, and its size.  The
        # generation is bumped by every version change, so it orders the
        # versions the store has been bound to.
        self._meta: Dict[Hashable, Tuple[int, int]] = {}
        self._bytes = 0
        self._version: Hashable = None
        self._generation = 0
        # Generation at which each vertex was last dirtied (0 = never), plus
        # a trailing sentinel; replaced, never written, once published.
        self._dirtied = _NEVER_DIRTIED
        # One reentrant lock guards entries, byte accounting, the version
        # token, AND the counters (shared with the stats object), so every
        # observable quantity of the store updates atomically.
        self._lock = threading.RLock()
        self._stats = BundleStoreStats()
        self._stats.bind_lock(self._lock)

    # -- introspection --------------------------------------------------------

    @property
    def budget_bytes(self) -> Optional[int]:
        """The configured byte budget (``None`` = unbounded)."""
        return self._budget

    @property
    def current_bytes(self) -> int:
        """Total size of the retained entries."""
        return self._bytes

    @property
    def stats(self) -> BundleStoreStats:
        """Live counters of this store."""
        return self._stats

    def __len__(self) -> int:
        return len(self._entries)

    def cache_stats(self) -> Dict[str, int]:
        """The uniform ``{hits, misses, evictions, bytes}`` cache shape.

        The shape shared by every serving cache (walk bundles, top-k index
        artifacts, exact transition distributions) so dashboards can treat
        them as one family; :attr:`stats` keeps the store's richer
        invalidation/repair/hit-rate view.
        """
        with self._lock:
            return {
                "hits": self._stats.hits,
                "misses": self._stats.misses,
                "evictions": self._stats.evictions,
                "bytes": self._bytes,
            }

    def peek(self, key: Hashable) -> bool:
        """Whether ``key`` is present, without touching LRU order or stats."""
        with self._lock:
            return key in self._entries

    # -- the mapping ----------------------------------------------------------

    def _find_locked(self, key: Hashable) -> Optional[Lookup]:
        """``(value, stale rows or None)`` of ``key``, uncounted."""
        bundle = self._entries.get(key)
        if bundle is None:
            return None
        valid_at = self._meta[key][0]
        if valid_at == self._generation:
            return bundle, None
        stale = stale_rows(bundle, self._dirtied, valid_at)
        return bundle, (stale if stale[0].size else None)

    def get(self, key: Hashable) -> Optional[Any]:
        """The value stored under ``key``, or ``None`` (counted as hit/miss).

        A carried walk bundle with rows to repair is a miss here: ``get``
        only ever returns a value valid at the store's current version.
        """
        with self._lock:
            found = self._find_locked(key)
            if found is None or found[1] is not None:
                self._stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self._stats.hits += 1
            return found[0]

    def lookup(self, key: Hashable) -> Optional[Lookup]:
        """``(bundle, stale rows)`` of a walk bundle, or ``None`` on a miss.

        The stale rows are ``None`` when the bundle is valid at the current
        version, else the :data:`StaleRows` that left a vertex dirtied since
        the bundle was put: resample exactly those walks (under their own
        world keys, from their first dirtied step on) and :meth:`put` the
        repaired copy.  Such a lookup counts as a hit and a repair.
        """
        with self._lock:
            return self._lookup_locked(key)

    def _lookup_locked(self, key: Hashable) -> Optional[Lookup]:
        found = self._find_locked(key)
        if found is None:
            self._stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self._stats.hits += 1
        if found[1] is not None:
            self._stats.repairs += 1
            self._stats.rows_repaired += int(found[1][0].size)
        return found

    def put(self, key: Hashable, bundle: Any, size: Optional[int] = None) -> Any:
        """Store ``bundle`` under ``key``, evicting LRU entries over budget.

        The entry weighs ``size`` (default ``bundle.nbytes``) against the
        budget and is valid at the store's current version.  Returns the
        bundle, so callers can ``return store.put(key, b)``.
        """
        size = int(bundle.nbytes) if size is None else int(size)
        with self._lock:
            if self._entries.pop(key, None) is not None:
                self._bytes -= self._meta.pop(key)[1]
            if self._budget is not None and size > self._budget:
                # An entry that could never fit would immediately evict the
                # whole store and then itself; serve it uncached instead.
                self._stats.evictions += 1
                return bundle
            self._entries[key] = bundle
            self._meta[key] = (self._generation, size)
            self._bytes += size
            while self._budget is not None and self._bytes > self._budget:
                evicted_key, _ = self._entries.popitem(last=False)
                self._bytes -= self._meta.pop(evicted_key)[1]
                self._stats.evictions += 1
        return bundle

    # -- version-pinned access (epoch read views) -----------------------------

    @property
    def version_token(self) -> Hashable:
        """The snapshot identity the store is currently bound to."""
        with self._lock:
            return self._version

    def lookup_versioned(self, key: Hashable, token: Hashable) -> Optional[Lookup]:
        """:meth:`lookup`, but only while the store is still bound to ``token``."""
        with self._lock:
            if token != self._version:
                self._stats.misses += 1
                return None
            return self._lookup_locked(key)

    def put_versioned(
        self, key: Hashable, bundle: Any, token: Hashable
    ) -> Any:
        """:meth:`put`, dropped silently if the store moved past ``token``.

        Keeps a retiring epoch's late resamples from polluting the store
        after a mutation re-bound it to the next graph version.
        """
        with self._lock:
            if token != self._version:
                return bundle
            return self.put(key, bundle)

    # -- invalidation ---------------------------------------------------------

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            return self._clear_locked()

    def _clear_locked(self) -> int:
        dropped = len(self._entries)
        self._entries.clear()
        self._meta.clear()
        self._bytes = 0
        return dropped

    def sync_version(
        self,
        token: Hashable,
        dirty: Optional[Iterable[int]] = None,
        since: Hashable = None,
    ) -> bool:
        """Bind the store to a graph snapshot identity.

        ``token`` is typically ``(id(graph), graph.version)``.  With
        ``dirty`` — the dense indices, on the new snapshot, of every vertex
        whose out-row differs between the snapshot ``since`` and ``token``
        (appended vertices included) — and the store still bound to
        ``since``, the entries are carried forward: they stay, and a later
        :meth:`lookup` reports the rows that left a dirtied vertex.  Any
        other change of token clears the store.  Returns ``True`` when the
        token changed and existing entries were dropped — i.e. a graph
        mutation invalidated the cached bundles.
        """
        with self._lock:
            if token == self._version:
                return False
            carry = dirty is not None and since is not None and since == self._version
            self._version = token
            self._generation += 1
            if carry:
                rows = np.fromiter(dirty, dtype=np.intp)
                known = self._dirtied.size - 1
                size = max(known, int(rows.max()) + 1) if rows.size else known
                dirtied = np.zeros(size + 1, dtype=np.int64)
                dirtied[:known] = self._dirtied[:known]
                dirtied[rows] = self._generation
                self._dirtied = dirtied
                return False
            self._dirtied = _NEVER_DIRTIED
            if self._clear_locked():
                self._stats.invalidations += 1
                return True
            return False


class VersionedStoreView:
    """A read/write view of one bundle store pinned to one snapshot token.

    Bundle-store keys do not carry the graph version, so a reader that
    outlives a mutation must not touch the store directly: it could read a
    bundle valid at a newer graph, or leak an old bundle into the new
    version's cache.  The view forwards every operation through the store's
    version-checked entry points — while the store is still bound to this
    view's token it behaves exactly like the store; afterwards every
    ``lookup`` misses and every ``put`` is dropped, and the retiring reader
    simply resamples (bit-identically) on its own pinned snapshot.
    """

    __slots__ = ("_store", "token")

    def __init__(self, store: WalkBundleStore, token: Hashable) -> None:
        self._store = store
        self.token = token

    @property
    def current(self) -> bool:
        """Whether the backing store is still bound to this view's version."""
        return self._store.version_token == self.token

    def lookup(self, key: Hashable) -> Optional[Lookup]:
        """Version-checked :meth:`WalkBundleStore.lookup`."""
        return self._store.lookup_versioned(key, self.token)

    def put(self, key: Hashable, bundle: Any) -> Any:
        """Version-checked :meth:`WalkBundleStore.put`."""
        return self._store.put_versioned(key, bundle, self.token)

    def __repr__(self) -> str:
        return f"VersionedStoreView(token={self.token!r}, current={self.current})"
