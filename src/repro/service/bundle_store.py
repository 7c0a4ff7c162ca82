"""Re-export of the byte-budgeted LRU store, which lives in
:mod:`repro.core.bundle_store` so that core caches can use it too."""

from repro.core.bundle_store import (  # noqa: F401
    DEFAULT_BUDGET_BYTES,
    BundleStoreStats,
    WalkBundleStore,
)

__all__ = ["DEFAULT_BUDGET_BYTES", "BundleStoreStats", "WalkBundleStore"]
