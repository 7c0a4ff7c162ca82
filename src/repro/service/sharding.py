"""Re-export of the keyed walk sampler, which lives in
:mod:`repro.core.batch_walks` so that the engine and the service share it."""

from repro.core.batch_walks import (  # noqa: F401
    DEFAULT_SHARD_SIZE,
    ShardedWalkSampler,
    shard_world_keys,
)

__all__ = ["DEFAULT_SHARD_SIZE", "ShardedWalkSampler", "shard_world_keys"]
