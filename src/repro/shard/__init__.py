"""repro.shard — fault-tolerant multi-process sharded embedding store.

The embedding table is partitioned into contiguous node ranges
(entropy-aware when degrees are known), each served by a real shard
process over shared memory and journaled into a CRC-checksummed WAL
checkpoint store; a supervisor promotes warm replicas or restarts
crashed shards from their newest *verified* checkpoint, re-checkpoints
stale shards in the background to bound staleness, elastically splits
hot shards online, and the scatter-gather front hedges failed shards
through replicas and the stale-checkpoint tier instead of failing whole
requests.
"""

from repro.shard.errors import (
    CheckpointCorruptionError,
    PartialResultError,
    ShardCrashError,
    ShardError,
    ShardTimeoutError,
    UnsupportedPlatformError,
)
from repro.shard.host import ShardHost
from repro.shard.ranges import ShardRoutingTable
from repro.shard.refresh import BackgroundCheckpointer
from repro.shard.store import (
    STATUS_FRESH,
    STATUS_MISSING,
    STATUS_REPLICA,
    STATUS_STALE,
    EmbeddingShardManager,
    ShardLookupResult,
    ShardPolicy,
)
from repro.shard.supervisor import (
    DEFAULT_RESTART_BACKOFF,
    Incident,
    ShardSupervisor,
    SupervisorPolicy,
)

__all__ = [
    "BackgroundCheckpointer",
    "CheckpointCorruptionError",
    "DEFAULT_RESTART_BACKOFF",
    "EmbeddingShardManager",
    "Incident",
    "PartialResultError",
    "STATUS_FRESH",
    "STATUS_MISSING",
    "STATUS_REPLICA",
    "STATUS_STALE",
    "ShardCrashError",
    "ShardError",
    "ShardHost",
    "ShardLookupResult",
    "ShardPolicy",
    "ShardRoutingTable",
    "ShardSupervisor",
    "ShardTimeoutError",
    "SupervisorPolicy",
    "UnsupportedPlatformError",
]
