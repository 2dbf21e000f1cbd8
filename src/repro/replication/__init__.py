"""Replicated shard serving: health tracking, failover, hedging.

Each shard of a :class:`~repro.vectorstore.sharded.ShardedVectorStore`
can serve from a :class:`ReplicaSet` of N serving copies — each a
reference to the one immutable shard store, told apart only by the
(fault-injectable) transport in front of it — while a clock-free
:class:`HealthTracker` folds per-probe outcomes into an
up → suspect → down state machine per replica.  The scatter walks
replicas in fixed order (primary first), so under any
single-replica-per-shard fault schedule the merged answers, metrics,
and span digests match the healthy single-copy baseline byte-for-byte.
"""

from repro.replication.health import HealthTracker, ReplicaState
from repro.replication.replicaset import ReplicaSet

__all__ = ["HealthTracker", "ReplicaSet", "ReplicaState"]
