"""Ordered serving replicas for one shard: failover walk + hedged probes.

A :class:`ReplicaSet` holds the replicas of a single shard in a fixed
order — replica 0 is the primary; every replica is a reference to the
same immutable shard store (behind the fault seam where a schedule says
so), so copies cannot diverge.  A query walks the healthy replicas in
that order and returns the first score vector, so a fault schedule that
kills one replica per shard changes *which copy* answered (and the
``repro.replica.*`` counters) but never the answer itself: no span
events are emitted on the failover path, which is what keeps answers,
metrics, and span digests byte-identical to the healthy single-copy
baseline.

Hedging, when enabled, probes the first backup *alongside* a primary
whose health is already suspect.  The hedge is
accounted in ``repro.replica.hedges`` and, when the backup's answer is
the one used, ``repro.replica.hedge_wins``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TransientError, VectorStoreError
from repro.observability.metrics import MetricsRegistry
from repro.replication.health import HealthTracker, ReplicaState


class ReplicaSet:
    """The serving copies of one shard, probed with deterministic failover."""

    def __init__(
        self,
        shard_index: int,
        replicas: list,
        health: HealthTracker,
        *,
        hedging: bool = False,
    ) -> None:
        if not replicas:
            raise VectorStoreError(
                f"replica set for shard {shard_index} needs at least one replica"
            )
        self.shard_index = shard_index
        self.replicas = list(replicas)
        self.health = health
        self.hedging = hedging

    def probe_order(self) -> list[int]:
        """Replica indices the walk may try, primary first, down skipped.

        Consuming: asking advances every down replica's skip counter
        toward its half-open probe, so call once per query.
        """
        return [
            replica
            for replica in range(len(self.replicas))
            if self.health.should_probe(self.shard_index, replica)
        ]

    def scores(self, qvec: np.ndarray, registry: MetricsRegistry) -> "np.ndarray | None":
        """This shard's score vector from the first replica that answers,
        counting the walk on ``registry`` (the querying request's).

        Returns ``None`` when no replica answers (every copy down or
        failing) — the composite store selects over the surviving
        shards and reports partial coverage.
        """
        order = self.probe_order()
        hedge_replica: int | None = None
        hedge_scores: "np.ndarray | None" = None
        if (
            self.hedging
            and len(order) > 1
            and self.health.state(self.shard_index, order[0]) is ReplicaState.SUSPECT
        ):
            hedge_replica = order[1]
            registry.counter("repro.replica.hedges").inc()
            hedge_scores = self._probe(hedge_replica, qvec, registry)
        for position, replica in enumerate(order):
            if replica == hedge_replica:
                scores = hedge_scores
                if scores is not None and position > 0:
                    registry.counter("repro.replica.hedge_wins").inc()
            else:
                if position > 0:
                    registry.counter("repro.replica.failovers").inc()
                scores = self._probe(replica, qvec, registry)
            if scores is not None:
                return scores
        return None

    def _probe(
        self, replica: int, qvec: np.ndarray, registry: MetricsRegistry
    ) -> "np.ndarray | None":
        """One replica's scores — one store call, so one fault draw."""
        registry.counter("repro.replica.probes").inc()
        try:
            scores = self.replicas[replica].scores(qvec)
        except (TransientError, VectorStoreError):
            self.health.record_failure(self.shard_index, replica, registry)
            registry.counter("repro.replica.probe_failures").inc()
            return None
        self.health.record_success(self.shard_index, replica, registry)
        return scores
