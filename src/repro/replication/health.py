"""Clock-free replica health tracking for the sharded serving path.

:class:`HealthTracker` is the replication analogue of
:class:`~repro.admission.limiter.TokenBucket`: it never reads a clock.
Every transition is a pure fold over the per-replica sequence of probe
outcomes (:meth:`HealthTracker.record_success` /
:meth:`~HealthTracker.record_failure`) and selection skips
(:meth:`~HealthTracker.should_probe`), so two runs that see the same
fault schedule walk byte-identical state machines — which is what keeps
failover digest-stable.

State machine per ``(shard, replica)`` key::

    UP --failures >= SUSPECT_AFTER (1)--> SUSPECT
    SUSPECT --failures >= DOWN_AFTER (3)--> DOWN
    DOWN --PROBE_AFTER (4) selections--> one half-open probe
    any --probe success--> UP

A *down* replica is skipped by the failover walk; every
``PROBE_AFTER``-th selection it is offered one half-open probe (the
circuit-breaker idiom, counted in attempts instead of seconds).  A
single success fully recovers the replica.
"""

from __future__ import annotations

import enum
import threading

from repro.observability.metrics import MetricsRegistry

#: Consecutive probe failures that mark a replica *suspect*.
SUSPECT_AFTER = 1
#: Consecutive probe failures that mark a replica *down*.
DOWN_AFTER = 3
#: A down replica's selections per half-open probe.
PROBE_AFTER = 4


class ReplicaState(str, enum.Enum):
    """Health of one serving replica; values are wire/CLI strings."""

    UP = "up"
    SUSPECT = "suspect"
    DOWN = "down"


class _Cell:
    """Mutable health record for one ``(shard, replica)`` key."""

    __slots__ = ("state", "failures", "skips")

    def __init__(self) -> None:
        self.state = ReplicaState.UP
        #: Consecutive probe failures since the last success.
        self.failures = 0
        #: Selections sat out while down, toward the half-open probe.
        self.skips = 0


class HealthTracker:
    """Attempt-count-based up → suspect → down tracker per replica.

    Thread-safe: requests on different threads (batch workers, a bot
    answering beside an ingest) probe through one tracker.  Transitions
    are counted in ``repro.replica.marked_suspect`` / ``marked_down`` /
    ``recovered`` on the registry of the request whose probe caused them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cells: dict[tuple[int, int], _Cell] = {}

    def _cell(self, shard: int, replica: int) -> _Cell:
        """The key's cell, created on first use; the caller holds the lock."""
        cell = self._cells.get((shard, replica))
        if cell is None:
            cell = self._cells[(shard, replica)] = _Cell()
        return cell

    def state(self, shard: int, replica: int) -> ReplicaState:
        with self._lock:
            return self._cell(shard, replica).state

    def record_success(self, shard: int, replica: int, registry: MetricsRegistry) -> None:
        """A probe answered: the replica is fully up again.

        On a clean UP cell this is a no-op, so it returns after an
        unlocked read (and linearises there); any transition locks.
        """
        cell = self._cells.get((shard, replica))
        if cell is not None and cell.state is ReplicaState.UP and cell.failures == 0:
            return
        with self._lock:
            cell = self._cell(shard, replica)
            recovered = cell.state is not ReplicaState.UP
            cell.state = ReplicaState.UP
            cell.failures = 0
            cell.skips = 0
        if recovered:
            registry.counter("repro.replica.recovered").inc()

    def record_failure(self, shard: int, replica: int, registry: MetricsRegistry) -> None:
        """A probe failed: advance toward suspect/down thresholds."""
        with self._lock:
            cell = self._cell(shard, replica)
            cell.failures += 1
            previous = cell.state
            if cell.failures >= DOWN_AFTER:
                cell.state = ReplicaState.DOWN
                if previous is not ReplicaState.DOWN:
                    cell.skips = 0
            elif cell.failures >= SUSPECT_AFTER:
                cell.state = ReplicaState.SUSPECT
            transition = (previous, cell.state)
        if transition[0] is not ReplicaState.DOWN and transition[1] is ReplicaState.DOWN:
            registry.counter("repro.replica.marked_down").inc()
        elif transition[0] is ReplicaState.UP and transition[1] is ReplicaState.SUSPECT:
            registry.counter("repro.replica.marked_suspect").inc()

    def should_probe(self, shard: int, replica: int) -> bool:
        """Whether the failover walk may try this replica this selection.

        Up/suspect replicas always may.  A down replica sits out
        ``PROBE_AFTER - 1`` selections and then gets one half-open probe;
        the probe's outcome (success → up, failure → down again) decides
        what happens next — all counted in attempts, never in seconds.
        Only a down cell's skip count moves, so any other existing cell
        answers from an unlocked read.
        """
        cell = self._cells.get((shard, replica))
        if cell is not None and cell.state is not ReplicaState.DOWN:
            return True
        with self._lock:
            cell = self._cell(shard, replica)
            if cell.state is not ReplicaState.DOWN:
                return True
            cell.skips += 1
            if cell.skips >= PROBE_AFTER:
                cell.skips = 0
                return True
            return False

    def snapshot(self) -> dict[int, list[str]]:
        """Replica states per shard (for the CLI shard table)."""
        with self._lock:
            grouped: dict[int, list[tuple[int, str]]] = {}
            for (shard, replica), cell in self._cells.items():
                grouped.setdefault(shard, []).append((replica, cell.state.value))
        return {
            shard: [state for _, state in sorted(pairs)]
            for shard, pairs in sorted(grouped.items())
        }
