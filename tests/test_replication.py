"""Tests for replicated shard serving: health tracking, deterministic
failover, hedged probes, and partial-result degradation.

The load-bearing guarantee under test: with ``replicas >= 2``, any
fault schedule that kills at most one replica per shard leaves answers,
metrics-relevant results, and span digests byte-identical to the
healthy single-copy baseline — failover changes *which copy* answered,
never *what* was answered.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.api import open_engine
from repro.config import (
    ReplicationConfig,
    ReproConfig,
    ShardingConfig,
)
from repro.documents import Document
from repro.embeddings import HashingEmbedding
from repro.errors import ConfigurationError, PartialResultError, VectorStoreError
from repro.evaluation.benchmark import krylov_benchmark
from repro.observability import MetricsRegistry, use_registry
from repro.replication import HealthTracker, ReplicaSet, ReplicaState
from repro.replication.health import DOWN_AFTER, PROBE_AFTER, SUSPECT_AFTER
from repro.resilience import FaultConfig, FaultInjector
from repro.vectorstore import ShardedVectorStore, VectorStore, shard_for_document


def _docs(n=12):
    return [
        Document(text=f"krylov method number {i} gmres", metadata={"source": f"d{i}"})
        for i in range(n)
    ]


def _sharded(docs, num_shards=3):
    emb = HashingEmbedding(dim=32)
    buckets = [[] for _ in range(num_shards)]
    for d in docs:
        buckets[shard_for_document(d, num_shards)].append(d)
    shards = [VectorStore.from_documents(b, emb) for b in buckets]
    return ShardedVectorStore(shards, emb)


class DeadStore:
    """A replica whose score transport never answers."""

    def __init__(self, inner):
        self.inner = inner

    def scores(self, qvec):
        raise VectorStoreError("replica dead")


def _kill_primary(store, shard_index, replica_index):
    return DeadStore(store) if replica_index == 0 else store


class TestReplicationConfig:
    def test_defaults_validate(self):
        ReplicationConfig().validate()
        ReplicationConfig(replicas=3, hedging=True).validate()

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig(replicas=0).validate()

    def test_round_trips_through_repro_config(self):
        cfg = ReproConfig(
            replication=ReplicationConfig(replicas=3, hedging=True)
        )
        clone = ReproConfig.from_dict(cfg.to_dict())
        assert clone.replication == cfg.replication


class TestHealthTracker:
    def _tracker(self):
        return HealthTracker(), MetricsRegistry()

    @staticmethod
    def _mark_down(tracker, reg, shard, replica):
        for _ in range(DOWN_AFTER):
            tracker.record_failure(shard, replica, reg)

    def test_initial_state_is_up(self):
        tracker, _ = self._tracker()
        assert tracker.state(0, 0) is ReplicaState.UP
        assert tracker.should_probe(0, 0)

    def test_failures_walk_up_suspect_down(self):
        assert (SUSPECT_AFTER, DOWN_AFTER) == (1, 3)
        tracker, reg = self._tracker()
        tracker.record_failure(0, 0, reg)
        assert tracker.state(0, 0) is ReplicaState.SUSPECT
        tracker.record_failure(0, 0, reg)
        assert tracker.state(0, 0) is ReplicaState.SUSPECT
        tracker.record_failure(0, 0, reg)
        assert tracker.state(0, 0) is ReplicaState.DOWN
        assert reg.counter("repro.replica.marked_suspect").value == 1
        assert reg.counter("repro.replica.marked_down").value == 1

    def test_down_replica_sits_out_then_half_open_probes(self):
        assert PROBE_AFTER == 4
        tracker, reg = self._tracker()
        self._mark_down(tracker, reg, 2, 1)
        assert tracker.state(2, 1) is ReplicaState.DOWN
        # PROBE_AFTER - 1 selections skipped, then one half-open probe.
        assert [tracker.should_probe(2, 1) for _ in range(4)] == [False, False, False, True]
        # The cycle repeats until an outcome is recorded.
        assert not tracker.should_probe(2, 1)

    def test_success_fully_recovers(self):
        tracker, reg = self._tracker()
        self._mark_down(tracker, reg, 0, 0)
        assert tracker.state(0, 0) is ReplicaState.DOWN
        tracker.record_success(0, 0, reg)
        assert tracker.state(0, 0) is ReplicaState.UP
        assert tracker.should_probe(0, 0)
        assert reg.counter("repro.replica.recovered").value == 1
        # Recovery resets the failure fold: one new failure is suspect,
        # not down-continued.
        tracker.record_failure(0, 0, reg)
        assert tracker.state(0, 0) is ReplicaState.SUSPECT

    def test_concurrent_walks_keep_the_fold_exact(self):
        # Selections of a down replica (locked: its skip count moves)
        # race unlocked no-op reads of a clean one.  A skip lost to the
        # race, or a no-op that was not one, breaks the exact counts.
        tracker, reg = self._tracker()
        self._mark_down(tracker, reg, 0, 0)
        tracker.record_success(0, 1, reg)
        granted, refused = [], []

        def walk():
            mine = 0
            for _ in range(300):
                mine += tracker.should_probe(0, 0)
                if not tracker.should_probe(0, 1):
                    refused.append(1)
                tracker.record_success(0, 1, reg)
            granted.append(mine)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=walk) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sum(granted) == 4 * 300 // 4 and not refused
        assert tracker.snapshot() == {0: ["down", "up"]}
        assert reg.counter("repro.replica.recovered").value == 0

    def test_snapshot_groups_by_shard(self):
        tracker, reg = self._tracker()
        tracker.record_failure(1, 0, reg)
        self._mark_down(tracker, reg, 0, 1)
        tracker.record_success(0, 0, reg)
        assert tracker.snapshot() == {0: ["up", "down"], 1: ["suspect"]}


class TestReplicaSet:
    def _set(self, *, hedging=False, dead_primary=True):
        emb = HashingEmbedding(dim=32)
        store = VectorStore.from_documents(_docs(6), emb)
        reg = MetricsRegistry()
        health = HealthTracker()
        primary = DeadStore(store) if dead_primary else store
        rs = ReplicaSet(0, [primary, store], health, hedging=hedging)
        qvec = emb.embed_query("krylov gmres")
        return rs, health, reg, qvec, store

    @staticmethod
    def _search(store, qvec, reg, rs=None):
        """The composite's top-3 over ``store``, served by ``rs`` when given."""
        view = ShardedVectorStore(
            [store], store.embedding, replica_sets=None if rs is None else [rs]
        )
        with use_registry(reg):
            hits = view.similarity_search_by_vector_with_score(qvec, k=3)
        return [(d.doc_id, s) for d, s in hits]

    def test_failover_returns_backup_answer(self):
        rs, health, reg, qvec, store = self._set()
        hits = self._search(store, qvec, reg, rs)
        assert hits == self._search(store, qvec, MetricsRegistry())
        assert len(hits) == 3
        assert reg.counter("repro.replica.failovers").value == 1
        assert reg.counter("repro.replica.probe_failures").value == 1
        assert health.state(0, 0) is ReplicaState.SUSPECT
        assert health.state(0, 1) is ReplicaState.UP

    def test_down_primary_is_skipped_not_probed(self):
        rs, health, reg, qvec, _ = self._set()
        for _ in range(DOWN_AFTER):  # each walk fails the primary once
            rs.scores(qvec, reg)
        assert health.state(0, 0) is ReplicaState.DOWN
        probes_before = reg.counter("repro.replica.probes").value
        rs.scores(qvec, reg)
        # Only the backup was probed; no failover counted for a walk
        # that never included the down primary.
        assert reg.counter("repro.replica.probes").value == probes_before + 1
        assert reg.counter("repro.replica.failovers").value == DOWN_AFTER

    def test_every_replica_down_returns_none(self):
        rs, _, reg, qvec, _ = self._set()
        rs.replicas[1] = DeadStore(rs.replicas[1])
        assert rs.scores(qvec, reg) is None
        assert reg.counter("repro.replica.probe_failures").value == 2

    def test_suspect_primary_triggers_hedge_and_win(self):
        rs, health, reg, qvec, store = self._set(hedging=True)
        rs.scores(qvec, reg)  # first walk: plain failover, marks suspect
        assert reg.counter("repro.replica.hedges").value == 0
        hits = self._search(store, qvec, reg, rs)  # suspect primary -> hedged probe
        assert reg.counter("repro.replica.hedges").value == 1
        assert reg.counter("repro.replica.hedge_wins").value == 1
        assert hits == self._search(store, qvec, MetricsRegistry())

    def test_healthy_primary_never_hedges(self):
        rs, _, reg, qvec, _ = self._set(hedging=True, dead_primary=False)
        rs.scores(qvec, reg)
        rs.scores(qvec, reg)
        assert reg.counter("repro.replica.hedges").value == 0
        assert reg.counter("repro.replica.failovers").value == 0

    def test_a_probe_draws_one_schedule_step_even_at_a_boundary_tie(self):
        # Planted scores: six rows tie at the k = 2 boundary.  The probe
        # scores the whole shard once, so a wrapped replica draws exactly
        # one ``(seed, site, call_index)`` step per probe — a boundary
        # tie no longer widens a fetch and draws again.
        emb = HashingEmbedding(dim=8)
        docs = [Document(text="planted", metadata={"source": f"s{i}"}) for i in range(8)]
        vectors = np.zeros((8, 8), dtype=np.float32)
        vectors[:, 0] = [0.875, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.125]
        store = VectorStore.from_precomputed(docs, vectors, emb)
        injector = FaultInjector(5, FaultConfig())
        cfg = ReplicationConfig(replicas=2)
        view = ShardedVectorStore([store], emb).with_replication(
            cfg,
            health=HealthTracker(),
            store_wrapper=lambda s, shard, replica: injector.wrap_store(
                s, site=f"shard:{shard}", transient_rate=0.0
            ),
        )
        qvec = np.eye(8, dtype=np.float32)[0]
        reg = MetricsRegistry()
        with use_registry(reg):
            for _ in range(3):
                hits = view.similarity_search_by_vector_with_score(qvec, k=2)
        tied = sorted(d.doc_id for d in docs[1:7])
        assert [(d.doc_id, s) for d, s in hits] == [(docs[0].doc_id, 0.875), (tied[0], 0.5)]
        assert [(e.site, e.call_index) for e in injector.schedule()] == [
            ("shard:0", n) for n in range(3)
        ]
        assert reg.counter("repro.replica.probes").value == 3

    def test_empty_replica_set_rejected(self):
        health = HealthTracker()
        with pytest.raises(VectorStoreError):
            ReplicaSet(0, [], health)


class TestReplicatedStore:
    """with_replication on the composite store: the digest contract."""

    @pytest.fixture()
    def reg(self):
        """The sink of a search made outside any request: the ambient scope."""
        registry = MetricsRegistry()
        with use_registry(registry):
            yield registry

    def _replicated(self, docs, *, replicas=2, wrapper=_kill_primary,
                    num_shards=3, **rep_kwargs):
        cfg = ReplicationConfig(replicas=replicas, **rep_kwargs)
        return _sharded(docs, num_shards).with_replication(
            cfg, health=HealthTracker(), store_wrapper=wrapper
        )

    def test_failover_results_match_healthy_baseline(self, reg):
        docs = _docs()
        healthy = _sharded(docs).similarity_search_with_score("krylov gmres", k=5)
        store = self._replicated(docs)
        rescued = store.similarity_search_with_score("krylov gmres", k=5)
        assert [(d.doc_id, round(s, 9)) for d, s in rescued] == [
            (d.doc_id, round(s, 9)) for d, s in healthy
        ]
        assert reg.counter("repro.replica.failovers").value == 3
        assert reg.counter("repro.shard.partial_queries").value == 0

    def test_fault_injector_wrapped_primaries_match_baseline(self):
        # The same contract through the seeded fault seam at rate 1.0.
        docs = _docs()
        injector = FaultInjector(7, FaultConfig(shard_fault_rate=1.0))

        def wrap(store, shard_index, replica_index):
            if replica_index > 0:
                return store
            return injector.wrap_store(store, site=f"shard:{shard_index}")

        healthy = _sharded(docs).similarity_search_with_score("krylov gmres", k=4)
        store = self._replicated(docs, wrapper=wrap)
        assert [
            (d.doc_id, round(s, 9))
            for d, s in store.similarity_search_with_score("krylov gmres", k=4)
        ] == [(d.doc_id, round(s, 9)) for d, s in healthy]
        sites = {event.site for event in injector.schedule()}
        assert sites and all(site.startswith("shard:") for site in sites)

    def test_single_copy_outage_degrades_to_partial(self, reg):
        docs = _docs()
        dead_shard = shard_for_document(docs[0], 3)

        def wrap(store, shard_index, replica_index):
            return DeadStore(store) if shard_index == dead_shard else store

        store = self._replicated(docs, replicas=1, wrapper=wrap)
        hits = store.similarity_search_with_score("krylov gmres", k=6)
        survivors = [d for d in docs if shard_for_document(d, 3) != dead_shard]
        expected = VectorStore.from_documents(
            survivors, HashingEmbedding(dim=32)
        ).similarity_search_with_score("krylov gmres", k=len(survivors))
        expected.sort(key=lambda pair: (-pair[1], pair[0].doc_id))
        expected = expected[:6]
        assert [(d.doc_id, round(s, 9)) for d, s in hits] == [
            (d.doc_id, round(s, 9)) for d, s in expected
        ]
        assert reg.counter("repro.shard.partial_queries").value == 1
        assert reg.counter("repro.shard.unanswered").value == 1
        # Deterministic across reruns: same merge, same counters delta.
        assert [
            d.doc_id for d, _ in store.similarity_search_with_score("krylov gmres", k=6)
        ] == [d.doc_id for d, _ in hits]

    def test_require_full_coverage_raises_typed_error(self):
        docs = _docs()
        dead_shard = shard_for_document(docs[0], 3)

        def wrap(store, shard_index, replica_index):
            return DeadStore(store) if shard_index == dead_shard else store

        store = self._replicated(
            docs, replicas=1, wrapper=wrap, require_full_coverage=True
        )
        with pytest.raises(PartialResultError) as err:
            store.similarity_search_with_score("krylov gmres", k=4)
        assert err.value.failed_shards == (dead_shard,)
        assert err.value.coverage == pytest.approx(2 / 3)

    def test_replicas_are_references_to_the_one_shard_store(self):
        # Nothing writes to a store, so a replica is the shard object
        # itself; only the fault seam's transport tells copies apart.
        docs = _docs(6)
        store = self._replicated(docs, wrapper=None)
        for shard, replica_set in zip(store.shards, store.replica_sets):
            assert [r is shard for r in replica_set.replicas] == [True, True]
        killed = self._replicated(docs)
        for shard, replica_set in zip(killed.shards, killed.replica_sets):
            primary, backup = replica_set.replicas
            assert isinstance(primary, DeadStore) and primary.inner is shard
            assert backup is shard

    def test_replica_count_mismatch_rejected(self):
        docs = _docs(6)
        store = self._replicated(docs, wrapper=None)
        with pytest.raises(VectorStoreError):
            ShardedVectorStore(
                store.shards[:2], store.embedding, replica_sets=store.replica_sets
            )


class TestEngineFailover:
    """End-to-end: the digest guarantee through the sharded engine."""

    def _cfg(self, **kwargs):
        return ReproConfig(
            iterations_per_token=0,
            sharding=ShardingConfig(num_shards=3),
            **kwargs,
        )

    def _digests(self, bundle, config, injector, registry):
        engine = open_engine(
            config, bundle=bundle, fault_injector=injector, registry=registry
        )
        questions = [q.text for q in krylov_benchmark()[:4]]
        batch = engine.service.answer_many(questions, workers=1)
        return batch.answers_digest(), batch.span_digest(), batch

    def test_failover_is_digest_invisible(self, bundle):
        # Baseline carries a zero-rate injector so the answer cache is
        # disabled in both runs (cache state parity).
        base_reg = MetricsRegistry()
        base = self._digests(
            bundle, self._cfg(), FaultInjector(0, FaultConfig()), base_reg
        )
        fail_reg = MetricsRegistry()
        failover = self._digests(
            bundle,
            self._cfg(replication=ReplicationConfig(replicas=2, hedging=True)),
            FaultInjector(0, FaultConfig(shard_fault_rate=1.0)),
            fail_reg,
        )
        assert failover[0] == base[0]
        assert failover[1] == base[1]
        assert fail_reg.counter("repro.replica.failovers").value > 0
        assert base_reg.counter("repro.replica.failovers").value == 0

    def test_one_probe_draws_one_fault_schedule_step(self, bundle, monkeypatch):
        # DESIGN §13.1: a probe of a wrapped primary is one ``scores``
        # call, so ``shard_fault_rate`` is the chance that *a probe* fails.
        probed: Counter = Counter()
        real_probe = ReplicaSet._probe

        def counting_probe(self, replica, *args):
            probed[(self.shard_index, replica)] += 1
            return real_probe(self, replica, *args)

        monkeypatch.setattr(ReplicaSet, "_probe", counting_probe)
        cfg = ReproConfig(
            iterations_per_token=0,
            sharding=ShardingConfig(num_shards=4),
            replication=ReplicationConfig(replicas=2),
        )
        questions = [q.text for q in krylov_benchmark()]

        def run(fault_config):
            probed.clear()
            injector = FaultInjector(11, fault_config)
            engine = open_engine(
                cfg, bundle=bundle, fault_injector=injector, registry=MetricsRegistry()
            )
            batch = engine.service.answer_many(questions, workers=1)
            draws = Counter(
                event.site
                for event in injector.schedule()
                if event.site.startswith("shard:")
            )
            return batch.answers_digest(), draws, dict(probed)

        healthy_answers, healthy_draws, _ = run(FaultConfig())
        answers, draws, probes = run(FaultConfig(shard_fault_rate=0.5))
        assert not healthy_draws
        assert answers == healthy_answers
        assert draws == {f"shard:{n}": probes[(n, 0)] for n in range(4)}
        # Faults did land, and every one was absorbed by the backup.
        assert 0 < sum(probes[(n, 1)] for n in range(4)) < sum(draws.values())
        assert run(FaultConfig(shard_fault_rate=0.5)) == (answers, draws, probes)

    def test_partial_coverage_marks_degradation_deterministically(self, bundle):
        cfg = self._cfg(replication=ReplicationConfig(replicas=1))
        runs = []
        for _ in range(2):
            reg = MetricsRegistry()
            _, _, batch = self._digests(
                bundle, cfg, FaultInjector(3, FaultConfig(shard_fault_rate=1.0)), reg
            )
            runs.append(batch)
        a, b = runs
        assert a.answers_digest() == b.answers_digest()
        assert a.span_digest() == b.span_digest()
        assert a.partial_count > 0
        assert a.min_coverage < 1.0
        marked = [
            it for it in a.items
            if it.result is not None
            and any(str(e) == "shard:partial" for e in it.result.degraded)
        ]
        assert len(marked) == a.partial_count

    def test_require_full_coverage_fails_requests(self, bundle):
        cfg = self._cfg(
            replication=ReplicationConfig(replicas=1, require_full_coverage=True)
        )
        reg = MetricsRegistry()
        _, _, batch = self._digests(
            bundle, cfg, FaultInjector(3, FaultConfig(shard_fault_rate=1.0)), reg
        )
        failed = [it for it in batch.items if not it.answered]
        assert failed
        assert all("PartialResultError" in it.error for it in failed)

    def test_shard_summary_reports_replica_health(self, bundle):
        cfg = self._cfg(replication=ReplicationConfig(replicas=2))
        engine = open_engine(
            cfg, bundle=bundle,
            fault_injector=FaultInjector(0, FaultConfig(shard_fault_rate=1.0)),
            registry=MetricsRegistry(),
        )
        engine.answer("What is the default KSP type?")
        summary = engine.shard_summary()
        assert summary["replicas"] == 2
        states = {s for row in summary["shards"] for s in row["health"]}
        # Wrapped primaries failed at rate 1.0: at least one is marked.
        assert states & {"suspect", "down"}
        assert all(row["replicas"] == 2 for row in summary["shards"])
