"""Tests for replicated shard serving: the ordered failover walk over
each shard's copies, and partial-result degradation.

The load-bearing guarantee under test: with ``replicas >= 2``, any
fault schedule that kills at most one replica per shard leaves answers,
metrics-relevant results, and span digests byte-identical to the
healthy single-copy baseline — failover changes *which copy* answered,
never *what* was answered.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.api import open_service
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
        ReplicationConfig(replicas=3, require_full_coverage=True).validate()

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig(replicas=0).validate()

    def test_round_trips_through_repro_config(self):
        cfg = ReproConfig(
            replication=ReplicationConfig(replicas=3, require_full_coverage=True)
        )
        clone = ReproConfig.from_dict(cfg.to_dict())
        assert clone.replication == cfg.replication


class TestReplicaSet:
    """One shard's ordered copies: the walk takes the first that answers."""

    def _set(self, *, dead_primary=True):
        emb = HashingEmbedding(dim=32)
        store = VectorStore.from_documents(_docs(6), emb)
        reg = MetricsRegistry()
        view = ShardedVectorStore([store], emb).serving_view(
            ReplicationConfig(replicas=2),
            store_wrapper=_kill_primary if dead_primary else None,
        )
        qvec = emb.embed_query("krylov gmres")
        return view, reg, qvec, store

    @staticmethod
    def _search(view, qvec, reg):
        """The composite's top-3 through ``view``, counted on ``reg``."""
        with use_registry(reg):
            hits = view.similarity_search_by_vector_with_score(qvec, k=3)
        return [(d.doc_id, s) for d, s in hits]

    def test_failover_returns_backup_answer(self):
        view, reg, qvec, store = self._set()
        hits = self._search(view, qvec, reg)
        bare = ShardedVectorStore([store], store.embedding)
        assert hits == self._search(bare, qvec, MetricsRegistry())
        assert len(hits) == 3
        assert reg.counter("repro.replica.failovers").value == 1
        assert reg.counter("repro.replica.probe_failures").value == 1
        assert reg.counter("repro.shard.partial_queries").value == 0

    def test_every_replica_down_returns_none(self):
        view, reg, qvec, _ = self._set()
        view.copies[0] = tuple(DeadStore(copy) for copy in view.copies[0])
        assert view._probe_shard(0, qvec, reg) is None
        assert reg.counter("repro.replica.probe_failures").value == 2
        assert reg.counter("repro.replica.failovers").value == 1

    def test_a_healthy_walk_counts_nothing(self):
        # The success path of every engine, 1x1 included, walks copies:
        # it creates no replica counter, so no metrics digest moves.
        view, reg, qvec, _ = self._set(dead_primary=False)
        self._search(view, qvec, reg)
        self._search(view, qvec, reg)
        counters = reg.snapshot()["counters"]
        assert counters["repro.shard.queries"] == 2
        assert not [name for name in counters if name.startswith("repro.replica.")]

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
        view = ShardedVectorStore([store], emb).serving_view(
            ReplicationConfig(replicas=2),
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
        # Both copies draw at ``shard:0``: three draws are three probes.
        assert [(e.site, e.call_index) for e in injector.schedule()] == [
            ("shard:0", n) for n in range(3)
        ]
        assert reg.counter("repro.replica.failovers").value == 0

    def test_empty_replica_set_rejected(self):
        store = VectorStore.from_documents(_docs(3), HashingEmbedding(dim=32))
        with pytest.raises(ConfigurationError, match="replicas must be >= 1"):
            ShardedVectorStore([store], store.embedding).serving_view(
                ReplicationConfig(replicas=0)
            )


class TestReplicatedStore:
    """The composite store's serving view: the digest contract."""

    @pytest.fixture()
    def reg(self):
        """The sink of a search made outside any request: the ambient scope."""
        registry = MetricsRegistry()
        with use_registry(registry):
            yield registry

    def _replicated(self, docs, *, replicas=2, wrapper=_kill_primary,
                    num_shards=3, **rep_kwargs):
        cfg = ReplicationConfig(replicas=replicas, **rep_kwargs)
        return _sharded(docs, num_shards).serving_view(cfg, store_wrapper=wrapper)

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
        # The view shares its parent's shards and documents, too.
        docs = _docs(6)
        parent = _sharded(docs)
        assert parent.copies == [(shard,) for shard in parent.shards]
        store = parent.serving_view(ReplicationConfig(replicas=2))
        for shard, copies in zip(store.shards, store.copies):
            assert [r is shard for r in copies] == [True, True]
        assert store.shards == parent.shards
        assert store._docs is parent._docs and store._by_id is parent._by_id
        killed = self._replicated(docs)
        for shard, copies in zip(killed.shards, killed.copies):
            primary, backup = copies
            assert isinstance(primary, DeadStore) and primary.inner is shard
            assert backup is shard


class TestEngineFailover:
    """End-to-end: the digest guarantee through the sharded engine."""

    def _cfg(self, **kwargs):
        return ReproConfig(
            iterations_per_token=0,
            sharding=ShardingConfig(num_shards=3),
            **kwargs,
        )

    def _digests(self, bundle, config, injector, registry):
        service = open_service(
            config, bundle=bundle, fault_injector=injector, registry=registry
        )
        questions = [q.text for q in krylov_benchmark()[:4]]
        batch = service.answer_many(questions, workers=1)
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
            self._cfg(replication=ReplicationConfig(replicas=2)),
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
        real_view = ShardedVectorStore.serving_view

        class CountingCopy:
            def __init__(self, inner, shard, replica):
                self.inner, self.key = inner, (shard, replica)

            def scores(self, qvec):
                probed[self.key] += 1
                return self.inner.scores(qvec)

        def counting_view(self, config, *, store_wrapper=None):
            def wrap(store, shard, replica):
                inner = store if store_wrapper is None else store_wrapper(store, shard, replica)
                return CountingCopy(inner, shard, replica)

            return real_view(self, config, store_wrapper=wrap)

        monkeypatch.setattr(ShardedVectorStore, "serving_view", counting_view)
        cfg = ReproConfig(
            iterations_per_token=0,
            sharding=ShardingConfig(num_shards=4),
            replication=ReplicationConfig(replicas=2),
        )
        questions = [q.text for q in krylov_benchmark()]

        def run(fault_config):
            probed.clear()
            injector = FaultInjector(11, fault_config)
            service = open_service(
                cfg, bundle=bundle, fault_injector=injector, registry=MetricsRegistry()
            )
            batch = service.answer_many(questions, workers=1)
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

    def test_shard_summary_reports_replicas(self, bundle):
        cfg = self._cfg(replication=ReplicationConfig(replicas=2))
        reg = MetricsRegistry()
        service = open_service(
            cfg, bundle=bundle,
            fault_injector=FaultInjector(0, FaultConfig(shard_fault_rate=1.0)),
            registry=reg,
        )
        service.answer("What is the default KSP type?")
        summary = service.engine.shard_summary()
        assert summary["replicas"] == 2
        assert [row["shard"] for row in summary["shards"]] == [0, 1, 2]
        # Wrapped primaries failed at rate 1.0: each probe failed over.
        failovers = reg.counter("repro.replica.failovers").value
        assert failovers == reg.counter("repro.replica.probe_failures").value > 0
