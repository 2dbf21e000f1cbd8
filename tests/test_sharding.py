"""Tests for the sharded index: planner, scatter-gather store, engine."""

from __future__ import annotations

import pytest

from repro.api import open_engine, open_pipeline, open_service
from repro.config import EngineConfig, ReproConfig, RetrievalConfig, ShardingConfig
from repro.corpus.builder import CorpusBundle
from repro.documents import Document
from repro.embeddings import HashingEmbedding
from repro.engine import QueryEngine
from repro.errors import ConfigurationError, VectorStoreError
from repro.index import (
    clear_index_cache,
    composite_digest,
    get_or_build_index,
    plan_shards,
)
from repro.observability import MetricsRegistry, use_registry
from repro.vectorstore import (
    ShardedVectorStore,
    VectorStore,
    shard_for_document,
    shard_for_source,
)


def _cfg(num_shards, *, embedding="petsc-embed-large", cache_dir=None):
    return ReproConfig(
        iterations_per_token=0,
        retrieval=RetrievalConfig(embedding_model=embedding),
        sharding=ShardingConfig(num_shards=num_shards),
        engine=EngineConfig(index_cache_dir=cache_dir),
    )


class CountingStore:
    """A replica that reports each score probe."""

    def __init__(self, inner, on_probe):
        self.inner = inner
        self.on_probe = on_probe

    def scores(self, qvec):
        self.on_probe()
        return self.inner.scores(qvec)


class TestPlanner:
    def test_partition_is_complete_and_disjoint(self, bundle):
        plan = plan_shards(bundle, _cfg(4))
        assert plan.num_shards == 4
        total = sum(len(s.bundle.documents) for s in plan.shards)
        assert total == len(bundle.documents)
        all_ids = [d.doc_id for s in plan.shards for d in s.bundle.documents]
        assert len(all_ids) == len(set(all_ids))
        pages = sum(len(s.bundle.manual_page_names) for s in plan.shards)
        assert pages == len(bundle.manual_page_names)

    def test_plan_is_deterministic(self, bundle):
        a = plan_shards(bundle, _cfg(4))
        b = plan_shards(bundle, _cfg(4))
        assert [s.digest for s in a.shards] == [s.digest for s in b.shards]
        assert a.composite == b.composite

    def test_routing_is_stable_by_source(self):
        doc = Document(text="x", metadata={"source": "docs/ksp.md"})
        assert shard_for_document(doc, 8) == shard_for_source("docs/ksp.md", 8)
        # Content edits never move a document to another shard.
        edited = Document(text="y", metadata={"source": "docs/ksp.md"})
        assert shard_for_document(edited, 8) == shard_for_document(doc, 8)

    def test_composite_digest_is_order_independent(self):
        assert composite_digest(["b", "a"]) == composite_digest(["a", "b"])
        assert composite_digest(["a"]) != composite_digest(["a", "b"])

    def test_corpus_free_scope_isolates_shards(self, bundle):
        plan = plan_shards(bundle, _cfg(4, embedding="petsc-embed-small"))
        assert plan.embedding_scope == "corpus-free"
        # Corpus-fitted models fold the global corpus digest into every
        # shard fingerprint instead (any edit dirties all shards).
        fitted = plan_shards(bundle, _cfg(4))
        assert fitted.embedding_scope != "corpus-free"

    def test_zero_shards_rejected(self):
        # One shard is the smallest index there is; the error names the
        # config section so a bad file is easy to fix.
        with pytest.raises(ConfigurationError, match=r"sharding\.num_shards"):
            ReproConfig.from_dict({"sharding": {"num_shards": 0}})


class TestShardedStore:
    def _docs(self, n=12):
        return [
            Document(text=f"krylov method number {i} gmres", metadata={"source": f"d{i}"})
            for i in range(n)
        ]

    def _sharded(self, docs, num_shards=3):
        emb = HashingEmbedding(dim=32)
        buckets = [[] for _ in range(num_shards)]
        for d in docs:
            buckets[shard_for_document(d, num_shards)].append(d)
        shards = [VectorStore.from_documents(b, emb) for b in buckets]
        return ShardedVectorStore(shards, emb)

    def test_merge_is_partition_invariant(self):
        # Identical results for every shard count, and the monolithic
        # store's too: a bare store and the composite make the same
        # ``(-score, doc_id)`` selection.
        docs = self._docs()
        emb = HashingEmbedding(dim=32)
        mono = VectorStore.from_documents(docs, emb)
        for k in (1, 3, 5, len(docs)):
            m = mono.similarity_search_with_score("krylov gmres", k=k)
            results = [
                self._sharded(docs, num_shards=n).similarity_search_with_score(
                    "krylov gmres", k=k
                )
                for n in (1, 2, 3, 6)
            ]
            first = [(d.doc_id, round(sc, 9)) for d, sc in results[0]]
            for other in results[1:]:
                assert [(d.doc_id, round(sc, 9)) for d, sc in other] == first
            assert [(d.doc_id, round(sc, 9)) for d, sc in m] == first

    def test_merge_tie_break_is_doc_id(self):
        # Two identical texts in different shards: equal scores, so the
        # merged order must come from the doc-id tie-break, not shard
        # order or insertion order.
        emb = HashingEmbedding(dim=32)
        a = Document(text="gmres restart", metadata={"source": "aaa"})
        b = Document(text="gmres restart", metadata={"source": "zzz"})
        store = ShardedVectorStore(
            [VectorStore.from_documents([b], emb), VectorStore.from_documents([a], emb)],
            emb,
        )
        hits = store.similarity_search_with_score("gmres restart", k=2)
        assert [d.doc_id for d, _ in hits] == sorted(d.doc_id for d in (a, b))

    def test_get_works_cross_shard(self):
        docs = self._docs(9)
        sharded = self._sharded(docs, num_shards=3)
        assert len(sharded) == len(docs)
        # get() finds documents regardless of which shard holds them.
        for doc in docs:
            assert sharded.get(doc.doc_id).doc_id == doc.doc_id
        with pytest.raises(VectorStoreError):
            sharded.get("no-such-id")

    def test_get_and_len_read_the_served_views_documents(self, bundle):
        # The replicated view an engine serves from shares the artifact
        # store's documents: ``len`` is their count, ``get`` one lookup,
        # and an unknown id is a typed error, not a KeyError.
        from repro.config import ReplicationConfig

        cfg = ReproConfig(
            iterations_per_token=0,
            retrieval=RetrievalConfig(embedding_model="petsc-embed-large"),
            sharding=ShardingConfig(num_shards=4),
            replication=ReplicationConfig(replicas=2),
        )
        engine = open_engine(cfg, bundle=bundle)
        view = engine.pipeline("rag").retriever.store
        assert [len(copies) for copies in view.copies] == [2] * 4
        assert view._by_id is engine.artifact.store._by_id
        assert len(view) == len(engine.artifact.chunks)
        for chunk in engine.artifact.chunks[:: 17]:
            assert view.get(chunk.doc_id) is engine.artifact.store.get(chunk.doc_id)
        with pytest.raises(VectorStoreError, match="unknown document id"):
            view.get("no-such-id")

    def test_whole_shard_tie_is_cut_by_doc_id(self):
        # Every document in the shard scores identically, so the k-th
        # score is every row's: the selection sorts them all and the
        # winners are the lowest doc ids, not the lowest rows.
        emb = HashingEmbedding(dim=32)
        docs = [
            Document(text="identical text", metadata={"source": f"tie{i}"})
            for i in range(5)
        ]
        store = ShardedVectorStore([VectorStore.from_documents(docs, emb)], emb)
        hits = store.similarity_search_with_score("identical text", k=2)
        assert len({s for _, s in hits}) == 1
        assert [d.doc_id for d, _ in hits] == sorted(d.doc_id for d in docs)[:2]

    def test_one_store_search_per_shard_per_cold_ask(self, bundle):
        # 4 shards x 2 replicas over the 37 Krylov questions, each asked
        # once: a healthy probe is one score call on one replica.
        from repro.config import ReplicationConfig
        from repro.evaluation import krylov_benchmark

        searched: list[tuple[int, int]] = []

        cfg = _cfg(4)
        rep = ReplicationConfig(replicas=2)
        view = get_or_build_index(bundle, cfg).store.serving_view(
            rep,
            store_wrapper=lambda store, shard, replica: CountingStore(
                store, lambda: searched.append((shard, replica))
            ),
        )
        questions = [q.text for q in krylov_benchmark()]
        for question in questions:
            hits = view.similarity_search_with_score(question, k=cfg.retrieval.first_pass_k)
            assert len(hits) == cfg.retrieval.first_pass_k
        assert len(questions) == 37
        assert len(searched) == 4 * 37
        assert {replica for _, replica in searched} == {0}

    def test_save_load_unsupported(self):
        # Sharded stores persist per shard through the index disk cache.
        sharded = self._sharded(self._docs(3))
        assert not hasattr(sharded, "save")
        assert not hasattr(ShardedVectorStore, "load")


class TestShardedBuild:
    def test_build_produces_composite_artifact(self, bundle):
        art = get_or_build_index(bundle, _cfg(4))
        assert art.num_shards == 4
        assert all(s.num_shards == 0 for s in art.shards)
        assert art.digest == composite_digest([s.digest for s in art.shards])
        assert len(art.chunks) == sum(len(s.chunks) for s in art.shards)
        rows = art.shard_summaries()
        assert [r["shard"] for r in rows] == [0, 1, 2, 3]
        assert all(r["vectors"] == r["chunks"] for r in rows)

    def test_get_or_build_hits_composite_cache(self, bundle):
        cfg = _cfg(2)
        a = get_or_build_index(bundle, cfg)
        b = get_or_build_index(bundle, cfg)
        assert b is a

    def test_one_document_edit_rebuilds_one_shard(self, bundle, tmp_path):
        cfg = _cfg(4, embedding="petsc-embed-small", cache_dir=str(tmp_path))
        with use_registry(MetricsRegistry()):
            get_or_build_index(bundle, cfg)
        docs = list(bundle.documents)
        docs[0] = Document(
            text=docs[0].text + "\nedited", metadata=dict(docs[0].metadata)
        )
        edited = CorpusBundle(
            registry=bundle.registry,
            documents=docs,
            manual_page_names=dict(bundle.manual_page_names),
        )
        clear_index_cache()
        reg = MetricsRegistry()
        with use_registry(reg):
            get_or_build_index(edited, cfg)
        assert reg.counter("repro.shard.builds").value == 1
        assert reg.counter("repro.shard.disk_hits").value == 3


class TestShardedEngine:
    def test_open_engine_picks_sharded(self, bundle):
        # One engine class at every shard count; one shard by default.
        engine = open_engine(_cfg(2), bundle=bundle)
        assert type(engine) is QueryEngine
        assert engine.num_shards == 2
        default = open_engine(ReproConfig(iterations_per_token=0), bundle=bundle)
        assert type(default) is QueryEngine
        assert default.num_shards == 1

    def test_answers_match_across_shard_counts(self, bundle):
        q = "How do I change the GMRES restart length?"
        answers = {
            n: open_service(_cfg(n), bundle=bundle).answer(q).answer
            for n in (1, 2, 4)
        }
        assert len(set(answers.values())) == 1

    def test_default_and_four_shards_agree_on_answers_and_spans(self, bundle):
        from repro.evaluation import krylov_benchmark

        questions = [q.text for q in krylov_benchmark()]
        default = open_service(
            ReproConfig(iterations_per_token=0), bundle=bundle
        ).answer_many(questions, seed=7)
        four = open_service(_cfg(4), bundle=bundle).answer_many(questions, seed=7)
        assert default.answered_count == len(questions) == 37
        assert four.answers_digest() == default.answers_digest()
        assert four.span_digest() == default.span_digest()

    def test_scatter_span_appears_in_trace(self, bundle):
        result = open_service(_cfg(2), bundle=bundle).answer("What is the default KSP type?")
        assert result.trace is not None
        assert "scatter" in result.trace.span_counts()

    def test_bare_pipeline_traces_and_counts_the_scatter_like_a_served_one(self, bundle):
        # A bare pipeline hands its own context down the same way the
        # service does: the scatter is a child of ``vector`` on its
        # trace and ``repro.shard.*`` counts on the registry it reports to.
        reg = MetricsRegistry()
        with use_registry(reg):
            result = open_pipeline(_cfg(2), bundle=bundle).answer(
                "What is the default KSP type?"
            )
        (vector,) = result.trace.find("vector")
        assert [child.name for child in vector.children] == ["scatter"]
        assert reg.counter("repro.shard.queries").value == 1
        assert reg.counter("repro.shard.probes").value == 2

    def test_shard_summary(self, bundle):
        engine = open_engine(_cfg(2), bundle=bundle)
        summary = engine.shard_summary()
        assert summary["num_shards"] == 2
        assert len(summary["shards"]) == 2
        assert summary["composite_digest"] == engine.artifact.digest

    def test_sharded_engine_rejects_monolithic_artifact(self, bundle):
        # A bare shard has no scatter store; the engine serves only the
        # composite the resolver returns.
        shard = get_or_build_index(bundle, _cfg(2)).shards[0]
        with pytest.raises(ConfigurationError):
            QueryEngine(shard, _cfg(2))

    def test_from_corpus_requires_shards(self, bundle):
        with pytest.raises(ConfigurationError):
            open_engine(_cfg(0), bundle=bundle)


class TestShardingConfig:
    def test_validate_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            ShardingConfig(num_shards=-1).validate()
        with pytest.raises(ConfigurationError):
            ShardingConfig(build_workers=0).validate()
        with pytest.raises(ConfigurationError):
            ShardingConfig(num_shards=0).validate()
        ShardingConfig(num_shards=1).validate()
