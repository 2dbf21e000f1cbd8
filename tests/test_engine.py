"""The engine layer: shared caches, batched serving, digest stability."""

from __future__ import annotations

import json

import pytest

from repro.config import EngineConfig, ReproConfig
from repro.engine import LRUCache, QueryEngine
from repro.errors import ConfigurationError
from repro.index import clear_index_cache, get_or_build_index
from repro.observability import MetricsRegistry, use_registry
from repro.service import ReproService

QUESTIONS = [
    "What does KSPSolve do?",
    "How do I set the KSP tolerance?",
    "What is DMDA?",
    "What does KSPSolve do?",  # duplicate, exercises batch dedupe
    "How do I monitor the residual?",
    "What is the default KSP type?",
]


@pytest.fixture(scope="module")
def artifact(bundle, fast_config):
    return get_or_build_index(bundle, fast_config)


def fresh_service(artifact, fast_config, **kwargs):
    return ReproService(QueryEngine(artifact, fast_config, **kwargs))


class TestLRUCache:
    def test_eviction_is_lru(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.touch("a")  # b is now least recent
        c.put("c", 3)
        assert "a" in c and "c" in c and "b" not in c

    def test_capacity_zero_disables(self):
        c = LRUCache(0)
        c.put("a", 1)
        assert len(c) == 0
        assert c.peek("a") is None

    def test_peek_does_not_reorder(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.peek("a")  # must NOT refresh "a"
        c.put("c", 3)
        assert "a" not in c

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_keep_where_carries_survivors_in_recency_order(self):
        source = LRUCache(4)
        for key in "abcd":
            source.put(key, key.upper())
        source.touch("a")  # recency, oldest first: b c d a
        kept = source.keep_where(lambda key, _value: key != "c")
        assert [k for k, _v in kept.items()] == ["b", "d", "a"]
        assert kept.capacity == source.capacity
        assert [k for k, _v in source.items()] == ["b", "c", "d", "a"]  # untouched
        assert kept.peek("d") == "D"
        # Refilled to capacity, the next put evicts the victim the
        # source's next put evicts.
        kept.put("c", "C")
        kept.put("e", "E")
        source.put("e", "E")
        assert "b" not in kept and "b" not in source


class TestSequentialAnswer:
    def test_answer_matches_pipeline_answer(self, artifact, fast_config):
        engine = QueryEngine(artifact, fast_config, registry=MetricsRegistry())
        direct = engine.pipeline("rag+rerank").answer(QUESTIONS[0])
        # Only the service commits: a direct call publishes nothing.
        assert engine.cache_sizes() == {"answer": 0, "retrieval": 0, "embedding": 0}
        via_service = fresh_service(
            artifact, fast_config, registry=MetricsRegistry()
        ).answer(QUESTIONS[0])
        assert via_service.answer == direct.answer
        assert via_service.mode == direct.mode

    def test_answer_cache_hit_skips_llm_span(self, artifact, fast_config):
        reg = MetricsRegistry()
        service = fresh_service(artifact, fast_config, registry=reg)
        first = service.answer(QUESTIONS[0])
        second = service.answer(QUESTIONS[0])
        assert second.answer == first.answer
        assert first.trace.find("llm"), "miss must run the llm stage"
        assert second.trace.find("llm") == [], "hit must not re-run the llm"
        assert any(e.name == "cache:answer-hit" for e in second.trace.root.events)
        assert reg.counter("repro.engine.answer_cache.hits").value == 1
        assert reg.counter("repro.engine.answer_cache.misses").value == 1

    def test_modes_are_cached_separately(self, artifact, fast_config):
        reg = MetricsRegistry()
        service = fresh_service(artifact, fast_config, registry=reg)
        service.answer(QUESTIONS[0], mode="rag")
        service.answer(QUESTIONS[0], mode="rag+rerank")
        assert reg.counter("repro.engine.answer_cache.hits").value == 0

    def test_retrieval_cache_warms_across_requests(self, artifact, fast_config):
        reg = MetricsRegistry()
        cfg = ReproConfig(
            iterations_per_token=0, engine=EngineConfig(answer_cache_size=0)
        )
        service = fresh_service(artifact, cfg, registry=reg)
        service.answer(QUESTIONS[0])
        service.answer(QUESTIONS[0])  # answer cache off → pipeline reruns
        assert reg.counter("repro.engine.retrieval_cache.hits").value >= 1

    def test_embedding_cache_warms_when_retrieval_cache_off(self, artifact):
        # The retrieval cache sits in front of the vector store, so
        # embed_query only re-runs — and can only hit its cache — when
        # retrieval itself recomputes.
        reg = MetricsRegistry()
        cfg = ReproConfig(
            iterations_per_token=0,
            engine=EngineConfig(answer_cache_size=0, retrieval_cache_size=0),
        )
        service = fresh_service(artifact, cfg, registry=reg)
        service.answer(QUESTIONS[0])
        service.answer(QUESTIONS[0])
        assert reg.counter("repro.engine.embedding_cache.hits").value >= 1

    def test_invalidate_query_caches(self, artifact, fast_config):
        service = fresh_service(artifact, fast_config, registry=MetricsRegistry())
        service.answer(QUESTIONS[0])
        assert any(service.engine.cache_sizes().values())
        service.invalidate_query_caches()
        assert not any(service.engine.cache_sizes().values())

    def test_a_lone_surrogate_is_its_own_answer_cache_key(self, artifact, fast_config):
        # Hashed with errors="replace", both questions read "...?" and the
        # second was served the first one's cached answer.
        service = fresh_service(artifact, fast_config, registry=MetricsRegistry())
        service.answer(QUESTIONS[0] + "\ud800")
        service.answer(QUESTIONS[0] + "\udc00")
        assert service.engine.cache_sizes()["answer"] == 2


class TestBatchDeterminism:
    def run_batch(self, artifact, fast_config, *, workers, seed=7):
        reg = MetricsRegistry()
        service = fresh_service(artifact, fast_config, registry=reg)
        batch = service.answer_many(QUESTIONS, workers=workers, seed=seed)
        view = json.dumps(reg.deterministic_view(), sort_keys=True)
        return batch, view

    def test_worker_count_invariance(self, artifact, fast_config):
        batches = {
            w: self.run_batch(artifact, fast_config, workers=w) for w in (1, 2, 4)
        }
        answers = {b.answers_digest() for b, _ in batches.values()}
        spans = {b.span_digest() for b, _ in batches.values()}
        metrics = {view for _, view in batches.values()}
        assert len(answers) == 1, "answers must not depend on worker count"
        assert len(spans) == 1, "span structure must not depend on worker count"
        assert len(metrics) == 1, "metric digests must not depend on worker count"

    def test_same_seed_same_digests(self, artifact, fast_config):
        a, va = self.run_batch(artifact, fast_config, workers=4, seed=3)
        b, vb = self.run_batch(artifact, fast_config, workers=4, seed=3)
        assert a.answers_digest() == b.answers_digest()
        assert a.span_digest() == b.span_digest()
        assert va == vb

    def test_batch_dedupes_repeats(self, artifact, fast_config):
        reg = MetricsRegistry()
        service = fresh_service(artifact, fast_config, registry=reg)
        batch = service.answer_many(QUESTIONS, workers=2)
        assert reg.counter("repro.engine.batch_deduped").value == 1
        dup = batch.items[3]
        assert dup.cached and dup.result.answer == batch.items[0].result.answer

    def test_batch_commits_answer_cache(self, artifact, fast_config):
        reg = MetricsRegistry()
        service = fresh_service(artifact, fast_config, registry=reg)
        first = service.answer_many(QUESTIONS, workers=2)
        unique = len(set(QUESTIONS))
        assert first.cache_sizes == service.engine.cache_sizes() == dict.fromkeys(
            ("answer", "retrieval", "embedding"), unique
        )
        rerun = service.answer_many(QUESTIONS, workers=2)
        assert rerun.cached_count == len(QUESTIONS)
        assert all(it.result.trace.find("llm") == [] for it in rerun.items)

    def test_retrieval_cache_holds_only_vector_entries(self, artifact, fast_config):
        # What the scoped carry-forward (ingest/invalidation.py) takes as given:
        # the keyword lookup runs beside the retrieval cache, never through it.
        from repro.retrieval import RetrievedDocument

        assert fast_config.retrieval.use_keyword_search is True
        service = fresh_service(artifact, fast_config, registry=MetricsRegistry())
        for mode in ("rag", "rag+rerank"):
            service.answer_many(QUESTIONS, workers=2, mode=mode)
            service.answer_many(QUESTIONS, workers=2, mode=mode)  # warm
        entries = service.engine.generation.retrieval.items()
        assert entries
        for key, hits in entries:
            name, query, k = key
            assert name == "vector" and type(query) is str and type(k) is int
            assert type(hits) is tuple
            assert hits and all(type(hit) is RetrievedDocument for hit in hits)

    def test_results_keep_input_order(self, artifact, fast_config):
        service = fresh_service(artifact, fast_config, registry=MetricsRegistry())
        batch = service.answer_many(QUESTIONS, workers=4)
        assert [it.question for it in batch.items] == QUESTIONS
        assert [it.index for it in batch.items] == list(range(len(QUESTIONS)))

    def test_invalid_worker_count(self, artifact, fast_config):
        service = fresh_service(artifact, fast_config, registry=MetricsRegistry())
        with pytest.raises(ConfigurationError):
            service.answer_many(QUESTIONS, workers=0)

    def test_batch_defers_token_burn(self, artifact, bundle):
        cfg = ReproConfig()  # latency simulation ON
        service = fresh_service(get_or_build_index(bundle, cfg), cfg, registry=MetricsRegistry())
        batch = service.answer_many(QUESTIONS[:2], workers=2)
        assert batch.deferred_tokens > 0
        assert batch.burn_seconds > 0


class TestSharedArtifact:
    def test_every_entry_point_shares_one_build(self, bundle, fast_config, grader):
        """The acceptance check: workflow, chatbot, evaluation, and the
        engine (the CLI ``ask`` path) all answer through one cached
        artifact — ``repro.index.builds`` stays at 1."""
        from repro.api import open_service, open_support_system
        from repro.discordsim.models import User
        from repro.evaluation import run_experiment
        from repro.evaluation.benchmark import krylov_benchmark
        from repro.api import open_workflow

        clear_index_cache()
        reg = MetricsRegistry()
        try:
            with use_registry(reg):
                # CLI `ask` path.
                service = open_service(fast_config, bundle=bundle)
                service.answer(QUESTIONS[0])
                # Augmented workflow.
                workflow = open_workflow(fast_config, bundle=bundle)
                workflow.ask(QUESTIONS[1])
                # Support system / chatbot.
                system = open_support_system(fast_config, bundle=bundle)
                system.chatbot.direct_message(User(name="visitor"), QUESTIONS[2])
                # Evaluation.
                run_experiment(service, grader, mode="rag", questions=krylov_benchmark()[:3])
        finally:
            clear_index_cache()
        assert reg.counter("repro.index.builds").value == 1
        assert reg.counter("repro.index.memory_hits").value >= 2

    def test_workflow_feed_history_invalidates_caches(self, bundle):
        from repro.api import open_workflow
        from repro.config import RetrievalConfig
        from repro.history.records import ScoreRecord

        # The hashing model: a fed document moves no other vector.
        config = ReproConfig(
            iterations_per_token=0,
            retrieval=RetrievalConfig(embedding_model="petsc-embed-small"),
        )
        workflow = open_workflow(config, bundle=bundle)
        engine = workflow.service.engine
        fed, unrelated = "What is the default KSP type?", "What is DMDA?"
        answer = workflow.ask(fed)
        workflow.ask(unrelated)
        workflow.store.add_score(
            answer.interaction_id, ScoreRecord(scorer="dev", score=4)
        )
        old_digest = engine.artifact.digest
        assert engine.cache_sizes() == {"answer": 2, "retrieval": 2, "embedding": 2}
        assert workflow.feed_history_into_rag(min_mean_score=3.0) == 1
        # A feed is an ingest (DESIGN.md §14.3): answers keyed to the old
        # digest are gone, the retrieval the fed Q/A can enter is evicted
        # and the other kept, and no query embedding moved.
        assert engine.artifact.digest != old_digest and engine.epoch == 1
        assert engine.cache_sizes() == {"answer": 0, "retrieval": 1, "embedding": 2}
        ((kept, _hits),) = engine.generation.retrieval.items()
        assert kept[1] == unrelated
