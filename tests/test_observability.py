"""Observability layer: span trees, metrics registry, typed pipeline enums.

Covers the determinism contract (structure digests and metric digests
are pure functions of the workload and seed), the degradation-ladder ×
tracing matrix (every rung shows up as a span event), and the enum
round-trips that keep the history JSONL schema unchanged.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ReproConfig
from repro.durability import Journal, reopen_journal, scan_journal
from repro.errors import ConfigurationError, ObservabilityError, TransientError
from repro.history import InteractionStore
from repro.llm.base import ChatMessage, ChatModel, CompletionResult, TokenUsage
from repro.observability import (
    MetricsRegistry,
    Trace,
    Tracer,
    get_registry,
    stage,
    use_registry,
)
from repro.api import open_pipeline, open_service
from repro.pipeline import DegradationEvent, PipelineMode
from repro.pipeline.rag import RAGPipeline
from repro.rerank.base import Reranker
from repro.resilience import FaultConfig, FaultInjector, RetryPolicy
from repro.retrieval import VectorRetriever
from repro.retrieval.base import RetrievedDocument, Retriever


# ---------------------------------------------------------------- test doubles
class TickClock:
    """A deterministic clock: every reading advances by ``step`` seconds."""

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        self._now = start
        self.step = step

    def __call__(self) -> float:
        now = self._now
        self._now += self.step
        return now


class OkModel(ChatModel):
    name = "ok"

    def complete(self, messages: list[ChatMessage], *, ctx=None) -> CompletionResult:
        self._check_messages(messages)
        return CompletionResult(text="the answer", model=self.name, usage=TokenUsage(3, 2))


class FlakyModel(ChatModel):
    name = "flaky"

    def __init__(self, fail_first: int = 0) -> None:
        self.fail_first = fail_first
        self.calls = 0

    def complete(self, messages: list[ChatMessage], *, ctx=None) -> CompletionResult:
        self._check_messages(messages)
        self.calls += 1
        if self.calls <= self.fail_first:
            raise TransientError(f"flaky transport (call {self.calls})")
        return CompletionResult(text="the answer", model=self.name, usage=TokenUsage(3, 2))


class TruncatingModel(ChatModel):
    name = "truncating"

    def complete(self, messages: list[ChatMessage], *, ctx=None) -> CompletionResult:
        self._check_messages(messages)
        return CompletionResult(
            text="cut sh", model=self.name, usage=TokenUsage(3, 1), finish_reason="length"
        )


class FailingRetriever(Retriever):
    name = "failing"

    def retrieve(self, query: str, *, k: int = 8, ctx=None) -> list[RetrievedDocument]:
        raise TransientError("retrieval backend down")


class FailingReranker(Reranker):
    name = "failing"

    def score_pairs(self, query: str, texts: list[str]) -> list[float]:
        raise TransientError("reranker backend down")


# ---------------------------------------------------------------- trace core
class TestTracer:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer(clock=TickClock())
        with tracer.trace("pipeline") as trace:
            with tracer.span("locate"):
                with tracer.span("vector"):
                    pass
            with tracer.span("llm"):
                pass
        root = trace.root
        assert [c.name for c in root.children] == ["locate", "llm"]
        assert [c.name for c in root.children[0].children] == ["vector"]
        assert trace.validate() == []

    def test_tick_clock_gives_exact_durations(self):
        tracer = Tracer(clock=TickClock(step=1.0))
        with tracer.trace("pipeline") as trace:
            with tracer.span("llm"):
                pass
        # root opens at 0, llm spans [1, 2], root closes at 3.
        assert trace.stage_seconds("llm") == 1.0
        assert trace.root.duration == 3.0

    def test_exception_marks_span_error_with_event(self):
        tracer = Tracer(clock=TickClock())
        with pytest.raises(ValueError):
            with tracer.trace("pipeline") as trace:
                with tracer.span("llm"):
                    raise ValueError("boom")
        llm = trace.find("llm")[0]
        assert llm.status == "error"
        assert [e.name for e in llm.events] == ["error:ValueError"]
        assert trace.root.status == "error"
        assert trace.validate() == []

    def test_nested_trace_rejected(self):
        tracer = Tracer(clock=TickClock())
        entered = []
        with tracer.trace("pipeline") as trace:
            nested = tracer.trace("pipeline")  # creating the scope checks nothing
            with pytest.raises(ObservabilityError, match="is active"):
                with nested:
                    entered.append(True)
            assert tracer._stack[-1] is trace.root
        assert entered == [] and not tracer.active

    def test_span_requires_active_trace(self):
        tracer = Tracer(clock=TickClock())
        orphan = tracer.span("orphan")  # the check runs at ``with`` entry
        entered = []
        with pytest.raises(ObservabilityError, match="requires an active trace"):
            with orphan:
                entered.append(True)
        assert entered == [] and not tracer.active

    def test_exception_in_nested_spans_unwinds_the_stack(self):
        tracer = Tracer(clock=TickClock())
        boom = ValueError("boom")
        with tracer.trace("pipeline") as trace:
            with pytest.raises(ValueError) as raised:
                with tracer.span("outer"):
                    with tracer.span("inner"):
                        raise boom
            assert raised.value is boom
            assert tracer._stack[-1] is trace.root
        for name in ("outer", "inner"):
            span = trace.find(name)[0]
            assert span.status == "error"
            assert [e.name for e in span.events] == ["error:ValueError"]
            assert span.events[0].attributes == {"message": "boom"}
        assert trace.root.status == "ok"
        assert trace.validate() == []
        assert not tracer.active

    def test_exception_escaping_the_trace_marks_the_root(self):
        tracer = Tracer(clock=TickClock())
        boom = KeyError("k")
        with pytest.raises(KeyError) as raised:
            with tracer.trace("pipeline", mode="rag") as trace:
                raise boom
        assert raised.value is boom
        assert trace.root.status == "error"
        assert [e.name for e in trace.root.events] == ["error:KeyError"]
        assert trace.root.attributes == {"mode": "rag"}
        assert trace.validate() == [] and not tracer.active
        with tracer.trace("pipeline") as again:  # the stack is empty again
            pass
        assert again.root.status == "ok"

    def test_event_is_noop_outside_trace(self):
        Tracer(clock=TickClock()).event("nobody-listening")  # must not raise

    def test_validate_flags_malformed_trees(self):
        tracer = Tracer(clock=TickClock())
        with tracer.trace("pipeline") as trace:
            with tracer.span("llm"):
                pass
        llm = trace.find("llm")[0]
        llm.end = None
        assert any("never finished" in p for p in trace.validate())
        llm.end = llm.start - 1.0
        assert any("before start" in p for p in trace.validate())
        llm.end = trace.root.end + 99.0
        assert any("escapes parent" in p for p in trace.validate())

    def test_roundtrip_preserves_structure_and_relative_times(self):
        tracer = Tracer(clock=TickClock(start=100.0, step=0.5))
        with tracer.trace("pipeline", mode="rag") as trace:
            with tracer.span("llm", model="ok") as span:
                span.add_event("llm:retried", at=tracer.clock(), attempts=2)
        restored = Trace.from_dict(json.loads(json.dumps(trace.to_dict())))
        assert restored.structure_digest() == trace.structure_digest()
        assert restored.root.start == 0.0  # times are origin-relative
        assert restored.root.attributes == {"mode": "rag"}
        assert restored.find("llm")[0].events[0].attributes == {"attempts": 2}
        assert restored.root.duration == pytest.approx(trace.root.duration)

    def test_structure_digest_ignores_timing(self):
        def build(step: float) -> Trace:
            tracer = Tracer(clock=TickClock(step=step))
            with tracer.trace("pipeline") as trace:
                with tracer.span("locate"):
                    pass
                tracer.event("rerank:truncate")
            return trace

        assert build(1.0).structure_digest() == build(37.5).structure_digest()

    def test_structure_digest_sees_shape_changes(self):
        tracer = Tracer(clock=TickClock())
        with tracer.trace("pipeline") as a:
            with tracer.span("locate"):
                pass
        tracer2 = Tracer(clock=TickClock())
        with tracer2.trace("pipeline") as b:
            with tracer2.span("locate"):
                pass
            with tracer2.span("llm"):
                pass
        assert a.structure_digest() != b.structure_digest()

    def test_render_shows_tree_and_events(self):
        tracer = Tracer(clock=TickClock(step=0.001))
        with tracer.trace("pipeline") as trace:
            with tracer.span("llm", model="ok"):
                tracer.event("llm:retried", attempts=2)
        text = trace.render()
        assert "pipeline" in text and "└─ llm" in text
        assert "• llm:retried attempts=2" in text


# ---------------------------------------------------------------- metrics core
class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        c = reg.counter("repro.test.calls")
        c.inc(2)
        assert reg.counter("repro.test.calls").value == 2

    def test_name_convention_enforced(self):
        reg = MetricsRegistry()
        bad_names = (
            "calls", "repro.calls", "repro.Test.calls", "other.test.calls",
            "repro.engine.requests\n",  # ``$`` alone would accept this one
        )
        for bad in bad_names:
            for kind in (reg.counter, reg.gauge, reg.histogram):
                # A bad name is never created, so never cached: every call raises.
                for _ in range(2):
                    with pytest.raises(ObservabilityError):
                        kind(bad)
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_cross_type_conflict_rejected(self):
        reg = MetricsRegistry()
        counter = reg.counter("repro.test.thing")
        assert reg.counter("repro.test.thing") is counter
        for other in (reg.gauge, reg.histogram):
            for _ in range(2):
                with pytest.raises(ObservabilityError):
                    other("repro.test.thing")
        reg.histogram("repro.test.sizes")
        with pytest.raises(ObservabilityError):
            reg.counter("repro.test.sizes")

    def test_validation_runs_once_at_creation(self, monkeypatch):
        from repro.observability import metrics

        checked: list[str] = []
        real_check = metrics._check_name

        def counting_check(name: str) -> None:
            checked.append(name)
            real_check(name)

        monkeypatch.setattr(metrics, "_check_name", counting_check)
        reg = MetricsRegistry()
        names = ("repro.test.c", "repro.test.g", "repro.test.h")
        kinds = (reg.counter, reg.gauge, reg.histogram)
        created = [kind(name) for kind, name in zip(kinds, names)]
        assert checked == list(names)
        checked.clear()
        for _ in range(3):
            found = [kind(name) for kind, name in zip(kinds, names)]
            assert all(a is b for a, b in zip(found, created))
        assert checked == []  # a lookup of an existing name checks nothing
        with pytest.raises(ObservabilityError):
            reg.counter("repro.bad")
        assert checked == ["repro.bad"]

    def test_concurrent_get_or_create_yields_one_instrument_per_name(self):
        reg = MetricsRegistry()
        names = [f"repro.test.race_{i}" for i in range(100)]
        workers, rounds = 8, 5
        barrier = threading.Barrier(workers)
        seen: list[list] = [[] for _ in range(workers)]

        def work(slot: int) -> None:
            barrier.wait(timeout=10)
            for _ in range(rounds):
                for name in names:
                    counter = reg.counter(name)
                    counter.inc()
                    histogram = reg.histogram(name + "_ms")
                    histogram.observe(1.0)
                    seen[slot].append((name, counter, histogram))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for name, counter, histogram in (entry for got in seen for entry in got):
            assert reg.counter(name) is counter
            assert reg.histogram(name + "_ms") is histogram
        assert sum(len(got) for got in seen) == workers * rounds * len(names)
        for name in names:
            assert reg.counter(name).value == workers * rounds
            assert reg.histogram(name + "_ms").count == workers * rounds

    def test_counter_cannot_decrease(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().counter("repro.test.calls").inc(-1)

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro.test.sizes", (1.0, 10.0), deterministic=True)
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["buckets"] == {"le_1": 1, "le_10": 1, "inf": 1}
        assert snap["count"] == 3

    def test_digest_excludes_wall_clock_histograms(self):
        def run(duration: float) -> str:
            reg = MetricsRegistry()
            reg.counter("repro.test.calls").inc()
            reg.histogram("repro.test.duration_ms").observe(duration)
            return reg.digest()

        assert run(1.0) == run(999.0)

    def test_digest_sees_deterministic_values(self):
        def run(attempts: int) -> str:
            reg = MetricsRegistry()
            reg.histogram("repro.test.attempts", (1.0, 4.0), deterministic=True).observe(attempts)
            return reg.digest()

        assert run(1) != run(3)

    def test_use_registry_scopes_lookups(self):
        inner = MetricsRegistry()
        with use_registry(inner):
            assert get_registry() is inner
            get_registry().counter("repro.test.calls").inc()
        assert get_registry() is not inner
        assert inner.counter("repro.test.calls").value == 1

    def test_render_text_lists_instruments(self):
        reg = MetricsRegistry()
        reg.counter("repro.test.calls").inc(3)
        reg.gauge("repro.test.depth").set(2)
        text = reg.render_text()
        assert "repro.test.calls" in text and "3" in text
        assert MetricsRegistry().render_text() == "(no metrics recorded)"


# ---------------------------------------------------------------- stage helper
class TestStageHelper:
    def test_stage_registers_all_three_instruments(self):
        reg = MetricsRegistry()
        tracer = Tracer(clock=TickClock())
        with tracer.trace("pipeline"):
            with stage("hop", metric="repro.test.hop", tracer=tracer, registry=reg) as span:
                assert span is not None and span.name == "hop"
        assert reg.counter("repro.test.hop.requests").value == 1
        assert reg.histogram("repro.test.hop.duration_ms").count == 1
        assert reg.counter("repro.test.hop.failures").value == 0

    def test_stage_counts_failures_and_reraises(self):
        reg = MetricsRegistry()
        with pytest.raises(TransientError):
            with stage("hop", metric="repro.test.hop", registry=reg):
                raise TransientError("down")
        assert reg.counter("repro.test.hop.failures").value == 1
        assert reg.histogram("repro.test.hop.duration_ms").count == 1

    def test_stage_exception_closes_its_span_and_reraises(self):
        reg = MetricsRegistry()
        tracer = Tracer(clock=TickClock())
        boom = TransientError("down")
        with tracer.trace("pipeline") as trace:
            with tracer.span("outer") as outer:
                with pytest.raises(TransientError) as raised:
                    with stage(
                        "hop", metric="repro.test.hop", tracer=tracer, registry=reg, k=3
                    ):
                        raise boom
                assert raised.value is boom
                assert tracer._stack[-1] is outer
        hop = trace.find("hop")[0]
        assert hop.status == "error"
        assert [e.name for e in hop.events] == ["error:TransientError"]
        assert hop.attributes == {"k": 3}
        assert outer.status == "ok"
        assert reg.counter("repro.test.hop.requests").value == 1
        assert reg.counter("repro.test.hop.failures").value == 1
        assert reg.histogram("repro.test.hop.duration_ms").count == 1
        assert trace.validate() == []

    def test_stage_without_tracer_yields_none(self):
        with stage("hop", metric="repro.test.hop", registry=MetricsRegistry()) as span:
            assert span is None
        tracer = Tracer(clock=TickClock())  # a tracer with no open trace: no span
        with stage("hop", metric="repro.test.hop", tracer=tracer, registry=MetricsRegistry()) as span:
            assert span is None

    def test_stage_resolves_the_ambient_registry_at_entry(self):
        reg = MetricsRegistry()
        scope = stage("hop", metric="repro.test.hop")
        with use_registry(reg):
            with scope:
                pass
        assert reg.counter("repro.test.hop.requests").value == 1
        assert reg.histogram("repro.test.hop.duration_ms").count == 1


class TestReplayedTrace:
    def test_answer_cache_hit_trace_matches_a_recorded_one(self, bundle, fast_config):
        service = open_service(fast_config, bundle=bundle, registry=MetricsRegistry())
        question = "How do I set the KSP tolerance?"
        service.answer(question)
        hit = service.answer(question)
        tracer = Tracer(clock=TickClock())
        with tracer.trace(
            "pipeline", mode=str(hit.mode), model=hit.model, cached=True
        ) as recorded:
            tracer.event("cache:answer-hit")
        assert hit.trace.validate() == []
        assert hit.trace.structure_digest() == recorded.structure_digest()
        assert hit.trace.root.attributes == recorded.root.attributes
        assert [e.attributes for e in hit.trace.root.events] == [{}]


# ---------------------------------------------------------------- typed enums
class TestTypedEnums:
    def test_mode_round_trips_by_value(self):
        for mode in PipelineMode:
            assert PipelineMode(str(mode)) is mode
            assert PipelineMode.coerce(mode.value) is mode

    def test_mode_compares_and_serializes_as_string(self):
        assert PipelineMode.RAG_RERANK == "rag+rerank"
        assert f"{PipelineMode.BASELINE}" == "baseline"
        assert json.dumps({"mode": PipelineMode.RAG}) == '{"mode": "rag"}'

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineMode.coerce("turbo")

    def test_degradation_event_round_trips(self):
        for event in DegradationEvent:
            assert DegradationEvent.coerce(str(event)) is event
        assert DegradationEvent.RERANK_TRUNCATE == "rerank:truncate"
        with pytest.raises(ConfigurationError):
            DegradationEvent.coerce("llm:exploded")

    def test_metric_suffix_is_a_valid_segment(self):
        reg = MetricsRegistry()
        for event in DegradationEvent:
            reg.counter(f"repro.pipeline.degradation.{event.metric_suffix}")

    def test_build_pipeline_accepts_enum_and_string(self, bundle, fast_config):
        by_str = open_pipeline(fast_config, bundle=bundle, mode="baseline")
        by_enum = open_pipeline(fast_config, bundle=bundle, mode=PipelineMode.BASELINE)
        assert by_str.mode is PipelineMode.BASELINE
        assert by_enum.mode is PipelineMode.BASELINE
        with pytest.raises(ConfigurationError):
            open_pipeline(fast_config, bundle=bundle, mode="turbo")

    def test_history_schema_unchanged_on_disk(self, tmp_path):
        path = tmp_path / "history.journal"
        store = InteractionStore()
        reopen_journal(store, path, fsync=False)
        pipeline = RAGPipeline(
            FlakyModel(fail_first=1),
            retriever=FailingRetriever(),
            retry_policy=RetryPolicy(max_attempts=4),
        )
        store.record_pipeline_result(pipeline.answer("q"))
        store.journal.close()
        (obj,) = scan_journal(path).records
        # Wire strings exactly as the resilience PR wrote them.
        assert obj["mode"] == "rag"
        assert obj["degraded"] == ["retrieval:baseline-fallback"]
        loaded, _ = InteractionStore.recover(path)
        rec = loaded.all()[0]
        assert rec.degraded == ["retrieval:baseline-fallback"]
        assert rec.trace is not None

    def test_old_records_without_trace_still_load(self, tmp_path):
        path = tmp_path / "old.journal"
        with Journal(path, fsync=False) as journal:
            journal.append(
                {
                    "interaction_id": "int-000001",
                    "question": "q",
                    "answer": "a",
                    "timestamp": 1.0,
                    "mode": "rag",
                    "degraded": [],
                }
            )
        rec = InteractionStore.recover(path)[0].all()[0]
        assert rec.trace is None


# ---------------------------------------------------------------- pipeline tracing
class TestPipelineTracing:
    def test_clean_run_span_tree_shape(self, store, keyword_search):
        pipeline = RAGPipeline(
            OkModel(),
            retriever=VectorRetriever(store),
            priority_retrievers=[keyword_search],
            metrics=MetricsRegistry(),
        )
        result = pipeline.answer("What restart does GMRES use?")
        trace = result.trace
        assert trace is not None and trace.validate() == []
        assert [c.name for c in trace.root.children] == ["locate", "refine", "llm"]
        locate = trace.find("locate")[0]
        assert [c.name for c in locate.children] == ["keyword", "vector"]
        assert trace.find("llm")[0].children[0].name == "attempt"
        assert trace.root.attributes["mode"] == "rag"

    def test_timing_properties_derive_from_trace(self, store):
        pipeline = RAGPipeline(
            OkModel(), retriever=VectorRetriever(store), metrics=MetricsRegistry()
        )
        result = pipeline.answer("q")
        trace = result.trace
        expected_rag = trace.stage_seconds("locate") + trace.stage_seconds("refine")
        assert result.rag_seconds == expected_rag
        assert result.llm_seconds == trace.stage_seconds("llm")
        # The root span covers the stage sum plus whatever ran between
        # the stages.
        assert trace.root.duration >= result.rag_seconds + result.llm_seconds
        assert result.rag_seconds > 0 and result.llm_seconds > 0

    def test_baseline_has_no_rag_spans(self):
        result = RAGPipeline(OkModel(), metrics=MetricsRegistry()).answer("q")
        assert result.rag_seconds == 0.0
        assert result.trace.find("locate") == []

    def test_trace_persists_into_history(self, tmp_path):
        path = tmp_path / "h.journal"
        store = InteractionStore()
        reopen_journal(store, path, fsync=False)
        result = RAGPipeline(OkModel(), metrics=MetricsRegistry()).answer("q")
        store.record_pipeline_result(result)
        store.journal.close()
        rec = InteractionStore.recover(path)[0].all()[0]
        restored = Trace.from_dict(rec.trace)
        assert restored.structure_digest() == result.trace.structure_digest()

    def test_trace_recording_can_be_disabled(self):
        store = InteractionStore()
        result = RAGPipeline(OkModel(), metrics=MetricsRegistry()).answer("q")
        rec = store.record_pipeline_result(result, include_trace=False)
        assert rec.trace is None

    def test_pipeline_metrics_reach_registry(self, store):
        reg = MetricsRegistry()
        pipeline = RAGPipeline(OkModel(), retriever=VectorRetriever(store), metrics=reg)
        pipeline.answer("q")
        snap = reg.snapshot()["counters"]
        assert snap["repro.pipeline.requests"] == 1
        assert snap["repro.pipeline.locate.requests"] == 1
        assert snap["repro.retrieval.vector.requests"] == 1
        assert snap["repro.llm.completions"] == 1
        assert snap["repro.llm.prompt_tokens"] == 3

    def test_failure_counts_into_registry(self):
        reg = MetricsRegistry()
        pipeline = RAGPipeline(FlakyModel(fail_first=10), metrics=reg)
        with pytest.raises(TransientError):
            pipeline.answer("q")
        assert reg.counter("repro.pipeline.failures").value == 1
        assert reg.counter("repro.pipeline.llm.failures").value == 1


# ---------------------------------------------------------------- ladder × tracing
class TestDegradationLadderTracing:
    def test_retrieval_fallback_is_a_root_event(self):
        pipeline = RAGPipeline(
            OkModel(), retriever=FailingRetriever(), metrics=MetricsRegistry()
        )
        result = pipeline.answer("q")
        assert result.degraded == [DegradationEvent.RETRIEVAL_BASELINE_FALLBACK]
        trace = result.trace
        assert "retrieval:baseline-fallback" in [e.name for e in trace.root.events]
        locate = trace.find("locate")[0]
        assert locate.status == "error"
        assert trace.validate() == []

    def test_rerank_truncate_is_a_root_event(self, store):
        pipeline = RAGPipeline(
            OkModel(),
            retriever=VectorRetriever(store),
            reranker=FailingReranker(),
            metrics=MetricsRegistry(),
        )
        result = pipeline.answer("q")
        assert result.degraded == [DegradationEvent.RERANK_TRUNCATE]
        assert "rerank:truncate" in [e.name for e in result.trace.root.events]
        assert result.trace.find("refine")[0].status == "error"
        assert result.trace.validate() == []

    def test_llm_truncation_is_a_root_event(self):
        result = RAGPipeline(TruncatingModel(), metrics=MetricsRegistry()).answer("q")
        assert result.degraded == [DegradationEvent.LLM_TRUNCATED]
        assert "llm:truncated" in [e.name for e in result.trace.root.events]

    def test_retries_appear_as_attempt_spans_and_event(self):
        reg = MetricsRegistry()
        pipeline = RAGPipeline(
            FlakyModel(fail_first=2), retry_policy=RetryPolicy(max_attempts=4), metrics=reg
        )
        # The resilience layer reports via the ambient registry.
        with use_registry(reg):
            result = pipeline.answer("q")
        assert result.attempts == 3
        llm = result.trace.find("llm")[0]
        attempts = [c for c in llm.children if c.name == "attempt"]
        assert [a.attributes["index"] for a in attempts] == [1, 2, 3]
        assert [a.status for a in attempts] == ["error", "error", "ok"]
        assert "llm:retried" in [e.name for e in llm.events]
        assert reg.counter("repro.resilience.retries").value == 2
        assert result.trace.validate() == []

    def test_degradation_counters_per_rung(self):
        reg = MetricsRegistry()
        RAGPipeline(
            TruncatingModel(), retriever=FailingRetriever(), metrics=reg
        ).answer("q")
        snap = reg.snapshot()["counters"]
        assert snap["repro.pipeline.degradations"] == 2
        assert snap["repro.pipeline.degradation.retrieval_baseline_fallback"] == 1
        assert snap["repro.pipeline.degradation.llm_truncated"] == 1

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        transient=st.floats(min_value=0.0, max_value=0.45),
        truncate=st.floats(min_value=0.0, max_value=0.3),
    )
    def test_span_trees_well_formed_under_any_faults(self, seed, transient, truncate):
        """Property: whatever the fault schedule does, every produced
        trace is a well-formed tree and every degradation rung taken is
        also a root span event."""
        injector = FaultInjector(
            seed, FaultConfig(transient_rate=transient, truncation_rate=truncate)
        )
        model = injector.wrap_model(FlakyModel())
        pipeline = RAGPipeline(
            model,
            retriever=injector.wrap_retriever(FailingRetriever() if seed % 7 == 0 else _EchoRetriever()),
            retry_policy=RetryPolicy(max_attempts=3),
            metrics=MetricsRegistry(),
        )
        for q in ("q1", "q2"):
            try:
                result = pipeline.answer(q)
            except TransientError:
                continue
            assert result.trace is not None
            assert result.trace.validate() == []
            root_events = {e.name for e in result.trace.root.events}
            for rung in result.degraded:
                assert str(rung) in root_events


class _EchoRetriever(Retriever):
    name = "echo"

    def retrieve(self, query: str, *, k: int = 8, ctx=None) -> list[RetrievedDocument]:
        return []


# ---------------------------------------------------------------- determinism
class TestEndToEndDeterminism:
    def test_same_seed_same_digests(self, bundle, fast_config):
        from repro.index import get_or_build_index

        # Resolve the shared artifact before scoping a registry: whether
        # a call builds or hits the cache depends on process history, so
        # those counters must stay out of the compared registries.
        get_or_build_index(bundle, fast_config)

        def run(seed: int) -> tuple[str, list[str]]:
            injector = FaultInjector(seed, FaultConfig(transient_rate=0.3))
            reg = MetricsRegistry()
            with use_registry(reg):
                pipeline = open_pipeline(
                    fast_config, bundle=bundle, fault_injector=injector
                )
                digests = []
                for q in ("How do I set the KSP tolerance?", "What is GMRES?"):
                    result = pipeline.answer(q)
                    digests.append(result.trace.structure_digest())
            return reg.digest(), digests

        assert run(3) == run(3)
        # A different seed perturbs the metric digest (different fault mix).
        assert run(3)[0] != run(4)[0]


# ---------------------------------------------------------------- deprecation
class TestRemovedKeywordShim:
    def test_keyword_search_kwarg_rejected(self, store, keyword_search):
        # The deprecation window is over: the old kwarg fails cleanly
        # instead of warning and mapping to priority_retrievers.
        with pytest.raises(TypeError, match="keyword_search"):
            RAGPipeline(
                OkModel(),
                retriever=VectorRetriever(store),
                keyword_search=keyword_search,
                metrics=MetricsRegistry(),
            )

    def test_new_shape_does_not_warn(self, store, keyword_search):
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error", DeprecationWarning)
            pipeline = RAGPipeline(
                OkModel(),
                retriever=VectorRetriever(store),
                priority_retrievers=[keyword_search],
                metrics=MetricsRegistry(),
            )
        assert pipeline.priority_retrievers == [keyword_search]
