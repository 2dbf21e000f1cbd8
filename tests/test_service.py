"""The service layer: golden digest equivalence + front-door contract.

The golden fixtures in ``fixtures/service_golden.json`` were captured
from the PRE-refactor serving code (inline engine paths) on fixed seeds.
The tests here re-run the same workloads through the service scheduler
and assert the answers/metrics/span digests reproduce those bytes
exactly — a cross-refactor equivalence oracle, not a self-fulfilling
snapshot.  Regenerate (deliberately!) with::

    PYTHONPATH=src:. python scripts/capture_service_golden.py

The one re-capture so far (monolithic serving became the 1-shard case)
is itself pinned by ``TestGoldenRecapture``: what was allowed to move,
and that nothing else did.

The rest of the file pins the front-door contract: every service —
baseline mode included — serves through an engine and answers like the
reference pipeline, and request-lifecycle internals stay inside
``repro.service``, written as one scheduler rather than a hook
framework (architecture conformance).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import re
from pathlib import Path

import pytest

from repro.api import open_engine
import repro
from repro.engine import QueryEngine
from repro.evaluation import krylov_benchmark, run_experiment
from repro.observability import MetricsRegistry, use_registry
from repro.pipeline.types import PipelineMode
from repro.service import ReproService
from tests.golden_workloads import (
    ask_workload,
    batch_workload,
    chaos_workload,
    overload_workload,
    sharded_workload,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "service_golden.json").read_text()
)


# ---------------------------------------------------------------------------
# Golden digest equivalence: service output == pre-refactor output, byte for byte
# ---------------------------------------------------------------------------
class TestGoldenDigests:
    def test_single_requests_match_pre_refactor(self, bundle):
        assert ask_workload(bundle) == GOLDEN["ask"]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_batch_matches_pre_refactor(self, bundle, workers):
        assert batch_workload(bundle, workers=workers) == GOLDEN["batch"][str(workers)]

    def test_batch_digests_invariant_across_worker_counts(self):
        seen = {json.dumps(v, sort_keys=True) for v in GOLDEN["batch"].values()}
        assert len(seen) == 1

    def test_sharded_matches_pre_refactor(self, bundle):
        assert sharded_workload(bundle) == GOLDEN["sharded"]

    def test_chaos_sweep_matches_pre_refactor(self, bundle):
        assert chaos_workload(bundle) == GOLDEN["chaos"]

    def test_overload_matches_pre_refactor(self, bundle):
        assert overload_workload(bundle) == GOLDEN["overload"]


# ---------------------------------------------------------------------------
# The fixture's one re-capture: what moved, and that nothing else did
# ---------------------------------------------------------------------------
#: Values of the fixture before monolithic serving became the 1-shard
#: case.  ``prompt_tokens`` is ``repro.llm.prompt_tokens`` in the
#: workload's registry: "What is DMDA?" scores 0.0 against every chunk,
#: and the scatter merge breaks that corpus-wide tie by doc id where the
#: monolithic scan broke it by insertion row, so rag mode hands the model
#: four other (equally irrelevant) chunks — the answer does not move,
#: the prompt length does.
_PRE_COLLAPSE = {
    "ask": {
        "answers": "0410d47f931e752136c249678e5c2397ebaa227b1f81ba3461625aeef16535bd",
        "metrics": "c2f61830cd8c3a76c45061f316cf417162d7791f6fb6fa4d2c4da19d9565098b",
        "prompt_tokens": 4105,
    },
    "batch": {
        "answers": "0468683e6b2f89b9bb22d7df0c2c08fc90b726b1f227e46e6db3597f46b83335",
        "metrics": "83d69e08c04827a0bc1d3e327feef3f6264052d8ef4f61f5708ada406af3cf3a",
        "prompt_tokens": 4105,
    },
    "sharded": {
        "answers": "0468683e6b2f89b9bb22d7df0c2c08fc90b726b1f227e46e6db3597f46b83335",
        "metrics": "b486b88efcbef2fac3527a520adeed02268a94e0c77437c0306039e7a307bdf2",
        "spans": "3f9d5b6d0f8698b8714e84c9916c3907c4135aa12b915504cc98823c82002e7a",
    },
    "chaos": {
        "answered": 9,
        "results": "fb03f984214fa869b174104cb0694488decba6e7254482d399eb26134cca11fb",
        "schedule": "dac4aebf42288e3970a65a1ca149d9b2843ec5f6b8544c098ab33fadccffef3e",
    },
    "overload": {
        "answers_digest": "d78fc39c698d6019c279e46697a4aa2540761240e1671dad60a8fa188f0e9c64",
        "metrics_digest": "92e230728b4088b371ea602004673ddb89ea753b75291d8abc9bc23168b63598",
    },
}


class _RecordingRegistry(MetricsRegistry):
    """Remembers every instance, to reach registries a workload owns."""

    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.made.append(self)


def _pre_collapse_metrics_digest(registry, prompt_tokens=None) -> str:
    """The registry's digest as the monolithic path would have produced
    it: no ``repro.shard.*`` instruments, the old prompt-token total."""
    if prompt_tokens is not None:
        counter = registry.counter("repro.llm.prompt_tokens")
        counter.inc(prompt_tokens - counter.value)
    view = {
        kind: {n: v for n, v in table.items() if not n.startswith("repro.shard.")}
        for kind, table in registry.deterministic_view().items()
    }
    payload = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


class TestGoldenRecapture:
    def test_answers_results_and_schedules_did_not_move(self):
        for workload in ("ask", "sharded", "chaos"):
            for key, value in _PRE_COLLAPSE[workload].items():
                if key not in ("metrics", "prompt_tokens"):
                    assert GOLDEN[workload][key] == value, (workload, key)
        for batch in GOLDEN["batch"].values():
            assert batch["answers"] == _PRE_COLLAPSE["batch"]["answers"]
        assert (
            GOLDEN["overload"]["answers_digest"]
            == _PRE_COLLAPSE["overload"]["answers_digest"]
        )
        # The already-sharded workload is untouched, metrics included.
        assert GOLDEN["sharded"] == _PRE_COLLAPSE["sharded"]

    def test_default_config_spans_are_the_sharded_spans(self):
        for batch in GOLDEN["batch"].values():
            assert batch["spans"] == _PRE_COLLAPSE["sharded"]["spans"]

    @pytest.mark.parametrize("workload", ["ask", "batch"])
    def test_metrics_moved_only_by_shard_counters(self, bundle, monkeypatch, workload):
        from tests import golden_workloads

        _RecordingRegistry.made.clear()
        monkeypatch.setattr(golden_workloads, "MetricsRegistry", _RecordingRegistry)
        if workload == "ask":
            current = ask_workload(bundle)
        else:
            current = batch_workload(bundle, workers=2)
        (registry,) = _RecordingRegistry.made
        assert current["metrics"] != _PRE_COLLAPSE[workload]["metrics"]
        assert registry.counter("repro.shard.queries").value > 0
        assert (
            _pre_collapse_metrics_digest(
                registry, _PRE_COLLAPSE[workload]["prompt_tokens"]
            )
            == _PRE_COLLAPSE[workload]["metrics"]
        )

    def test_overload_metrics_moved_only_by_shard_counters(self, bundle, monkeypatch):
        from repro.evaluation import chaos

        _RecordingRegistry.made.clear()
        monkeypatch.setattr(chaos, "MetricsRegistry", _RecordingRegistry)
        current = overload_workload(bundle)
        (registry,) = _RecordingRegistry.made
        assert current["metrics_digest"] != _PRE_COLLAPSE["overload"]["metrics_digest"]
        assert (
            _pre_collapse_metrics_digest(registry)
            == _PRE_COLLAPSE["overload"]["metrics_digest"]
        )


# ---------------------------------------------------------------------------
# Front-door semantics
# ---------------------------------------------------------------------------
class TestFrontDoor:
    def test_engine_service_is_cached_singleton(self, bundle, fast_config):
        engine = open_engine(fast_config, bundle=bundle)
        assert engine.service is engine.service
        assert engine.service.engine is engine

    def test_default_mode_follows_the_engine(self, bundle, fast_config):
        engine = open_engine(fast_config, bundle=bundle)
        service = engine.service  # touched before the engine's default moves
        engine.default_mode = PipelineMode.BASELINE
        assert service.default_mode is PipelineMode.BASELINE
        assert service.resolve_mode(None) is PipelineMode.BASELINE
        assert service.pipeline_for(None) is engine.pipeline(None)

    def test_service_matches_reference_pipeline(self, bundle, fast_config):
        # Was test_engineless_service_matches_direct_pipeline; the deleted
        # test_engineless_service_rejects_other_modes pinned a limit of the
        # pipeline= backend this PR removed — one service serves every mode.
        service = repro.open_service(fast_config, bundle=bundle)
        question = "How do I set the KSP tolerance?"
        for mode in ("baseline", "rag", "rag+rerank"):
            via_service = service.answer(question, mode=mode)
            direct = repro.open_pipeline(fast_config, bundle=bundle, mode=mode).answer(
                question
            )
            assert via_service.answer == direct.answer
            assert via_service.mode == direct.mode == mode

    def test_baseline_workflow_and_chatbot_serve_through_an_engine(
        self, bundle, fast_config
    ):
        workflow = repro.open_workflow(fast_config, bundle=bundle, mode="baseline")
        system = repro.open_support_system(fast_config, bundle=bundle, mode="baseline")
        assert isinstance(workflow.service.engine, QueryEngine)
        assert isinstance(system.chatbot.service.engine, QueryEngine)
        assert workflow.mode == system.chatbot.mode == "baseline"
        question = "What is the default KSP type?"
        registry = MetricsRegistry()
        with use_registry(registry):
            first = workflow.ask(question).result
            again = workflow.ask(question).result
        assert first.mode == "baseline" and not first.contexts
        assert again.answer == first.answer
        assert registry.counter("repro.engine.answer_cache.hits").value == 1

    def test_baseline_batch_dedupes_and_times_through_the_engine(
        self, bundle, fast_config
    ):
        service = repro.open_service(fast_config, bundle=bundle, registry=MetricsRegistry())
        q, q2 = "What is the default KSP type?", "What is DMDA?"
        batch = service.answer_many([q, q, q2], mode="baseline", workers=4)
        assert batch.answered_count == 3 and batch.workers == 4
        assert [it.cached for it in batch.items] == [False, True, False]
        assert service.engine.registry.counter("repro.engine.batch_deduped").value == 1
        assert batch.batch_seconds > 0 and batch.questions_per_second > 0
        service.answer(q, mode="baseline")
        assert service.engine.registry.counter("repro.engine.answer_cache.hits").value == 1

    def test_fault_injector_keeps_baseline_answer_cache_off(self, bundle, fast_config):
        from repro.resilience import FaultConfig, FaultInjector

        registry = MetricsRegistry()
        system = repro.open_support_system(
            fast_config, bundle=bundle, mode="baseline",
            fault_injector=FaultInjector(0, FaultConfig()),
        )
        service = system.chatbot.service
        assert not service.cache_answers_enabled()
        with use_registry(registry):
            service.answer("What is DMDA?", mode="baseline")
            service.answer("What is DMDA?", mode="baseline")
        assert registry.counter("repro.engine.answer_cache.hits").value == 0
        assert registry.counter("repro.pipeline.requests").value == 2

    def test_single_is_batch_of_one(self, bundle, fast_config):
        # One commit path: the 37 questions, twice (the second pass is all
        # answer-cache hits), leave the same three LRUs — keys and recency
        # order — whether asked one by one or in batches at any width.
        artifact = open_engine(fast_config, bundle=bundle).artifact
        questions = [q.text for q in krylov_benchmark()]

        def sequential(engine):
            return [engine.answer(q, mode="rag") for q in questions]

        def batch(workers):
            def run(engine):
                items = engine.answer_many(questions, mode="rag", workers=workers).items
                assert not any(it.error for it in items)
                return [it.result for it in items]

            return run

        answers, lrus = [], []
        for ask in (sequential, batch(1), batch(2)):
            engine = QueryEngine(artifact, fast_config, registry=MetricsRegistry())
            first, again = ask(engine), ask(engine)
            assert [r.answer for r in again] == [r.answer for r in first]
            hits = engine.registry.counter("repro.engine.answer_cache.hits")
            assert hits.value == len(questions)
            answers.append([r.answer for r in first])
            gen = engine.generation
            lrus.append(
                [
                    [key for key, _value in lru.items()]
                    for lru in (gen.answers, gen.retrieval, gen.embeddings)
                ]
            )
            assert [len(keys) for keys in lrus[-1]] == [len(questions)] * 3
        assert answers[0] == answers[1] == answers[2]
        assert lrus[0] == lrus[1] == lrus[2]

    def test_failed_request_commits_what_it_computed(self, bundle, fast_config, monkeypatch):
        # The error edge of the one commit path: the LLM fails for good,
        # ``answer`` raises the typed error, and the retrieval and query
        # embedding the request computed are cached — as after a failed
        # batch job.
        from repro.errors import ModelError

        artifact = open_engine(fast_config, bundle=bundle).artifact
        question = "What is the default KSP type?"

        def broken(*args, **kwargs):
            raise ModelError("model gone")

        sizes = []
        for batched in (False, True):
            engine = QueryEngine(artifact, fast_config, registry=MetricsRegistry())
            monkeypatch.setattr(engine.pipeline("rag").chat_model, "complete", broken)
            if batched:
                (item,) = engine.answer_many([question], mode="rag", workers=1).items
                assert item.error.startswith("ModelError")
            else:
                with pytest.raises(ModelError):
                    engine.answer(question, mode="rag")
            assert engine.generation.retrieval.items()[0][0] == ("vector", question, 8)
            assert engine.generation.embeddings.items()[0][0] == question
            sizes.append(engine.cache_sizes())
        assert sizes[0] == sizes[1] == {"answer": 0, "retrieval": 1, "embedding": 1}

    def test_single_answer_serves_cache_hit_on_repeat(self, bundle, fast_config):
        registry = MetricsRegistry()
        engine = open_engine(fast_config, bundle=bundle)
        engine = QueryEngine(engine.artifact, fast_config, registry=registry)
        first = engine.answer("What is DMDA?", mode="rag")
        second = engine.answer("What is DMDA?", mode="rag")
        assert second.answer == first.answer
        assert registry.counter("repro.engine.answer_cache.hits").value == 1
        assert registry.counter("repro.engine.requests").value == 2

    def test_workflow_and_chatbot_route_through_service(self, bundle, fast_config):
        workflow = repro.open_workflow(fast_config, bundle=bundle, mode="rag")
        assert isinstance(workflow.service, ReproService)
        assert workflow.service is workflow.service.engine.service
        system = repro.open_support_system(fast_config, bundle=bundle)
        assert isinstance(system.chatbot.service, ReproService)
        assert system.chatbot.service is system.chatbot.service.engine.service

    def test_run_experiment_scores_match_reference_pipeline(
        self, bundle, fast_config, grader, rag_pipeline
    ):
        # Was test_run_experiment_accepts_service_and_legacy_pipeline; a
        # bare pipeline is no longer accepted, it is only the reference.
        questions = krylov_benchmark()[:3]
        service = open_engine(fast_config, bundle=bundle).service
        via_service = run_experiment(service, grader, mode="rag", questions=questions)
        assert via_service.mode == "rag"
        assert via_service.scores() == {
            q.qid: int(grader.grade(q, rag_pipeline.answer(q.text).answer).score)
            for q in questions
        }

    def test_evaluate_run_builds_index_exactly_once(self, bundle, fast_config, grader):
        from repro.index import builder

        # Evict the memoized artifacts so the build lands in the scoped
        # registry, then restore them so session fixtures stay warm.
        with builder._cache_lock:
            saved = dict(builder._artifacts)
            builder._artifacts.clear()
        try:
            registry = MetricsRegistry()
            with use_registry(registry):
                service = open_engine(fast_config, bundle=bundle).service
                run = run_experiment(
                    service, grader, mode="rag", questions=krylov_benchmark()[:6]
                )
            assert len(run.outcomes) == 6
            assert registry.counter("repro.index.builds").value == 1
        finally:
            with builder._cache_lock:
                builder._artifacts.update(saved)


# ---------------------------------------------------------------------------
# Architecture conformance: lifecycle internals stay inside repro.service
# ---------------------------------------------------------------------------
#: Serving internals only the service package may touch.
_SERVICE_ONLY = (
    r"pipeline\.answer\(",
    r"admission\.admit_(?:one|batch)\(",
    # The generation's answer LRU (``gen.answers``, ``engine.generation.answers``).
    r"\.answers\.(?:peek|put|touch)\(",
)


def test_lifecycle_internals_confined_to_service_modules():
    src_root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root)
        if rel.parts[0] == "service":
            continue
        text = path.read_text(encoding="utf-8")
        for pattern in _SERVICE_ONLY:
            for match in re.finditer(pattern, text):
                line = text.count("\n", 0, match.start()) + 1
                offenders.append(f"src/repro/{rel}:{line}: {match.group(0)}")
    assert not offenders, (
        "request-lifecycle internals leaked outside repro.service "
        "(route through ReproService instead):\n" + "\n".join(offenders)
    )


def test_one_backend_and_one_pipeline_call_site():
    """Every service has an engine: no engine-less branch, no second
    constructor, and one place that calls a pipeline."""
    src_root = Path(repro.__file__).parent
    banned = re.compile(
        r"engine is (?:not )?None|for_pipeline|for_engine"
        # The scheduler is a function: no hook framework, no kind flag.
        r"|\bInterceptor\b|LifecycleState|CANONICAL_CHAIN|validate_chain"
        r"|state\.kind|\bkind\s*=\s*(SINGLE|BATCH)"
        # The request context is an argument: no ambient binder, no
        # per-layer registry callback, no stringly side channel on it.
        r"|ContextBinder|registry_fn|with_serving_context|\.scratch\b|_last_invalidation"
        # Caches belong to the generation that computed them: no in-place
        # eviction, no stale-commit guard.
        r"|stale_commits_dropped|evict_where|invalidate_engine_caches"
    )
    # Nothing reads per-request randomness, so the context carries no
    # Generator and the service seeds none.
    request_rng = re.compile(r"ctx\.rng|\.rng\s*=|rng=np\.random")
    offenders, call_sites = [], []
    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root).as_posix()
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            # The one thread-local: how a test or CLI command names its sink.
            ambient = "threading.local" in line and rel != "observability/metrics.py"
            carrier = rel == "context.py" or rel.startswith("service/")
            if banned.search(line) or ambient or (carrier and request_rng.search(line)):
                offenders.append(f"src/repro/{rel}:{number}: {line.strip()}")
            # A call with arguments; docstrings only ever write ``answer()``.
            if re.search(r"pipeline\.answer\([^)]", line):
                call_sites.append(f"{rel}:{number}")
    assert not offenders, "\n".join(offenders)
    assert len(call_sites) == 1 and call_sites[0].startswith("service/service.py")
    # Was test_service_needs_exactly_one_backend: with the pipeline=
    # backend gone there is no second backend left to mis-combine.
    params = inspect.signature(ReproService.__init__).parameters
    assert list(params) == ["self", "engine"]
    assert params["engine"].default is inspect.Parameter.empty


#: One index, one engine, one store: nothing may fork on which kind it
#: was handed, or on whether there is more than one shard.
_FORK_PATTERNS = (
    r"isinstance\([^()]*,\s*\(?[^()]*\b\w*(?:Artifact|Engine|VectorStore)\b",
    r"num_shards\s*(?:==|!=|<=|>=|<|>)\s*[01]\b",
    r"\b[01]\s*(?:==|!=|<=|>=|<|>)\s*[\w.]*num_shards",
)
#: (file, matched text) pairs that are not forks.
_ALLOWED_SHARD_COMPARISONS = {
    ("config.py", "num_shards < 1"),  # range validation
    ("vectorstore/sharded.py", "num_shards <= 0"),  # shard_for_source's modulus guard
}


def test_no_fork_on_artifact_engine_store_kind_or_shard_count():
    src_root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root).as_posix()
        text = path.read_text(encoding="utf-8")
        for pattern in _FORK_PATTERNS:
            for match in re.finditer(pattern, text):
                if (rel, match.group(0)) in _ALLOWED_SHARD_COMPARISONS:
                    continue
                line = text.count("\n", 0, match.start()) + 1
                offenders.append(f"src/repro/{rel}:{line}: {match.group(0)}")
    assert not offenders, (
        "monolithic serving is the 1-shard x 1-replica case of one path; "
        "do not branch on artifact/engine/store type or on num_shards 0/1:\n"
        + "\n".join(offenders)
    )
