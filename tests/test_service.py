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

import ast
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
from repro.index import clear_index_cache
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


class TestDigestDiff:
    """The per-key diff behind ``bench_gate.py`` (which fails unless the
    moved keys are the declared ones) and ``capture_service_golden.py
    --diff``."""

    def test_a_key_moves_when_its_value_changes_or_it_is_on_one_side_only(self, capsys):
        from scripts.bench_gate import moved_keys

        committed = {"a": {"answers": "1", "spans": "2"}, "gone": 3}
        current = {"a": {"answers": "1", "spans": "9"}, "new": 3}
        assert moved_keys("x", committed, current) == {"a.spans", "gone", "new"}
        lines = capsys.readouterr().out.splitlines()
        assert "x: a.answers" in lines[0] and lines[0].endswith(" unchanged")
        assert "x: a.spans" in lines[1] and lines[1].endswith(" moved")
        assert moved_keys("golden", GOLDEN, json.loads(json.dumps(GOLDEN))) == set()

    def test_bench_gate_measures_a_move_against_the_base_commit(self, tmp_path, monkeypatch):
        """A change that re-commits the JSON its bench rewrote still
        declares what moved: the gate reads the block at ``--base``, not
        the one in the tree."""
        import subprocess

        from scripts.bench_gate import _committed, main as bench_gate

        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=gate", "-c", "user.email=gate@example.org",
                 "-c", "commit.gpgsign=false", *args],
                cwd=tmp_path, check=True, capture_output=True,
            )

        def commit(value):
            (tmp_path / "BENCH_x.json").write_text(json.dumps({"digests": {"k": value}}))
            git("add", "BENCH_x.json")
            git("commit", "-qm", value)

        monkeypatch.chdir(tmp_path)
        git("init", "-q")
        (tmp_path / "README").write_text("base\n")
        git("add", "README")
        git("commit", "-qm", "before the bench")
        commit("1")
        commit("2")  # the change under test: the digest moved and was re-committed
        (tmp_path / "bench_x.py").write_text(
            "import json\n\n\ndef test_bench():\n"
            "    with open('BENCH_x.json', 'w') as fh:\n"
            "        json.dump({'digests': {'k': '2'}}, fh)\n"
        )
        assert _committed("BENCH_x.json", "HEAD") == {"k": "2"}
        assert _committed("BENCH_x.json", "HEAD~2") == {}  # new since then: every key moves
        assert bench_gate(["bench_x.py", "BENCH_x.json", "--base", "HEAD^"]) == 1
        assert bench_gate(["bench_x.py", "BENCH_x.json", "--base", "HEAD^", "--moved", "k"]) == 0


# ---------------------------------------------------------------------------
# Front-door semantics
# ---------------------------------------------------------------------------
class TestFrontDoor:
    def test_default_mode_follows_the_engine(self, bundle, fast_config):
        service = repro.open_service(fast_config, bundle=bundle)
        engine = service.engine  # the service exists before the default moves
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

        def sequential(service):
            return [service.answer(q, mode="rag") for q in questions]

        def batch(workers):
            def run(service):
                items = service.answer_many(questions, mode="rag", workers=workers).items
                assert not any(it.error for it in items)
                return [it.result for it in items]

            return run

        answers, lrus = [], []
        for ask in (sequential, batch(1), batch(2)):
            engine = QueryEngine(artifact, fast_config, registry=MetricsRegistry())
            service = ReproService(engine)
            first, again = ask(service), ask(service)
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
            service = ReproService(engine)
            monkeypatch.setattr(engine.pipeline("rag").chat_model, "complete", broken)
            if batched:
                (item,) = service.answer_many([question], mode="rag", workers=1).items
                assert item.error.startswith("ModelError")
            else:
                with pytest.raises(ModelError):
                    service.answer(question, mode="rag")
            assert engine.generation.retrieval.items()[0][0] == ("vector", question, 8)
            assert engine.generation.embeddings.items()[0][0] == question
            sizes.append(engine.cache_sizes())
        assert sizes[0] == sizes[1] == {"answer": 0, "retrieval": 1, "embedding": 1}

    def test_single_answer_serves_cache_hit_on_repeat(self, bundle, fast_config):
        registry = MetricsRegistry()
        service = repro.open_service(fast_config, bundle=bundle, registry=registry)
        first = service.answer("What is DMDA?", mode="rag")
        second = service.answer("What is DMDA?", mode="rag")
        assert second.answer == first.answer
        assert registry.counter("repro.engine.answer_cache.hits").value == 1
        assert registry.counter("repro.engine.requests").value == 2

    def test_a_hit_is_the_cached_result_itself(self, bundle, fast_config):
        """A hit returns the one result the cache stored when its miss
        committed: every single ask and every hit item of a batch get
        that same object, under the one-span ``cache:answer-hit`` trace."""
        service = repro.open_service(fast_config, bundle=bundle, registry=MetricsRegistry())
        q, q2 = "What is DMDA?", "What does KSPSolve do?"
        miss = service.answer(q, mode="rag")
        hit = service.answer(q, mode="rag")
        assert hit is not miss and service.answer(q, mode="rag") is hit
        assert (hit.question, hit.answer, hit.contexts) == (q, miss.answer, miss.contexts)
        assert hit.contexts is not miss.contexts
        root = hit.trace.root
        assert (root.name, root.children, [e.name for e in root.events]) == (
            "pipeline", [], ["cache:answer-hit"],
        )
        assert root.attributes == {"mode": "rag", "model": miss.model, "cached": True}
        items = service.answer_many([q, q2, q, q], mode="rag", workers=2).items
        assert [it.cached for it in items] == [True, False, True, True]
        assert all(items[i].result is hit for i in (0, 2, 3))

    def test_a_pipeline_result_is_frozen(self, bundle, fast_config):
        """Results are shared between callers, so none can be changed in
        place; a variant is a ``dataclasses.replace`` copy."""
        import dataclasses

        service = repro.open_service(fast_config, bundle=bundle, registry=MetricsRegistry())
        result = service.answer("What is DMDA?", mode="rag")
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.prompt = "revised"
        assert dataclasses.replace(result, prompt="revised").prompt == "revised"
        assert service.answer("What is DMDA?", mode="rag").prompt == result.prompt

    def test_workflow_and_chatbot_route_through_service(self, bundle, fast_config):
        workflow = repro.open_workflow(fast_config, bundle=bundle, mode="rag")
        assert isinstance(workflow.service, ReproService)
        system = repro.open_support_system(fast_config, bundle=bundle)
        assert isinstance(system.chatbot.service, ReproService)

    def test_run_experiment_scores_match_reference_pipeline(
        self, bundle, fast_config, grader, rag_pipeline
    ):
        # Was test_run_experiment_accepts_service_and_legacy_pipeline; a
        # bare pipeline is no longer accepted, it is only the reference.
        questions = krylov_benchmark()[:3]
        service = repro.open_service(fast_config, bundle=bundle)
        via_service = run_experiment(service, grader, mode="rag", questions=questions)
        assert via_service.mode == "rag"
        assert via_service.scores() == {
            q.qid: int(grader.grade(q, rag_pipeline.answer(q.text).answer).score)
            for q in questions
        }

    def test_evaluate_run_builds_index_exactly_once(self, bundle, fast_config, grader):
        # Empty the process catalog so the build lands in the scoped registry.
        clear_index_cache()
        registry = MetricsRegistry()
        with use_registry(registry):
            service = repro.open_service(fast_config, bundle=bundle)
            run = run_experiment(service, grader, mode="rag", questions=krylov_benchmark()[:6])
        assert len(run.outcomes) == 6
        assert registry.counter("repro.index.builds").value == 1


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


def test_the_engine_answers_nothing(bundle, fast_config):
    """One front door: the service is the only thing that answers, so the
    engine has no answer method, no service and no admission of its own,
    and the engine package imports neither layer above it."""
    src_root = Path(repro.__file__).parent
    upward = re.compile(r"^\s*(?:from|import)\s+repro\.(?:service|admission)\b", re.M)
    second_door = re.compile(r"open_engine\(.*\)\.service\b|engine\.(?:service\b|answer(?:_many)?\()")
    offenders = []
    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root).as_posix()
        text = path.read_text(encoding="utf-8")
        patterns = (upward, second_door) if rel.startswith("engine/") else (second_door,)
        for pattern in patterns:
            for match in pattern.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                offenders.append(f"src/repro/{rel}:{line}: {match.group(0).strip()}")
    assert not offenders, "\n".join(offenders)
    engine = open_engine(fast_config, bundle=bundle)
    for name in ("answer", "answer_many", "service", "admission", "clear_query_caches"):
        assert not hasattr(engine, name), name


#: ``src/`` definitions that no other ``src/`` code names, kept on purpose:
#: qualified name (``path under src/repro::Class.attr``) → (why, the file
#: outside ``src/`` that calls it).  The gate checks that the caller file
#: still names each one.
_UNREACHED_ON_PURPOSE = {
    # The simulated users' side of Fig. 5: what a person at the keyboard
    # (or a mail client) does, driven by the walkthrough example.
    "bots/system.py::SupportSystem.user_sends_email": (
        "a user mails petsc-users (Fig. 5 arc 1)", "examples/discord_support_workflow.py"),
    "bots/system.py::SupportSystem.poll": (
        "the Apps Script timer fires (arcs 2-4)", "examples/discord_support_workflow.py"),
    "bots/system.py::SupportSystem.developer_replies": (
        "a developer types /reply (arc 5)", "examples/discord_support_workflow.py"),
    "bots/system.py::SupportSystem.find_post": (
        "a developer opens the mirrored post", "examples/discord_support_workflow.py"),
    "discordsim/models.py::Button.click": (
        "a developer clicks Send / Revise / Discard", "examples/discord_support_workflow.py"),
    "discordsim/models.py::Message.button": (
        "a developer finds a button by its label", "examples/discord_support_workflow.py"),
    "discordsim/channels.py::ForumPost.starter": (
        "a developer reads the mirrored email", "examples/discord_support_workflow.py"),
    "discordsim/server.py::Server.text_channel": (
        "a developer reads a text channel", "examples/discord_support_workflow.py"),
    # Paper surfaces that examples and benches reach.
    "bots/chatbot.py::PetscChatbot.submit_revision": (
        "Fig. 3 Revise: a draft guided by developer feedback",
        "examples/discord_support_workflow.py"),
    "bots/chatbot.py::PetscChatbot.direct_message": (
        "private DMs with unvetted answers (paper IV)", "tests/test_bots.py"),
    "bots/chatbot.py::PetscChatbot.dm_history": (
        "the transcript of a private DM", "tests/test_bots.py"),
    "history/scoring.py::BlindScoringSession": (
        "the paper's blind-score process (III-F)", "examples/blind_scoring.py"),
    "history/scoring.py::BlindScoringSession.pending_items": (
        "what a blind reviewer is shown", "examples/blind_scoring.py"),
    "history/store.py::InteractionStore.record_human_answer": (
        "developer answers scored like LLM answers", "examples/blind_scoring.py"),
    "pipeline/workflow.py::AugmentedWorkflow.feed_history_into_rag": (
        "vetted history back into box 1 (Fig. 1 dotted arrow)", "tests/test_ingest.py"),
    "pipeline/workflow.py::WorkflowAnswer.all_code_ok": (
        "box 4's verdict on the answer's code", "examples/quickstart.py"),
    "evaluation/experiments.py::ExperimentRun.rag_stats": (
        "Table II RAG row", "examples/run_evaluation.py"),
    "evaluation/experiments.py::ExperimentRun.llm_stats": (
        "Table II LLM row", "examples/run_evaluation.py"),
    "evaluation/reporting.py::render_latency_table": (
        "Table II layout", "examples/run_evaluation.py"),
    "postprocess/json_output.py::answer_to_json": (
        "the structured answer format (paper III-D)", "tests/test_postprocess.py"),
    "postprocess/json_output.py::json_to_answer": (
        "its inverse", "tests/test_postprocess.py"),
    "postprocess/markdown.py::extract_lists": (
        "itemized lists out of a Markdown answer", "tests/test_postprocess.py"),
    "documents/loaders.py::DirectoryLoader": (
        "the LangChain loader the paper builds its database with",
        "examples/build_rag_database.py"),
    "agentmem/memory.py::AgentMemory": (
        "early steps toward agentic memory (III-F)", "examples/blind_scoring.py"),
    "agentmem/memory.py::AgentMemory.remember": (
        "agentic memory: write", "examples/blind_scoring.py"),
    "agentmem/memory.py::AgentMemory.recall": (
        "agentic memory: read", "examples/blind_scoring.py"),
    "evaluation/benchmark.py::validate_benchmark": (
        "gold fact ids resolve; a graded set will extend it", "tests/test_evaluation.py"),
    # The Chroma-shaped store surface (DESIGN §2).
    "vectorstore/store.py::VectorStore.from_documents": (
        "Chroma.from_documents", "examples/build_rag_database.py"),
    "vectorstore/store.py::VectorStore.similarity_search": (
        "Chroma.similarity_search", "tests/test_vectorstore.py"),
    "vectorstore/sharded.py::ShardedVectorStore.similarity_search": (
        "the same call on a sharded store", "tests/test_ingest.py"),
    # Test seams.
    "resilience/faults.py::CrashPointInjector": (
        "crashes a durability site on purpose", "tests/test_durability.py"),
}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")


def _names_used(tree: ast.AST, *, package_init: bool = False) -> list[tuple[str, int]]:
    """``(name, line)`` for every use in ``tree``: a ``Name``, an
    ``Attribute.attr``, an imported name (the original, not the alias) or
    an identifier-shaped string constant (``getattr``, ``_LAZY``).  An
    ``__all__`` list is not a use, nor is a package ``__init__``'s
    ``from … import`` line."""
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            skipped.update(id(n) for n in ast.walk(node.value))
        elif package_init and isinstance(node, ast.ImportFrom):
            skipped.add(id(node))
    used = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            used.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            used.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            used.extend((alias.name, node.lineno) for alias in node.names)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _IDENTIFIER.match(node.value)
        ):
            used.append((node.value, node.lineno))
    return used


def _definitions(tree: ast.Module):
    """``(qualified name, name, first line, last line)`` for every
    module-level function and class and every method, nested classes'
    included."""
    found = []

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((prefix + node.name, node.name, node.lineno, node.end_lineno))
                if isinstance(node, ast.ClassDef):
                    walk(node.body, f"{prefix}{node.name}.")

    walk(tree.body, "")
    return found


def scan_reachability(sources: dict[str, str], *, reached=frozenset()):
    """``(defined, unreached)``: the qualified names (``path::Class.attr``)
    of every definition in ``sources`` (path → text), and those whose name
    no code in ``sources`` uses outside the definition's own body.  Names
    in ``reached`` count as used; dunder names are skipped."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    uses: dict[str, list[tuple[str, int]]] = {}
    for path, tree in trees.items():
        for name, line in _names_used(tree, package_init=path.endswith("__init__.py")):
            uses.setdefault(name, []).append((path, line))
    defined, unreached = set(), set()
    for path, tree in trees.items():
        for qualname, name, first, last in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            key = f"{path}::{qualname}"
            defined.add(key)
            if name in reached:
                continue
            if not any(p != path or not first <= line <= last for p, line in uses.get(name, ())):
                unreached.add(key)
    return defined, unreached


def allow_list_problems(defined, unreached, allowed, read_caller) -> list[str]:
    """Unreached definitions missing from ``allowed`` and stale entries:
    one now reached, one that no longer exists, one with no reason, or one
    whose caller file (read with ``read_caller``) does not name it."""
    problems = [f"{key}: no caller in src/" for key in sorted(unreached - set(allowed))]
    for key, (reason, caller) in sorted(allowed.items()):
        name = key.rsplit("::", 1)[-1].rsplit(".", 1)[-1]
        if key not in defined:
            problems.append(f"{key}: allow-listed but not defined")
        elif key not in unreached:
            problems.append(f"{key}: allow-listed but reached from src/")
        if not reason:
            problems.append(f"{key}: allow-listed without a reason")
        text = read_caller(caller)
        if text is None or name not in {n for n, _ in _names_used(ast.parse(text))}:
            problems.append(f"{key}: caller {caller} does not name {name}")
    return problems


def test_every_src_definition_has_a_src_caller():
    """Everything in ``src/`` has a caller in ``src/``, or an entry in
    ``_UNREACHED_ON_PURPOSE`` naming the file outside ``src/`` that calls
    it.  Names the frozen ledger (``benchmarks/ledger/*.py``) uses and the
    names in ``repro.__all__`` count as reached.

    Blind spot: a use is matched by name only, so a method counts as
    reached when any attribute anywhere in ``src/`` shares its name.
    That is how ``InteractionStore.add_score`` hid behind the
    ``Interaction.add_score`` that ``BlindScoringSession.submit`` called,
    while no score reached the history journal; how
    ``InteractionStore.save`` / ``load``, a second, snapshot format for
    history that only tests called, hid behind ``VectorStore.save`` and
    the document loaders' ``.load()``; and how ``StageTimer.time``, a
    context manager only tests entered, hid behind every ``import
    time`` in ``src/``."""
    src_root = Path(repro.__file__).parent
    repo_root = src_root.parents[1]
    sources = {
        path.relative_to(src_root).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(src_root.rglob("*.py"))
    }
    reached = set(repro.__all__)
    for path in sorted((repo_root / "benchmarks" / "ledger").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reached.update(name for name, _ in _names_used(tree))
    defined, unreached = scan_reachability(sources, reached=reached)

    def read_caller(rel):
        path = repo_root / rel
        return path.read_text(encoding="utf-8") if path.is_file() else None

    problems = allow_list_problems(defined, unreached, _UNREACHED_ON_PURPOSE, read_caller)
    assert not problems, "\n".join(problems)
    assert len(_UNREACHED_ON_PURPOSE) <= 32, "the allow-list is meant to stay short"


def test_reachability_scan_reports_unreached_and_stale_entries():
    sources = {
        "pkg/__init__.py": "from pkg.mod import kept, unused\n__all__ = ['kept', 'unused']\n",
        "pkg/mod.py": (
            "def kept():\n    return 1\n\n"
            "def unused():\n    return unused()\n\n"
            "class Box:\n    def __init__(self):\n        self.hidden = 0\n"
            "    def shown(self):\n        return self.hidden\n"
            "    def hidden(self):\n        return 2\n"
        ),
        "pkg/user.py": (
            "from pkg.mod import kept as alias\n"
            "value = alias() + getattr(object(), 'Box', 0)\n"
            "def show(box):\n    return box.shown()\n"
        ),
    }
    defined, unreached = scan_reachability(sources)
    # ``unused`` only calls itself, and only ``__init__``'s import and
    # ``__all__`` name it; ``hidden`` is reached by the attribute
    # ``self.hidden`` (the blind spot); ``show`` has no caller at all.
    assert unreached == {"pkg/mod.py::unused", "pkg/user.py::show"}
    assert {"pkg/mod.py::kept", "pkg/mod.py::Box", "pkg/mod.py::Box.hidden"} <= defined
    assert "pkg/mod.py::Box.__init__" not in defined
    assert scan_reachability(sources, reached={"unused", "show"})[1] == set()

    callers = {"ex.py": "import pkg\npkg.unused()\n", "other.py": "x = 1\n"}
    allowed = {
        "pkg/mod.py::unused": ("on purpose", "ex.py"),
        "pkg/user.py::show": ("on purpose", "other.py"),  # caller does not name it
        "pkg/mod.py::kept": ("stale", "ex.py"),  # reached from src/
        "pkg/mod.py::gone": ("stale", "ex.py"),  # not defined
    }
    problems = allow_list_problems(defined, unreached, allowed, callers.get)
    assert problems == [
        "pkg/mod.py::gone: allow-listed but not defined",
        "pkg/mod.py::gone: caller ex.py does not name gone",
        "pkg/mod.py::kept: allow-listed but reached from src/",
        "pkg/mod.py::kept: caller ex.py does not name kept",
        "pkg/user.py::show: caller other.py does not name show",
    ]
    assert allow_list_problems(defined, unreached, {}, callers.get) == [
        "pkg/mod.py::unused: no caller in src/",
        "pkg/user.py::show: no caller in src/",
    ]

#: One index, one engine, one store: nothing may fork on which kind it
#: was handed, or on whether there is more than one shard or replica.
_FORK_PATTERNS = (
    r"isinstance\([^()]*,\s*\(?[^()]*\b\w*(?:Artifact|Engine|VectorStore)\b",
    r"num_shards\s*(?:==|!=|<=|>=|<|>)\s*[01]\b",
    r"\b[01]\s*(?:==|!=|<=|>=|<|>)\s*[\w.]*num_shards",
    r"replicas\s*(?:==|!=|<=|>=|<|>)\s*[012]\b",
    r"\b[012]\s*(?:==|!=|<=|>=|<|>)\s*[\w.]*replicas\b",
    r"replica_sets\s+is\b",
)
#: (file, matched text) pairs that are not forks.
_ALLOWED_SHARD_COMPARISONS = {
    ("config.py", "num_shards < 1"),  # range validation
    ("config.py", "replicas < 1"),  # range validation
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
        "do not branch on artifact/engine/store type, on num_shards 0/1 "
        "or on the replica count:\n"
        + "\n".join(offenders)
    )
