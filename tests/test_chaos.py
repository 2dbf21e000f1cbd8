"""Integration tests: dead-letter queue, degradation ladder, chaos runs."""

from __future__ import annotations

import pytest

from repro.api import open_support_system
from repro.config import ReproConfig
from repro.errors import TransientError
from repro.evaluation.benchmark import krylov_benchmark
from repro.evaluation.chaos import run_chaos_experiment, run_robustness_sweep
from repro.durability import reopen_journal
from repro.history import InteractionStore
from repro.llm.base import ChatMessage, ChatModel, CompletionResult, TokenUsage
from repro.mail.appsscript import AppsScriptPoller
from repro.mail.gmail import GmailAccount
from repro.mail.message import EmailMessage
from repro.pipeline.rag import RAGPipeline
from repro.rerank.base import Reranker
from repro.resilience import FaultConfig, FaultInjector, RetryPolicy
from repro.retrieval import VectorRetriever
from repro.retrieval.base import RetrievedDocument, Retriever


class FlakyModel(ChatModel):
    """Fails the first ``fail_first`` completions, then answers."""

    name = "flaky"

    def __init__(self, fail_first: int = 0) -> None:
        self.fail_first = fail_first
        self.calls = 0

    def complete(self, messages: list[ChatMessage], *, ctx=None) -> CompletionResult:
        self._check_messages(messages)
        self.calls += 1
        if self.calls <= self.fail_first:
            raise TransientError(f"flaky transport (call {self.calls})")
        return CompletionResult(
            text="the answer", model=self.name, usage=TokenUsage(1, 1)
        )


class FailingRetriever(Retriever):
    def retrieve(self, query: str, *, k: int = 8, ctx=None) -> list[RetrievedDocument]:
        raise TransientError("retrieval backend down")


class FailingReranker(Reranker):
    name = "failing"

    def score_pairs(self, query: str, texts: list[str]) -> list[float]:
        raise TransientError("reranker backend down")


class FlakyWebhook:
    """A webhook endpoint that fails for the first ``fail_first`` posts."""

    def __init__(self, fail_first: int) -> None:
        self.fail_first = fail_first
        self.calls = 0
        self.delivered: list[str] = []

    def __call__(self, payload: str) -> None:
        self.calls += 1
        if self.calls <= self.fail_first:
            raise TransientError("webhook 503")
        self.delivered.append(payload)


def _account_with_mail() -> GmailAccount:
    account = GmailAccount("petscbot@gmail.com")
    account.deliver(EmailMessage(sender="user@site.edu", subject="help", body="ksp?"))
    return account


# ---------------------------------------------------------------- poller DLQ
class TestPollerDeadLetters:
    def test_webhook_exception_cannot_escape_tick(self):
        hook = FlakyWebhook(fail_first=1)
        poller = AppsScriptPoller(account=_account_with_mail(), webhook_post=hook)
        assert poller.tick() is False  # caught, not raised
        assert poller.failures == 1
        assert len(poller.dead_letters) == 1
        assert poller.notifications_sent == 0
        # The mail was never fetched, so it is still unread for a retry.
        assert poller.account.has_unread()

    def test_next_tick_redelivers_dead_letters(self):
        hook = FlakyWebhook(fail_first=1)
        poller = AppsScriptPoller(account=_account_with_mail(), webhook_post=hook)
        poller.tick()
        assert poller.tick() is True
        # Both the dead letter and the fresh notification went out.
        assert len(hook.delivered) == 2
        assert not poller.dead_letters
        assert poller.notifications_sent == 2

    def test_persistent_outage_does_not_spin_or_grow_unbounded(self):
        hook = FlakyWebhook(fail_first=10**9)
        poller = AppsScriptPoller(
            account=_account_with_mail(), webhook_post=hook, max_dead_letters=4
        )
        for _ in range(20):
            assert poller.tick() is False
        # One redelivery probe per tick (no spinning through the queue),
        # and the queue itself stays bounded.
        assert poller.failures <= 2 * 20
        assert len(poller.dead_letters) <= 4

    def test_clean_path_unchanged(self):
        hook = FlakyWebhook(fail_first=0)
        poller = AppsScriptPoller(account=_account_with_mail(), webhook_post=hook)
        assert poller.tick() is True
        assert poller.failures == 0
        assert hook.delivered and "unread" in hook.delivered[0]


# ---------------------------------------------------------------- ladder
class TestDegradationLadder:
    def test_retrieval_failure_falls_back_to_baseline_prompt(self):
        pipeline = RAGPipeline(FlakyModel(), retriever=FailingRetriever())
        result = pipeline.answer("What restart does GMRES use?")
        assert result.answer == "the answer"
        assert result.degraded == ["retrieval:baseline-fallback"]
        assert result.contexts == []

    def test_rerank_failure_truncates_candidates(self, store):
        pipeline = RAGPipeline(
            FlakyModel(),
            retriever=VectorRetriever(store),
            reranker=FailingReranker(),
            first_pass_k=8,
            final_l=4,
        )
        result = pipeline.answer("What restart does GMRES use?")
        assert result.degraded == ["rerank:truncate"]
        assert 0 < len(result.contexts) <= 4
        # Truncation keeps first-pass ordering, no rerank origins.
        assert all("rerank" not in c.origin for c in result.contexts)

    def test_transient_llm_failure_retries_under_policy(self):
        model = FlakyModel(fail_first=2)
        pipeline = RAGPipeline(model, retry_policy=RetryPolicy(max_attempts=4))
        result = pipeline.answer("q")
        assert result.answer == "the answer"
        assert result.attempts == 3
        assert model.calls == 3

    def test_retry_exhaustion_propagates(self):
        pipeline = RAGPipeline(
            FlakyModel(fail_first=10), retry_policy=RetryPolicy(max_attempts=3)
        )
        with pytest.raises(TransientError):
            pipeline.answer("q")

    def test_clean_run_reports_no_degradation(self):
        pipeline = RAGPipeline(FlakyModel(), retry_policy=RetryPolicy(max_attempts=4))
        result = pipeline.answer("q")
        assert result.attempts == 1
        assert result.degraded == []


# ---------------------------------------------------------------- history
class TestHistorySurfacesResilience:
    def test_attempts_and_degradation_recorded_and_persisted(self, tmp_path):
        path = tmp_path / "history.journal"
        store = InteractionStore()
        reopen_journal(store, path, fsync=False)
        pipeline = RAGPipeline(
            FlakyModel(fail_first=1),
            retriever=FailingRetriever(),
            retry_policy=RetryPolicy(max_attempts=4),
        )
        store.record_pipeline_result(pipeline.answer("q"))

        clean = RAGPipeline(FlakyModel())
        store.record_pipeline_result(clean.answer("q2"))

        degraded = store.search(degraded_only=True)
        assert len(degraded) == 1
        assert degraded[0].attempts == 2
        assert degraded[0].degraded == ["retrieval:baseline-fallback"]

        store.journal.close()
        loaded, _ = InteractionStore.recover(path)
        rec = loaded.search(degraded_only=True)[0]
        assert rec.attempts == 2
        assert rec.degraded == ["retrieval:baseline-fallback"]


# ---------------------------------------------------------------- end to end
class TestSupportSystemChaos:
    def test_full_flow_survives_20pct_faults(self, bundle):
        """The paper's Fig. 5 arc sequence still yields a reviewable
        draft with 20% transient faults injected at every hop."""
        # Seed 5 injects faults on the webhook (exercising the dead-letter
        # queue) and the reranker (exercising the degradation ladder).
        injector = FaultInjector(5, FaultConfig(transient_rate=0.2))
        system = open_support_system(
            ReproConfig(iterations_per_token=0), bundle=bundle, fault_injector=injector
        )
        assert system.fault_injector is injector

        subject = "GMRES memory question"
        system.user_sends_email(
            "user@site.edu", subject,
            "Why does memory grow with the iteration count under GMRES?",
        )
        # Webhook faults dead-letter; keep ticking until the mail mirrors.
        for _ in range(20):
            system.poll()
            if system.find_post(subject) is not None:
                break
        post = system.find_post(subject)
        assert post is not None, "poller never got the notification through"

        developer = next(
            u for u in system.server.members.values() if u.name == "barry"
        )
        draft = system.developer_replies(developer, post)
        assert draft.result.answer
        assert draft.message.button("send") is not None
        # Injected chaos actually happened somewhere in the chain.
        assert injector.fault_counts()["transient"] > 0
        # The interaction record carries the resilience telemetry.
        recorded = system.store.all()[-1]
        assert recorded.attempts >= 1
        assert isinstance(recorded.degraded, list)

    def test_chaos_experiment_meets_availability_bar(self, bundle):
        """Acceptance: >= 95% answered at 30% faults, reproducibly."""
        questions = None  # full 37-question benchmark
        run_a = run_chaos_experiment(
            bundle, seed=0, fault_config=FaultConfig(transient_rate=0.3),
            questions=questions,
        )
        assert len(run_a.outcomes) == 37
        assert run_a.success_rate >= 0.95
        mix = run_a.degradation_mix()
        assert mix["retried"] > 0 or mix["failed"] == 0

        run_b = run_chaos_experiment(
            bundle, seed=0, fault_config=FaultConfig(transient_rate=0.3),
            questions=questions,
        )
        assert run_a.schedule_digest == run_b.schedule_digest
        assert run_a.results_digest() == run_b.results_digest()


class TestRobustnessSweep:
    """Satellite: chaos + overload + crash recovery in one seeded sweep."""

    def test_sweep_covers_all_three_phases(self, bundle, tmp_path):
        sweep = run_robustness_sweep(
            bundle, seed=3, fault_config=FaultConfig(transient_rate=0.2),
            overload_factor=16, questions=krylov_benchmark()[:6],
            journal_dir=tmp_path,
        )
        # Chaos phase ran the question subset.
        assert len(sweep.chaos.outcomes) == 6
        # Overload phase shed most of a 16x burst, hints intact.
        assert sweep.overload.error == ""
        assert sweep.overload.shed > 0
        assert sweep.overload.retry_after_ok
        assert sweep.overload.answered == sweep.overload.admitted
        # Recovery phase got back exactly the intact record prefix.
        assert sweep.recovery.prefix_ok
        assert sweep.recovery.recovered == sweep.recovery.crash_record

    def test_sweep_digest_is_seed_stable(self, bundle, tmp_path):
        kwargs = dict(
            fault_config=FaultConfig(transient_rate=0.2),
            overload_factor=16, questions=krylov_benchmark()[:4],
        )
        a = run_robustness_sweep(
            bundle, seed=9, journal_dir=tmp_path / "a", **kwargs
        )
        b = run_robustness_sweep(
            bundle, seed=9, journal_dir=tmp_path / "b", **kwargs
        )
        assert a.digest() == b.digest()
        c = run_robustness_sweep(
            bundle, seed=10, journal_dir=tmp_path / "c", **kwargs
        )
        assert c.digest() != a.digest()

    def test_render_mentions_every_phase(self, bundle, tmp_path):
        sweep = run_robustness_sweep(
            bundle, seed=1, fault_config=FaultConfig(transient_rate=0.1),
            overload_factor=4, questions=krylov_benchmark()[:3],
            journal_dir=tmp_path,
        )
        text = sweep.render(title="robustness")
        assert "overload 4x" in text
        assert "crash recovery" in text
        assert "shard faults" in text
        assert "robustness digest" in text

    def test_shard_fault_phase_replicated_absorbs_outages(self, bundle, tmp_path):
        sweep = run_robustness_sweep(
            bundle, seed=5, fault_config=FaultConfig(transient_rate=0.0),
            overload_factor=4, questions=krylov_benchmark()[:4],
            journal_dir=tmp_path, shard_fault_rate=0.8, replicas=2,
        )
        s = sweep.shard_faults
        assert s is not None and s.error == ""
        assert s.replicas == 2
        # Every primary outage was absorbed by a backup: full coverage,
        # every question answered, failover activity recorded.
        assert s.answered == s.total == 4
        assert s.min_coverage == 1.0 and s.partial == 0
        assert s.failovers > 0

    def test_shard_fault_phase_single_copy_degrades(self, bundle, tmp_path):
        kwargs = dict(
            fault_config=FaultConfig(transient_rate=0.0), overload_factor=4,
            questions=krylov_benchmark()[:4], shard_fault_rate=0.8, replicas=1,
        )
        a = run_robustness_sweep(
            bundle, seed=5, journal_dir=tmp_path / "a", **kwargs
        )
        s = a.shard_faults
        assert s is not None and s.error == ""
        # Single copy per shard: outages cannot fail over, so coverage
        # degrades — deterministically across reruns.
        assert s.failovers == 0
        assert s.partial > 0 and s.min_coverage < 1.0
        b = run_robustness_sweep(
            bundle, seed=5, journal_dir=tmp_path / "b", **kwargs
        )
        assert b.shard_faults.results_digest == s.results_digest
        assert b.shard_faults.schedule_digest == s.schedule_digest
        assert b.shard_faults.min_coverage == s.min_coverage

    def test_shard_fault_phase_skipped_at_zero_rate(self, bundle, tmp_path):
        sweep = run_robustness_sweep(
            bundle, seed=1, fault_config=FaultConfig(transient_rate=0.1),
            overload_factor=4, questions=krylov_benchmark()[:2],
            journal_dir=tmp_path, shard_fault_rate=0.0,
        )
        assert sweep.shard_faults is None
        assert "shard faults" not in sweep.render()
