"""Admission layer: token buckets, the ladder, AIMD, service integration."""

from __future__ import annotations

import math

import pytest

from repro.api import open_service
from repro.admission import (
    ADMIT,
    QUEUE,
    SHED,
    AdmissionController,
    AIMDController,
    RateLimiter,
    TokenBucket,
)
from repro.config import AdmissionConfig, ReproConfig
from repro.errors import ConfigurationError, OverloadedError
from repro.observability import MetricsRegistry, use_registry
from repro.service import ReproService


# ------------------------------------------------------------------ bucket
class TestTokenBucket:
    def test_starts_full(self):
        bucket = TokenBucket(rate=2.0, burst=4)
        assert bucket.available(0.0) == 4.0

    def test_burst_then_deny(self):
        bucket = TokenBucket(rate=1.0, burst=3)
        assert all(bucket.try_acquire(0.0) for _ in range(3))
        assert not bucket.try_acquire(0.0)

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=2.0, burst=2)
        bucket.try_acquire(0.0)
        bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.1)
        assert bucket.try_acquire(0.6)  # 0.5s * 2/s = 1 token

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2)
        assert bucket.available(1000.0) == 2.0

    def test_time_only_moves_forward(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        bucket.try_acquire(10.0)
        # An earlier timestamp sees the bucket at the high-water mark.
        assert bucket.available(5.0) == bucket.available(10.0)

    def test_next_free_when_empty(self):
        bucket = TokenBucket(rate=2.0, burst=1)
        bucket.try_acquire(0.0)
        assert bucket.next_free(0.0) == pytest.approx(0.5)

    def test_next_free_when_available(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        assert bucket.next_free(3.0) == 3.0

    def test_reserve_consumes_future_token(self):
        bucket = TokenBucket(rate=1.0, burst=1)
        bucket.try_acquire(0.0)
        grant = bucket.reserve(0.0)
        assert grant == pytest.approx(1.0)
        # The reserved token is spoken for: the next grant is later.
        assert bucket.reserve(0.0) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1.0, burst=0)
        # NaN fails no ``<= 0``: a NaN rate admitted every arrival.
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=math.nan, burst=2)
        with pytest.raises(ConfigurationError):
            RateLimiter(rate_per_second=math.nan, burst=2)


class TestRateLimiter:
    def test_per_client_isolation(self):
        limiter = RateLimiter(rate_per_second=1.0, burst=1)
        assert limiter.try_acquire("a", 0.0)
        assert not limiter.try_acquire("a", 0.0)
        assert limiter.try_acquire("b", 0.0)  # b has its own bucket


# ------------------------------------------------------------------ ladder
def _controller(**overrides) -> AdmissionController:
    defaults = dict(
        enabled=True,
        requests_per_second=2.0,
        burst=2,
        queue_depth=2,
        queue_timeout_seconds=2.0,
    )
    defaults.update(overrides)
    return AdmissionController(AdmissionConfig(**defaults))


class TestAdmissionLadder:
    def test_burst_walks_the_ladder(self):
        ctrl = _controller()
        registry = MetricsRegistry()
        decisions = ctrl.admit_batch([0.0] * 8, ["default"] * 8, registry=registry)
        outcomes = [d.outcome for d in decisions]
        # burst=2 admits, queue_depth=2 queues, the rest shed.
        assert outcomes == [ADMIT, ADMIT, QUEUE, QUEUE, SHED, SHED, SHED, SHED]
        assert registry.counter("repro.admission.admitted").value == 2
        assert registry.counter("repro.admission.queued").value == 2
        assert registry.counter("repro.admission.shed").value == 4

    def test_sheds_carry_retry_after(self):
        ctrl = _controller()
        decisions = ctrl.admit_batch([0.0] * 8, ["default"] * 8)
        for d in decisions:
            if d.outcome == SHED:
                assert d.retry_after > 0
            else:
                assert d.retry_after == 0.0

    def test_queued_wait_is_bounded(self):
        ctrl = _controller()
        decisions = ctrl.admit_batch([0.0] * 8, ["default"] * 8)
        for d in decisions:
            if d.outcome == QUEUE:
                assert 0 < d.queue_wait <= 2.0
                assert d.start_at == pytest.approx(d.arrival + d.queue_wait)

    def test_spaced_arrivals_all_admit(self):
        ctrl = _controller()
        arrivals = [i * 1.0 for i in range(8)]  # 1/s against a 2/s quota
        decisions = ctrl.admit_batch(arrivals, ["default"] * 8)
        assert all(d.outcome == ADMIT for d in decisions)

    def test_deterministic_decision_vector(self):
        arrivals = [i * 0.05 for i in range(32)]
        a = _controller().admit_batch(arrivals, ["default"] * 32)
        b = _controller().admit_batch(arrivals, ["default"] * 32)
        assert a == b

    def test_admit_one_sheds_with_retry_after(self):
        ctrl = _controller()
        registry = MetricsRegistry()
        ctrl.admit_one(now=0.0, registry=registry)
        ctrl.admit_one(now=0.0, registry=registry)
        with pytest.raises(OverloadedError) as exc_info:
            ctrl.admit_one(now=0.0, registry=registry)
        assert exc_info.value.retry_after > 0
        assert registry.counter("repro.admission.shed").value == 1


# ------------------------------------------------------------------ AIMD
class TestAIMD:
    def test_overload_halves(self):
        aimd = AIMDController(min_limit=1, max_limit=8, decrease=0.5)
        assert aimd.limit == 8
        aimd.record_overload()
        assert aimd.limit == 4
        aimd.record_overload()
        assert aimd.limit == 2

    def test_floor(self):
        aimd = AIMDController(min_limit=2, max_limit=8)
        for _ in range(10):
            aimd.record_overload()
        assert aimd.limit == 2

    def test_window_of_successes_increases(self):
        aimd = AIMDController(min_limit=1, max_limit=8, window=3)
        aimd.record_overload()  # 8 -> 4
        for _ in range(2):
            aimd.record_success()
        assert aimd.limit == 4  # window not reached
        aimd.record_success()
        assert aimd.limit == 5

    def test_overload_resets_success_streak(self):
        aimd = AIMDController(min_limit=1, max_limit=8, window=2)
        aimd.record_overload()  # 8 -> 4
        aimd.record_success()
        aimd.record_overload()  # 4 -> 2, streak reset
        aimd.record_success()
        assert aimd.limit == 2

    def test_controller_observes_overload_signals(self):
        ctrl = _controller()
        assert ctrl.concurrency_limit == 16
        ctrl.observe_outcome(False, "DeadlineExceededError: too slow")
        assert ctrl.concurrency_limit == 8
        # A permanent pipeline error is not an overload signal.
        ctrl.observe_outcome(False, "ConfigurationError: bad mode")
        assert ctrl.concurrency_limit == 8


# ------------------------------------------------------------------ config
class TestAdmissionConfigValidation:
    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            AdmissionConfig(requests_per_second=0.0).validate()

    def test_concurrency_bounds_are_constants(self):
        aimd = _controller().aimd
        assert (aimd.min_limit, aimd.max_limit) == (1, 16)
        assert (aimd.increase, aimd.decrease, aimd.window) == (1.0, 0.5, 8)

    def test_default_is_disabled(self):
        assert ReproConfig().admission.enabled is False


# ------------------------------------------------------------------ service
@pytest.fixture(scope="module")
def overload_service_factory(bundle):
    def make(**overrides) -> ReproService:
        cfg = ReproConfig(iterations_per_token=0)
        defaults = dict(
            enabled=True,
            requests_per_second=4.0,
            burst=4,
            queue_depth=4,
            queue_timeout_seconds=1.0,
        )
        defaults.update(overrides)
        cfg.admission = AdmissionConfig(**defaults)
        return open_service(cfg, bundle=bundle)

    return make


def _burst(n: int, *, factor: int = 16, rate: float = 4.0):
    questions = [f"How do I configure KSP solver option {i}?" for i in range(n)]
    arrivals = [i / (factor * rate) for i in range(n)]
    return questions, arrivals


class TestEngineAdmission:
    def test_disabled_by_default(self, bundle, fast_config):
        assert open_service(fast_config, bundle=bundle).admission is None

    def test_burst_sheds_without_exceptions(self, overload_service_factory):
        service = overload_service_factory()
        questions, arrivals = _burst(32)
        batch = service.answer_many(questions, seed=7, arrivals=arrivals)
        assert batch.shed_count > 0
        assert batch.answered_count == batch.admitted_count
        assert batch.answered_count + batch.shed_count == len(questions)
        for it in batch.items:
            if it.shed:
                assert it.result is None
                assert it.retry_after > 0
                assert "OverloadedError" in it.error

    def test_burst_is_deterministic_across_workers(self, overload_service_factory):
        questions, arrivals = _burst(32)
        digests = []
        for workers in (1, 4):
            service = overload_service_factory()
            registry = MetricsRegistry()
            with use_registry(registry):
                batch = service.answer_many(
                    questions, seed=7, arrivals=arrivals, workers=workers
                )
            digests.append(
                (batch.answers_digest(), batch.span_digest(), registry.digest())
            )
        assert digests[0] == digests[1]

    def test_shed_items_have_admission_trace(self, overload_service_factory):
        service = overload_service_factory()
        questions, arrivals = _burst(32)
        batch = service.answer_many(questions, seed=7, arrivals=arrivals)
        shed = [it for it in batch.items if it.shed]
        assert shed
        for it in shed:
            trace = it.trace_or_result_trace()
            assert trace is not None
            assert trace.validate() == []
            assert "admission:shed" in [e.name for span in trace.spans() for e in span.events]

    def test_queued_items_get_span_event(self, overload_service_factory):
        service = overload_service_factory()
        questions, arrivals = _burst(32)
        batch = service.answer_many(questions, seed=7, arrivals=arrivals)
        assert batch.decisions is not None
        queued = [d for d in batch.decisions if d.outcome == QUEUE]
        assert queued
        for d in queued:
            trace = batch.items[d.index].trace_or_result_trace()
            assert trace is not None
            assert trace.validate() == []
            assert "admission:queued" in [e.name for span in trace.spans() for e in span.events]

    def test_spaced_arrivals_answer_everything(self, overload_service_factory):
        service = overload_service_factory()
        questions = [f"What does KSPSolve option {i} do?" for i in range(8)]
        arrivals = [i * 0.5 for i in range(8)]  # 2/s against a 4/s quota
        batch = service.answer_many(questions, seed=7, arrivals=arrivals)
        assert batch.shed_count == 0
        assert batch.answered_count == len(questions)

    def test_sequential_answer_sheds_when_over_quota(self, overload_service_factory):
        # A glacial refill rate so real time between calls can't refill.
        service = overload_service_factory(requests_per_second=0.001, burst=2)
        service.answer("What is KSP?")
        service.answer("What is PC?")
        with pytest.raises(OverloadedError) as exc_info:
            service.answer("What is SNES?")
        assert exc_info.value.retry_after > 0

    def test_aimd_narrows_worker_pool_metric(self, overload_service_factory):
        service = overload_service_factory()
        questions, arrivals = _burst(16)
        registry = MetricsRegistry()
        with use_registry(registry):
            service.answer_many(questions, seed=7, arrivals=arrivals)
        assert registry.gauge("repro.admission.concurrency_limit").value >= 1

    def test_arrival_length_mismatch_rejected(self, overload_service_factory):
        service = overload_service_factory()
        with pytest.raises(ConfigurationError):
            service.answer_many(["q1", "q2"], arrivals=[0.0])
        with pytest.raises(ConfigurationError):
            service.answer_many(["q1", "q2"], client_ids=["a"])

    def test_answer_and_answer_many_draw_on_one_controller(self, overload_service_factory):
        service = overload_service_factory(requests_per_second=0.001, burst=2)
        service.admission.clock = lambda: 0.0  # the batch's timeline
        batch = service.answer_many(["What is KSP?", "What is PC?"])
        assert batch.shed_count == 0 and batch.answered_count == 2
        with pytest.raises(OverloadedError) as exc_info:
            service.answer("What is SNES?")
        assert exc_info.value.retry_after > 0
