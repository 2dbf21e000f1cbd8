"""Unit and property tests for the resilience layer."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.config import ReproConfig
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    ModelError,
    ReproError,
    TransientError,
    is_retry_safe,
)
from repro.llm.base import ChatMessage, ChatModel, CompletionResult, TokenUsage
from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    Deadline,
    FaultConfig,
    FaultInjector,
    RetryPolicy,
)


class FakeClock:
    """Explicitly advanced monotonic clock for breaker/deadline tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------- taxonomy
class TestErrorTaxonomy:
    def test_transient_is_retry_safe(self):
        assert is_retry_safe(TransientError("blip"))

    @pytest.mark.parametrize(
        "exc",
        [
            ReproError("base"),
            ModelError("context overflow"),
            DeadlineExceededError("budget spent"),
            CircuitOpenError("open"),
            ConfigurationError("bad"),
        ],
    )
    def test_permanent_errors_are_not_retry_safe(self, exc):
        assert not is_retry_safe(exc)

    def test_foreign_exceptions_are_never_retry_safe(self):
        assert not is_retry_safe(ValueError("bug"))
        assert not is_retry_safe(KeyboardInterrupt())

    def test_all_errors_derive_from_repro_error(self):
        for cls in (TransientError, DeadlineExceededError, CircuitOpenError):
            assert issubclass(cls, ReproError)


# ---------------------------------------------------------------- retry policy
class TestRetryPolicy:
    @given(
        st.integers(min_value=2, max_value=8),
        st.text(alphabet="abcdefgh", min_size=1, max_size=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_backoff_schedule_deterministic_in_key(self, attempts, key):
        policy = RetryPolicy(max_attempts=attempts)
        assert policy.backoff_schedule(key) == policy.backoff_schedule(key)
        assert len(policy.backoff_schedule(key)) == attempts - 1

    @given(st.text(alphabet="abcdefgh", min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_backoff_delays_within_jitter_envelope(self, key):
        policy = RetryPolicy(
            max_attempts=6, base_delay=0.1, max_delay=1.0, jitter=0.25
        )
        for attempt, delay in enumerate(policy.backoff_schedule(key)):
            nominal = min(1.0, 0.1 * 2.0**attempt)
            assert nominal * 0.75 <= delay <= nominal * 1.25

    def test_different_keys_give_different_jitter(self):
        policy = RetryPolicy(max_attempts=5, jitter=0.25)
        assert policy.backoff_schedule("a") != policy.backoff_schedule("b")

    def test_execute_retries_transient_and_counts_attempts(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientError("blip")
            return "ok"

        outcome = RetryPolicy(max_attempts=4).execute(flaky, key=("t",))
        assert outcome.value == "ok"
        assert outcome.attempts == 3
        assert outcome.backoff_total > 0
        assert len(outcome.errors) == 2

    def test_execute_does_not_retry_permanent_errors(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ModelError("overflow")

        with pytest.raises(ModelError):
            RetryPolicy(max_attempts=4).execute(broken, key=("t",))
        assert calls["n"] == 1

    def test_execute_exhaustion_reraises_last_error(self):
        calls = {"n": 0}

        def always_flaky():
            calls["n"] += 1
            raise TransientError(f"blip {calls['n']}")

        with pytest.raises(TransientError, match="blip 3"):
            RetryPolicy(max_attempts=3).execute(always_flaky, key=("t",))
        assert calls["n"] == 3

    def test_execute_sleep_callback_gets_schedule_delays(self):
        slept: list[float] = []
        policy = RetryPolicy(max_attempts=3)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientError("blip")
            return "ok"

        policy.execute(flaky, key=("s",), sleep=slept.append)
        assert slept == policy.backoff_schedule("s")[:2]

    def test_schedule_is_derived_on_the_first_retry_only(self, monkeypatch):
        derived: list[tuple] = []
        schedule = RetryPolicy.backoff_schedule

        def counting(policy, *key):
            derived.append(key)
            return schedule(policy, *key)

        monkeypatch.setattr(RetryPolicy, "backoff_schedule", counting)
        policy = RetryPolicy(max_attempts=4)
        assert policy.execute(lambda: "ok", key=("h", 1)).backoff_total == 0.0
        assert derived == []  # a healthy call never reads it
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 4:
                raise TransientError("blip")
            return "ok"

        outcome = policy.execute(flaky, key=("h", 1))
        assert derived == [("h", 1)]  # once, however many retries
        assert outcome.backoff_total == sum(schedule(policy, "h", 1))

    def test_deadline_cuts_retry_loop(self):
        clock = FakeClock()
        deadline = Deadline(0.01, clock=clock)

        def always_flaky():
            clock.advance(0.004)
            raise TransientError("blip")

        with pytest.raises(DeadlineExceededError):
            RetryPolicy(max_attempts=10, base_delay=0.05).execute(
                always_flaky, key=("d",), deadline=deadline
            )

    def test_expired_deadline_rejects_before_first_attempt(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        with pytest.raises(DeadlineExceededError):
            RetryPolicy().execute(lambda: "never", key=("d",), deadline=deadline)

    def test_invalid_policies_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=1.0, max_delay=0.5)
        for delay in ({"base_delay": math.nan}, {"max_delay": math.nan}):
            with pytest.raises(ConfigurationError):
                RetryPolicy(**delay)


# ---------------------------------------------------------------- deadline
class TestDeadline:
    def test_budget_accounting(self):
        clock = FakeClock()
        d = Deadline(1.0, clock=clock)
        assert d.remaining() == pytest.approx(1.0)
        clock.advance(0.6)
        assert d.remaining() == pytest.approx(0.4)
        d.require(0.3)
        with pytest.raises(DeadlineExceededError):
            d.require(0.5)
        clock.advance(0.5)
        assert d.remaining() <= 0
        with pytest.raises(DeadlineExceededError):
            d.require()

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            Deadline(0.0)
        with pytest.raises(ConfigurationError):
            Deadline(math.nan)  # NaN fails no ``<= 0``: it would never expire


# ---------------------------------------------------------------- breaker
class TestCircuitBreaker:
    def _breaker(self, clock, **kw):
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("recovery_seconds", 10.0)
        return CircuitBreaker(clock=clock, **kw)

    def test_trips_open_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        br = self._breaker(clock)
        for _ in range(2):
            br.record_failure()
        assert br.state is BreakerState.CLOSED
        br.record_failure()
        assert br.state is BreakerState.OPEN
        assert br.times_opened == 1

    def test_success_resets_the_failure_streak(self):
        clock = FakeClock()
        br = self._breaker(clock)
        br.record_failure()
        br.record_failure()
        br.record_success()
        br.record_failure()
        br.record_failure()
        assert br.state is BreakerState.CLOSED

    def test_open_rejects_calls_fast(self):
        clock = FakeClock()
        br = self._breaker(clock)
        for _ in range(3):
            br.record_failure()
        with pytest.raises(CircuitOpenError):
            br.call(lambda: "never")
        assert br.calls_rejected == 1

    def test_half_open_after_recovery_then_probe_closes(self):
        clock = FakeClock()
        br = self._breaker(clock)
        for _ in range(3):
            br.record_failure()
        clock.advance(10.0)
        assert br.state is BreakerState.HALF_OPEN
        assert br.call(lambda: "probe") == "probe"
        assert br.state is BreakerState.CLOSED

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        br = self._breaker(clock)
        for _ in range(3):
            br.record_failure()
        clock.advance(10.0)
        with pytest.raises(TransientError):
            br.call(self._raise_transient)
        assert br.state is BreakerState.OPEN
        assert br.times_opened == 2

    @staticmethod
    def _raise_transient():
        raise TransientError("probe blip")

    def test_permanent_errors_do_not_trip_the_breaker(self):
        clock = FakeClock()
        br = self._breaker(clock, failure_threshold=1)

        def permanent():
            raise ModelError("overflow")

        for _ in range(5):
            with pytest.raises(ModelError):
                br.call(permanent)
        assert br.state is BreakerState.CLOSED

    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_state_machine_invariants(self, successes):
        """Whatever the outcome sequence, the breaker is never tripped
        while a success streak is live, and only OPEN rejects calls."""
        clock = FakeClock()
        br = self._breaker(clock, failure_threshold=3)
        streak = 0
        for ok in successes:
            state = br.state
            assert state in (BreakerState.CLOSED, BreakerState.OPEN, BreakerState.HALF_OPEN)
            if state is BreakerState.OPEN:
                with pytest.raises(CircuitOpenError):
                    br.allow()
                clock.advance(10.0)  # wait out the recovery window
                continue
            if ok:
                br.record_success()
                streak += 1
            else:
                br.record_failure()
                streak = 0
            if streak > 0 and state is not BreakerState.HALF_OPEN:
                assert br.state is not BreakerState.OPEN


# ---------------------------------------------------------------- fault injector
class _EchoModel(ChatModel):
    name = "echo"

    def complete(self, messages: list[ChatMessage], *, ctx=None) -> CompletionResult:
        self._check_messages(messages)
        return CompletionResult(
            text=messages[-1].content, model=self.name, usage=TokenUsage(1, 1)
        )


class TestFaultInjector:
    def test_decisions_deterministic_in_seed(self):
        cfg = FaultConfig(transient_rate=0.3, latency_spike_rate=0.2, truncation_rate=0.1)
        a = FaultInjector(7, cfg)
        b = FaultInjector(7, cfg)
        decisions_a = [a.decide("llm") for _ in range(200)]
        decisions_b = [b.decide("llm") for _ in range(200)]
        assert decisions_a == decisions_b
        assert a.schedule_digest() == b.schedule_digest()

        c = FaultInjector(8, cfg)
        assert [c.decide("llm") for _ in range(200)] != decisions_a

    def test_rates_roughly_respected(self):
        inj = FaultInjector(1, FaultConfig(transient_rate=0.25))
        kinds = [inj.decide("site") for _ in range(2000)]
        rate = kinds.count("transient") / len(kinds)
        assert 0.2 < rate < 0.3

    def test_zero_rates_never_inject(self):
        inj = FaultInjector(1, FaultConfig())
        assert all(inj.decide("s") == "ok" for _ in range(100))
        assert inj.fault_counts()["transient"] == 0

    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(transient_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultConfig(transient_rate=0.6, latency_spike_rate=0.6)

    def test_wrapped_model_raises_transient(self):
        inj = FaultInjector(0, FaultConfig(transient_rate=1.0))
        model = inj.wrap_model(_EchoModel())
        with pytest.raises(TransientError):
            model.complete([ChatMessage(role="user", content="hi")])

    def test_wrapped_model_truncates(self):
        inj = FaultInjector(0, FaultConfig(truncation_rate=1.0))
        model = inj.wrap_model(_EchoModel())
        result = model.complete([ChatMessage(role="user", content="a long enough reply")])
        assert result.finish_reason == "length"
        assert len(result.text) < len("a long enough reply")

    def test_wrapped_model_latency_spike_accounted(self):
        inj = FaultInjector(
            0, FaultConfig(latency_spike_rate=1.0, latency_spike_seconds=0.5)
        )
        model = inj.wrap_model(_EchoModel())
        result = model.complete([ChatMessage(role="user", content="hi")])
        assert result.latency_seconds >= 0.5

    def test_wrap_callable_passes_through_and_injects(self):
        inj = FaultInjector(0, FaultConfig(transient_rate=1.0))
        post = inj.wrap_callable("webhook", lambda payload: payload.upper())
        with pytest.raises(TransientError):
            post("hello")
        clean = FaultInjector(0, FaultConfig())
        post = clean.wrap_callable("webhook", lambda payload: payload.upper())
        assert post("hello") == "HELLO"


# ---------------------------------------------------------------- config
class TestResilienceConfig:
    def test_defaults_validate(self):
        ReproConfig().validate()

    @pytest.mark.parametrize(
        "kw",
        [
            (RetryPolicy, {"max_attempts": 0}),
            (RetryPolicy, {"jitter": 1.0}),
            (RetryPolicy, {"base_delay": 2.0, "max_delay": 1.0}),
            (RetryPolicy, {"base_delay": -1.0}),
            (ReproConfig, {"deadline_seconds": 0.0}),
            (CircuitBreaker, {"failure_threshold": 0}),
            (CircuitBreaker, {"recovery_seconds": -1.0}),
            (CircuitBreaker, {"recovery_seconds": math.nan}),
        ],
    )
    def test_invalid_values_rejected(self, kw):
        # Each check lives on the one constructor that keeps the value.
        make, kwargs = kw
        with pytest.raises(ConfigurationError):
            made = make(**kwargs)
            made.validate()  # only a ReproConfig gets here: the others check when built

    def test_deadline_fails_every_request_at_the_front_door(self, bundle):
        # A budget no ask can meet, with the burn off: the service raises
        # the typed error for one request and records it per batch item.
        cfg = ReproConfig(iterations_per_token=0, deadline_seconds=1e-9)
        service = repro.open_service(cfg, bundle=bundle)
        with pytest.raises(DeadlineExceededError):
            service.answer("What does KSPSolve do?")
        batch = service.answer_many(["What is DMDA?", "What does KSPSolve do?", "What is DMDA?"])
        assert batch.answered_count == 0
        assert all(it.error.startswith("DeadlineExceededError:") for it in batch.items)
