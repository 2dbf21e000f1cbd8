"""Circuit breaker: stop hammering a hop that is failing hard.

Classic closed → open → half-open state machine.  The clock is
injectable (``time.monotonic`` by default) so the state machine can be
driven deterministically in tests and chaos runs — no sleeping to wait
out a recovery window.
"""

from __future__ import annotations

import enum
import time
from typing import Callable, TypeVar

from repro.errors import CircuitOpenError, ConfigurationError, is_retry_safe
from repro.observability.metrics import get_registry

T = TypeVar("T")


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Trips open after ``failure_threshold`` consecutive failures.

    While open, calls fail fast with :class:`CircuitOpenError` (no load
    reaches the protected hop).  After ``recovery_seconds`` the breaker
    goes half-open and admits probe calls; one probe success closes it,
    any probe failure re-opens it.

    Only retry-safe (transient) errors count toward tripping: a
    permanent error like a context overflow says nothing about the
    health of the hop.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 8,
        recovery_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        name: str = "breaker",
    ) -> None:
        if failure_threshold <= 0:
            raise ConfigurationError(f"failure_threshold must be positive, got {failure_threshold}")
        if not recovery_seconds >= 0:
            raise ConfigurationError(f"recovery_seconds must be >= 0, got {recovery_seconds}")
        self.name = name
        self.failure_threshold = failure_threshold
        self.recovery_seconds = recovery_seconds
        self._clock = clock
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        # Lifetime counters, surfaced by chaos reports.
        self.calls_allowed = 0
        self.calls_rejected = 0
        self.times_opened = 0

    # ------------------------------------------------------------ state
    @property
    def state(self) -> BreakerState:
        if (
            self._state is BreakerState.OPEN
            and self._clock() - self._opened_at >= self.recovery_seconds
        ):
            self._state = BreakerState.HALF_OPEN
        return self._state

    def allow(self) -> None:
        """Admit or reject one call; raises :class:`CircuitOpenError` if open."""
        if self.state is BreakerState.OPEN:
            self.calls_rejected += 1
            get_registry().counter("repro.resilience.breaker_rejections").inc()
            remaining = self.recovery_seconds - (self._clock() - self._opened_at)
            raise CircuitOpenError(
                f"circuit {self.name!r} is open ({self._consecutive_failures} consecutive "
                f"failures); retry in {max(0.0, remaining):.3f}s"
            )
        self.calls_allowed += 1

    def record_success(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._state = BreakerState.CLOSED
        self._consecutive_failures = 0

    def record_failure(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._trip()
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = self._clock()
        self.times_opened += 1
        get_registry().counter("repro.resilience.breaker_opened").inc()

    # ------------------------------------------------------------ calls
    def call(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` under the breaker, updating state from its outcome."""
        self.allow()
        try:
            result = fn()
        except BaseException as exc:
            if is_retry_safe(exc):
                self.record_failure()
            raise
        self.record_success()
        return result
