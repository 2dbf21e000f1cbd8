"""Retry policy with deterministic exponential backoff, plus deadlines.

Backoff jitter is the classic thundering-herd decorrelator, but
wall-clock randomness would make chaos runs unreproducible.  Delays are
therefore derived from :func:`repro.utils.rng.rng_for` keyed by the
retried call — the *schedule* is a pure function of (policy, key), so
two runs of the same workload back off identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.errors import ConfigurationError, DeadlineExceededError, is_retry_safe
from repro.observability.metrics import get_registry
from repro.utils.rng import rng_for

T = TypeVar("T")

_BACKOFF_NS = "resilience-backoff"
#: Each retry waits this many times the one before, up to ``max_delay``.
_BACKOFF_MULTIPLIER = 2.0


class Deadline:
    """A wall-clock budget for one logical operation.

    The clock is injectable so tests (and the simulation) can drive time
    explicitly instead of sleeping.
    """

    def __init__(self, budget_seconds: float, *, clock: Callable[[], float] = time.monotonic) -> None:
        if not budget_seconds > 0:
            raise ConfigurationError(f"deadline budget must be positive, got {budget_seconds}")
        self._clock = clock
        self.budget_seconds = budget_seconds
        self._start = clock()

    def elapsed(self) -> float:
        return self._clock() - self._start

    def remaining(self) -> float:
        return self.budget_seconds - self.elapsed()

    def require(self, seconds: float = 0.0) -> None:
        """Raise unless at least ``seconds`` of budget remain."""
        if self.remaining() < seconds:
            raise DeadlineExceededError(
                f"deadline of {self.budget_seconds:.3f}s exceeded "
                f"(elapsed {self.elapsed():.3f}s, needed {seconds:.3f}s more)"
            )


@dataclass
class RetryOutcome:
    """What one resilient execution did, for surfacing in results."""

    value: object
    attempts: int
    backoff_total: float = 0.0
    errors: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff + deterministic jitter over ``max_attempts`` tries."""

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ConfigurationError(f"max_attempts must be positive, got {self.max_attempts}")
        if not 0 <= self.base_delay <= self.max_delay:
            raise ConfigurationError(
                f"invalid delay range: base={self.base_delay}, max={self.max_delay}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1), got {self.jitter}")

    # ------------------------------------------------------------ schedule
    def backoff_schedule(self, *key: str | int) -> list[float]:
        """The delays slept between attempts, deterministic in ``key``.

        ``len(schedule) == max_attempts - 1``: no delay after the final
        (failed) attempt.
        """
        rng = rng_for(_BACKOFF_NS, *key)
        delays: list[float] = []
        for attempt in range(self.max_attempts - 1):
            raw = min(self.max_delay, self.base_delay * _BACKOFF_MULTIPLIER**attempt)
            # Jitter scales the delay into [1-j, 1+j) of its nominal value.
            factor = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            delays.append(raw * factor)
        return delays

    # ------------------------------------------------------------ execution
    def execute(
        self,
        fn: Callable[[], T],
        *,
        key: tuple[str | int, ...] = ("default",),
        deadline: Deadline | None = None,
        sleep: Callable[[float], None] | None = None,
        classify: Callable[[BaseException], bool] = is_retry_safe,
    ) -> RetryOutcome:
        """Call ``fn`` until it succeeds, retrying retry-safe errors.

        ``sleep=None`` (the default) computes the backoff schedule but
        does not block — right for the simulation, where latency is
        accounted rather than endured.  Pass ``time.sleep`` to actually
        wait.  Non-retry-safe errors and exhaustion re-raise the last
        error; an exhausted ``deadline`` raises
        :class:`DeadlineExceededError` chained to it.
        """
        # Derived on the first retry: a pure function of the key, and a
        # call that succeeds at once never reads it.
        delays: list[float] | None = None
        backoff_total = 0.0
        errors: list[str] = []
        for attempt in range(1, self.max_attempts + 1):
            if deadline is not None:
                deadline.require()
            try:
                value = fn()
            except BaseException as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
                if not classify(exc) or attempt == self.max_attempts:
                    raise
                get_registry().counter("repro.resilience.retries").inc()
                if delays is None:
                    delays = self.backoff_schedule(*key)
                delay = delays[attempt - 1]
                if deadline is not None and deadline.remaining() < delay:
                    get_registry().counter("repro.resilience.deadline_exceeded").inc()
                    raise DeadlineExceededError(
                        f"deadline exhausted before retry {attempt + 1} "
                        f"(backoff {delay:.3f}s > remaining {deadline.remaining():.3f}s)"
                    ) from exc
                backoff_total += delay
                if sleep is not None:
                    sleep(delay)
            else:
                return RetryOutcome(
                    value=value, attempts=attempt, backoff_total=backoff_total, errors=errors
                )
        raise AssertionError("unreachable: loop either returns or raises")
