"""The admission ladder (admit → queue → shed) and AIMD concurrency control.

:class:`AdmissionController` is what the service talks to.  It owns the
per-client :class:`~repro.admission.limiter.RateLimiter`, the bounded
deadline-aware queue model, and the :class:`AIMDController` that sizes
the batch worker pool (1 to 16 workers).  Batch admission is a fold over
the requests in submission order — no wall clock, no thread state — so
the full decision vector is reproducible from the arrival times alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.admission.limiter import RateLimiter
from repro.config import AdmissionConfig
from repro.errors import OverloadedError
from repro.observability.metrics import MetricsRegistry, get_registry

ADMIT = "admit"
QUEUE = "queue"
SHED = "shed"

DEFAULT_CLIENT = "default"


@dataclass(frozen=True)
class AdmissionDecision:
    """One request's position on the ladder, in submission order."""

    index: int
    client: str
    arrival: float
    outcome: str  # ADMIT | QUEUE | SHED
    #: When the work may start: the arrival for admits, the reserved
    #: token's grant time for queued requests, meaningless for sheds.
    start_at: float
    #: Simulated seconds spent waiting in the queue (queued requests).
    queue_wait: float = 0.0
    #: Suggested client backoff in seconds (shed requests only).
    retry_after: float = 0.0


class AIMDController:
    """Additive-increase / multiplicative-decrease concurrency limit.

    TCP's congestion algorithm pointed at a worker pool: every overload
    signal (deadline miss, open breaker) multiplies the limit by
    ``decrease`` immediately; ``window`` consecutive successes add
    ``increase`` back.  The limit converges near the widest pool the
    downstream can actually sustain instead of a guessed constant.
    """

    def __init__(
        self,
        *,
        min_limit: int,
        max_limit: int,
        increase: float = 1.0,
        decrease: float = 0.5,
        window: int = 8,
    ) -> None:
        self.min_limit = min_limit
        self.max_limit = max_limit
        self.increase = increase
        self.decrease = decrease
        self.window = window
        self._limit = float(max_limit)
        self._successes = 0

    @property
    def limit(self) -> int:
        return max(self.min_limit, min(self.max_limit, int(self._limit)))

    def record_success(self, registry: MetricsRegistry | None = None) -> None:
        self._successes += 1
        if self._successes >= self.window and self._limit < self.max_limit:
            self._successes = 0
            self._limit = min(float(self.max_limit), self._limit + self.increase)
            (registry or get_registry()).counter(
                "repro.admission.aimd_increases"
            ).inc()

    def record_overload(self, registry: MetricsRegistry | None = None) -> None:
        self._successes = 0
        narrowed = max(float(self.min_limit), self._limit * self.decrease)
        if narrowed < self._limit:
            self._limit = narrowed
            (registry or get_registry()).counter(
                "repro.admission.aimd_decreases"
            ).inc()


#: Error substrings that count as overload signals for the AIMD loop.
_OVERLOAD_SIGNALS = ("DeadlineExceededError", "CircuitOpenError")


class AdmissionController:
    """Everything the service needs to protect its engine from callers."""

    def __init__(
        self,
        config: AdmissionConfig,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        config.validate()
        self.config = config
        self.clock = clock
        self.limiter = RateLimiter(
            rate_per_second=config.requests_per_second,
            burst=config.burst,
        )
        self.aimd = AIMDController(min_limit=1, max_limit=16)

    # ------------------------------------------------------------ sequential
    def admit_one(
        self,
        *,
        client: str = DEFAULT_CLIENT,
        now: float | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        """Admit or shed one sequential request (no queue: the caller is
        synchronous, so there is nothing to park it on).  Raises
        :class:`OverloadedError` with ``retry_after`` when shed."""
        reg = registry if registry is not None else get_registry()
        t = self.clock() if now is None else now
        if self.limiter.try_acquire(client, t):
            reg.counter("repro.admission.admitted").inc()
            return
        retry_after = max(0.0, self.limiter.next_free(client, t) - t)
        reg.counter("repro.admission.shed").inc()
        raise OverloadedError(
            f"client {client!r} is over quota; retry after {retry_after:.3f}s",
            retry_after=retry_after,
        )

    # ------------------------------------------------------------ batched
    def admit_batch(
        self,
        arrivals: list[float],
        clients: list[str],
        *,
        registry: MetricsRegistry | None = None,
    ) -> list[AdmissionDecision]:
        """Walk the ladder for a whole batch, in submission order.

        The queue is modelled on the simulated timeline: a queued request
        occupies a slot from its arrival until its reserved token's grant
        time, so occupancy at any arrival is a pure function of the
        earlier decisions.  No wall clock is consulted.
        """
        reg = registry if registry is not None else get_registry()
        cfg = self.config
        decisions: list[AdmissionDecision] = []
        pending_grants: list[float] = []  # grant times of queued, unstarted work
        for i, (t, client) in enumerate(zip(arrivals, clients)):
            t = float(t)
            # Queued requests whose grant has passed have left the queue.
            pending_grants = [g for g in pending_grants if g > t]
            if self.limiter.try_acquire(client, t):
                reg.counter("repro.admission.admitted").inc()
                decisions.append(
                    AdmissionDecision(
                        index=i, client=client, arrival=t, outcome=ADMIT, start_at=t
                    )
                )
                continue
            grant = self.limiter.next_free(client, t)
            wait = grant - t
            if wait <= cfg.queue_timeout_seconds and len(pending_grants) < cfg.queue_depth:
                grant = self.limiter.reserve(client, t)
                pending_grants.append(grant)
                reg.counter("repro.admission.queued").inc()
                # Simulated waits are workload-pure, so the histogram is
                # part of the deterministic digest.
                reg.histogram(
                    "repro.admission.queue_wait_ms", deterministic=True
                ).observe(round(1000.0 * (grant - t), 6))
                decisions.append(
                    AdmissionDecision(
                        index=i,
                        client=client,
                        arrival=t,
                        outcome=QUEUE,
                        start_at=grant,
                        queue_wait=grant - t,
                    )
                )
                continue
            reg.counter("repro.admission.shed").inc()
            decisions.append(
                AdmissionDecision(
                    index=i,
                    client=client,
                    arrival=t,
                    outcome=SHED,
                    start_at=t,
                    retry_after=wait,
                )
            )
        return decisions

    # ------------------------------------------------------------ feedback
    @property
    def concurrency_limit(self) -> int:
        return self.aimd.limit

    def observe_outcome(
        self,
        answered: bool,
        error: str,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        """Feed one served request's outcome to the AIMD loop.

        Only overload-shaped failures narrow the pool — a permanent
        pipeline error says nothing about concurrency pressure.
        """
        if answered:
            self.aimd.record_success(registry)
        elif any(sig in error for sig in _OVERLOAD_SIGNALS):
            self.aimd.record_overload(registry)
