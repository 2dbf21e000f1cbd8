"""Admission control: overload protection in the service's front door.

The ROADMAP's north star is serving heavy traffic; the failure mode that
actually kills such a service is not a slow request but *unbounded
acceptance* — every queue grows, every deadline blows, goodput collapses
to zero.  This package puts a deterministic admission ladder in
:class:`~repro.service.ReproService`, ahead of any engine work:

1. **admit** — a token bucket per client (one shared rate + burst)
   passes what capacity allows straight through;
2. **queue** — a request that only needs to wait a bounded time for a
   future token reserves it and joins a bounded, deadline-aware queue;
3. **shed** — everything else is rejected *immediately* with a typed
   :class:`~repro.errors.OverloadedError` carrying ``retry_after``,
   spending no downstream work on traffic that cannot be served.

An AIMD controller (additive increase, multiplicative decrease — TCP's
congestion algorithm applied to a worker pool) narrows batch concurrency
when deadline misses or breaker trips rise and re-widens it after
sustained success.

Every decision is a pure function of the request arrival times and the
config — the clock is injectable and batches carry explicit simulated
arrivals — so two same-seed runs admit, queue, and shed byte-identically,
which the overload benchmark's digest gate enforces in CI.
"""

from repro.admission.controller import (
    ADMIT,
    QUEUE,
    SHED,
    AdmissionController,
    AdmissionDecision,
    AIMDController,
)
from repro.admission.limiter import RateLimiter, TokenBucket

__all__ = [
    "ADMIT",
    "QUEUE",
    "SHED",
    "AIMDController",
    "AdmissionController",
    "AdmissionDecision",
    "RateLimiter",
    "TokenBucket",
]
