"""Deterministic token buckets, one per client at a shared rate.

A classic token bucket, with one twist for reproducibility: it never
reads a clock.  Every operation takes ``now`` explicitly, so the bucket
is a pure state machine over the caller's timeline — real ``monotonic``
readings in production, simulated arrival offsets in batches, tests,
and benchmarks.  Same arrivals in, same decisions out, byte for byte.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class TokenBucket:
    """Refill at ``rate`` tokens/second up to ``burst``; spend one per request.

    Time only moves forward: the high-water mark of observed ``now``
    values is kept, and earlier timestamps see the bucket as it was at
    the mark (deterministic regardless of caller ordering).
    """

    __slots__ = ("rate", "burst", "_tokens", "_updated")

    def __init__(self, rate: float, burst: float) -> None:
        if not rate > 0:
            raise ConfigurationError(f"token rate must be positive, got {rate}")
        if burst < 1:
            raise ConfigurationError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)  # starts full: an idle service owes a burst
        self._updated = 0.0

    def available(self, now: float) -> float:
        """Token balance at ``now`` (without consuming anything)."""
        elapsed = max(0.0, now - self._updated)
        return min(self.burst, self._tokens + elapsed * self.rate)

    def try_acquire(self, now: float, tokens: float = 1.0) -> bool:
        """Spend ``tokens`` if the balance covers them."""
        balance = self.available(now)
        self._updated = max(self._updated, now)
        if balance >= tokens:
            self._tokens = balance - tokens
            return True
        self._tokens = balance
        return False

    def next_free(self, now: float, tokens: float = 1.0) -> float:
        """Earliest time at which ``tokens`` will be available."""
        balance = self.available(now)
        base = max(now, self._updated)
        if balance >= tokens:
            return base
        return base + (tokens - balance) / self.rate

    def reserve(self, now: float, tokens: float = 1.0) -> float:
        """Consume the *next* ``tokens`` even if the grant lies in the
        future; returns the grant time.  This is what queues a request:
        the token is spoken for, so later arrivals cannot steal it."""
        grant = self.next_free(now, tokens)
        balance = self.available(grant)
        self._tokens = balance - tokens
        self._updated = max(self._updated, grant)
        return grant


class RateLimiter:
    """Per-client token buckets at one shared rate.

    Buckets are created on first sight of a client id, each at
    ``rate_per_second``.  The ``default`` client is what the engine uses
    when callers don't identify themselves.
    """

    def __init__(
        self,
        *,
        rate_per_second: float,
        burst: int,
    ) -> None:
        if not rate_per_second > 0:
            raise ConfigurationError(
                f"rate_per_second must be positive, got {rate_per_second}"
            )
        if burst < 1:
            raise ConfigurationError(f"burst must be >= 1, got {burst}")
        self.rate_per_second = float(rate_per_second)
        self.burst = int(burst)
        self._buckets: dict[str, TokenBucket] = {}

    def bucket(self, client: str) -> TokenBucket:
        existing = self._buckets.get(client)
        if existing is None:
            existing = self._buckets[client] = TokenBucket(self.rate_per_second, self.burst)
        return existing

    def try_acquire(self, client: str, now: float) -> bool:
        return self.bucket(client).try_acquire(now)

    def next_free(self, client: str, now: float) -> float:
        return self.bucket(client).next_free(now)

    def reserve(self, client: str, now: float) -> float:
        return self.bucket(client).reserve(now)
