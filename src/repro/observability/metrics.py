"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

Naming convention: ``repro.<subsystem>.<name>`` (lowercase segments,
underscores), enforced at registration.  Instruments are get-or-create,
so any component can grab its counter without wiring a registry through
every constructor — the default registry is process-wide, and tests or
CLI commands scope themselves with :func:`use_registry`.

Unit prices: a lookup of an existing instrument is one ``dict.get`` and
takes no lock (a single ``dict.get`` is atomic under the interpreter
lock).  The name check and the cross-kind guard run once, when the
instrument is created, under the registry lock — the only moment either
can fail, since a name that fails them is never stored.  Writes stay
under :data:`_write_lock`.

Determinism contract: counters, gauges, and histograms registered with
``deterministic=True`` hold values that are pure functions of the
workload and seed (call counts, token counts, attempt counts...).
Duration histograms are wall-clock and therefore *excluded* from
:meth:`MetricsRegistry.digest`, which is what lets two same-seed runs
produce byte-identical digests while still exporting real timings.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

from repro.errors import ObservabilityError

_NAME_RE = re.compile(r"repro(\.[a-z0-9_]+){2,}")

#: Default buckets for duration histograms, in milliseconds.
DEFAULT_MS_BUCKETS: tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0
)


def _check_name(name: str) -> None:
    # fullmatch: a ``$`` anchor would also accept a trailing newline.
    if not _NAME_RE.fullmatch(name):
        raise ObservabilityError(
            f"metric name {name!r} violates the repro.<subsystem>.<name> convention"
        )


#: One process-wide lock for instrument writes.  Increments are commutative,
#: so serializing them is enough for batch workers to share instruments
#: without losing updates; contention is negligible at our write rates.
_write_lock = threading.Lock()


class Counter:
    """A monotonically increasing integer.  Thread-safe."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ObservabilityError(f"counter {self.name} cannot decrease (inc {n})")
        with _write_lock:
            self.value += n


class Gauge:
    """A value that goes up and down (queue depth, breaker state)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        with _write_lock:
            self.value = float(value)

    def inc(self, delta: float = 1.0) -> None:
        with _write_lock:
            self.value += delta


class Histogram:
    """Fixed-bucket histogram (upper bounds, plus an overflow bucket)."""

    __slots__ = ("name", "buckets", "counts", "count", "total", "deterministic")

    def __init__(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_MS_BUCKETS,
        *,
        deterministic: bool = False,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ObservabilityError(f"histogram {name}: buckets must be ascending, non-empty")
        self.name = name
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(buckets) + 1)  # last = overflow
        self.count = 0
        self.total = 0.0
        self.deterministic = deterministic

    def observe(self, value: float) -> None:
        with _write_lock:
            self.counts[bisect_left(self.buckets, value)] += 1
            self.count += 1
            self.total += value

    def snapshot(self) -> dict:
        full = {
            "count": self.count,
            "sum": round(self.total, 9),
            "buckets": {
                (f"le_{b:g}" if i < len(self.buckets) else "inf"): c
                for i, (b, c) in enumerate(
                    zip(self.buckets + (float("inf"),), self.counts)
                )
            },
        }
        return full


_I = TypeVar("_I", Counter, Gauge, Histogram)


class MetricsRegistry:
    """Get-or-create instrument registry with deterministic digests."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------ registration
    def _create(self, name: str, kind: dict[str, _I], make: Callable[[str], _I]) -> _I:
        """Get-or-create ``name`` in ``kind`` under the lock: the one place
        a name is checked and the cross-kind guard runs."""
        with self._lock:
            found = kind.get(name)
            if found is None:
                _check_name(name)
                for other in (self._counters, self._gauges, self._histograms):
                    if other is not kind and name in other:
                        raise ObservabilityError(
                            f"metric {name!r} already registered as another type"
                        )
                found = kind[name] = make(name)
            return found

    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        return found if found is not None else self._create(name, self._counters, Counter)

    def gauge(self, name: str) -> Gauge:
        found = self._gauges.get(name)
        return found if found is not None else self._create(name, self._gauges, Gauge)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_MS_BUCKETS,
        *,
        deterministic: bool = False,
    ) -> Histogram:
        """``buckets`` and ``deterministic`` apply when the histogram is
        created; a lookup of an existing one ignores them."""
        found = self._histograms.get(name)
        if found is not None:
            return found
        return self._create(
            name,
            self._histograms,
            lambda n: Histogram(n, buckets, deterministic=deterministic),
        )

    # ------------------------------------------------------------ export
    def snapshot(self) -> dict:
        """Full export, wall-clock values included."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {**h.snapshot(), "deterministic": h.deterministic}
                for n, h in sorted(self._histograms.items())
            },
        }

    def deterministic_view(self) -> dict:
        """The seed-stable slice: full counters/gauges/deterministic
        histograms; duration histograms reduced to their sample count."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: (h.snapshot() if h.deterministic else {"count": h.count})
                for n, h in sorted(self._histograms.items())
            },
        }

    def digest(self) -> str:
        """SHA-256 over the deterministic view — byte-identical for two
        same-seed runs of the same workload."""
        payload = json.dumps(self.deterministic_view(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def render_text(self) -> str:
        """Human-readable dump, one instrument per line."""
        lines: list[str] = []
        for name, c in sorted(self._counters.items()):
            lines.append(f"{name:<44} counter    {c.value}")
        for name, g in sorted(self._gauges.items()):
            lines.append(f"{name:<44} gauge      {g.value:g}")
        for name, h in sorted(self._histograms.items()):
            mean = h.total / h.count if h.count else 0.0
            lines.append(
                f"{name:<44} histogram  count={h.count} mean={mean:.3f}"
                f"{' (deterministic)' if h.deterministic else ''}"
            )
        return "\n".join(lines) if lines else "(no metrics recorded)"


_default_registry = MetricsRegistry()
_local = threading.local()


def get_registry() -> MetricsRegistry:
    """The active registry: the innermost :func:`use_registry` scope, or
    the process-wide default."""
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else _default_registry


def set_registry(registry: MetricsRegistry) -> None:
    """Replace the process-wide default registry."""
    global _default_registry
    _default_registry = registry


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope all implicit metric lookups to ``registry`` (re-entrant)."""
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    stack.append(registry)
    try:
        yield registry
    finally:
        stack.pop()
