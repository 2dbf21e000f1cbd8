"""The unified stage API: one instrumentation surface for every hop.

Every hop of the stack — pipeline stages, individual retrievers, the
reranker, LLM attempts, poller ticks, webhook posts — goes through
:class:`stage`, which in one shot:

* opens a span named ``name`` on the tracer (when one is active),
* counts the call on ``<metric>.requests``,
* counts a raised exception on ``<metric>.failures``, and
* records the wall-clock duration into ``<metric>.duration_ms``.

Instrumenting a new hop is therefore one ``with stage(...)`` line, which
is what makes wiring twelve hops tractable: the span tree, the metric
names, and the failure accounting all come from the same place.
"""

from __future__ import annotations

import time

from repro.observability.metrics import MetricsRegistry, get_registry
from repro.observability.trace import Span, Tracer


class stage:
    """Instrument one hop; the ``with`` target is the open span (None
    without an active tracer).

    ``metric`` is the instrument prefix, e.g. ``repro.pipeline.locate``
    registers ``.requests`` / ``.failures`` counters and a
    ``.duration_ms`` histogram under it.  The registry is resolved, and
    ``.requests`` counted, at ``with`` entry; an escaping exception
    closes the span as ``error``, counts on ``.failures`` and propagates.
    """

    __slots__ = ("_name", "_metric", "_tracer", "_registry", "_attributes", "_span", "_start")

    def __init__(
        self,
        name: str,
        *,
        metric: str,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        **attributes: object,
    ) -> None:
        self._name = name
        self._metric = metric
        self._tracer = tracer
        self._registry = registry
        self._attributes = attributes

    def __enter__(self) -> Span | None:
        if self._registry is None:
            self._registry = get_registry()
        self._registry.counter(self._metric + ".requests").inc()
        self._start = time.perf_counter()
        tracer = self._tracer
        if tracer is not None and tracer._stack:
            self._span = tracer._push(self._name, self._attributes)
        else:
            self._span = None
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        registry = self._registry
        try:
            if self._span is not None:
                self._tracer._pop(self._span, exc)
        finally:
            if exc is not None:
                registry.counter(self._metric + ".failures").inc()
            registry.histogram(self._metric + ".duration_ms").observe(
                1000.0 * (time.perf_counter() - self._start)
            )
