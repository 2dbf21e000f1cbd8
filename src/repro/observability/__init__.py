"""Observability: structured tracing + a deterministic metrics registry.

The measurement substrate under the pipeline stack:

* :class:`Tracer` / :class:`Trace` / :class:`Span` — every pipeline
  invocation produces a span tree (``pipeline`` → ``locate`` →
  vector/keyword children, ``refine``, ``llm`` → per-attempt children)
  carried on ``PipelineResult.trace`` and persisted in the interaction
  history.  Resilience occurrences are span *events*, not log strings.
* :class:`MetricsRegistry` — process-wide counters, gauges, and
  fixed-bucket histograms named ``repro.<subsystem>.<name>``, with a
  deterministic digest: same seed ⇒ byte-identical.
* :func:`stage` — the one instrumentation call every hop shares.
"""

from repro.observability.metrics import (
    DEFAULT_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from repro.observability.stage import stage
from repro.observability.trace import Span, SpanEvent, Trace, Tracer

__all__ = [
    "Counter",
    "DEFAULT_MS_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanEvent",
    "Trace",
    "Tracer",
    "get_registry",
    "set_registry",
    "stage",
    "use_registry",
]
