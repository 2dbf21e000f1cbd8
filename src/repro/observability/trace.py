"""Structured tracing: a span tree per pipeline invocation.

Each :class:`Span` covers one hop of the stack (``locate``, ``vector``,
``refine``, ``llm``, ``attempt``); resilience occurrences — degradation
rungs, retries, breaker transitions, injected faults — are recorded as
:class:`SpanEvent`\\ s on the span where they happened instead of opaque
strings.  The clock is injectable, so tests can drive time explicitly,
and :meth:`Trace.structure_digest` hashes only the *shape* of the tree
(names, events, statuses — never durations), which is what makes
same-seed runs byte-comparable while wall-clock timings stay real.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import ObservabilityError


@dataclass
class SpanEvent:
    """A point-in-time occurrence on a span (retry, degradation, error)."""

    name: str
    at: float
    attributes: dict[str, object] = field(default_factory=dict)


@dataclass
class Span:
    """One timed operation; children are sub-operations run inside it."""

    name: str
    start: float
    end: float | None = None
    status: str = "ok"  # "ok" | "error"
    attributes: dict[str, object] = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Elapsed seconds; 0.0 while the span is still open."""
        return 0.0 if self.end is None else self.end - self.start

    def add_event(self, name: str, *, at: float, **attributes: object) -> SpanEvent:
        event = SpanEvent(name=name, at=at, attributes=dict(attributes))
        self.events.append(event)
        return event

    def find(self, name: str) -> list["Span"]:
        """All descendant spans (including self) with ``name``, preorder."""
        out = [self] if self.name == name else []
        for child in self.children:
            out.extend(child.find(name))
        return out

    # ------------------------------------------------------------ serialization
    def to_dict(self, *, origin: float) -> dict:
        """JSON-friendly form with times relative to ``origin`` seconds."""
        return {
            "name": self.name,
            "start": round(self.start - origin, 6),
            "end": None if self.end is None else round(self.end - origin, 6),
            "status": self.status,
            "attributes": dict(self.attributes),
            "events": [
                {"name": e.name, "at": round(e.at - origin, 6), "attributes": dict(e.attributes)}
                for e in self.events
            ],
            "children": [c.to_dict(origin=origin) for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            name=data["name"],
            start=float(data["start"]),
            end=None if data.get("end") is None else float(data["end"]),
            status=data.get("status", "ok"),
            attributes=dict(data.get("attributes", {})),
            events=[
                SpanEvent(
                    name=e["name"], at=float(e["at"]), attributes=dict(e.get("attributes", {}))
                )
                for e in data.get("events", [])
            ],
            children=[cls.from_dict(c) for c in data.get("children", [])],
        )


class Trace:
    """The span tree of one pipeline invocation, rooted at ``pipeline``."""

    def __init__(self, root: Span) -> None:
        self.root = root

    # ------------------------------------------------------------ queries
    def spans(self) -> Iterator[Span]:
        """All spans, preorder."""
        stack = [self.root]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def find(self, name: str) -> list[Span]:
        return self.root.find(name)

    def stage_seconds(self, name: str) -> float:
        """Total duration of every span named ``name`` in the tree."""
        return sum(s.duration for s in self.find(name))

    def span_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans():
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    # ------------------------------------------------------------ determinism
    def _structure(self, span: Span) -> list:
        return [
            span.name,
            span.status,
            [e.name for e in span.events],
            [self._structure(c) for c in span.children],
        ]

    def structure_digest(self) -> str:
        """SHA-256 over the tree *shape* — names, statuses, event names,
        child order — with all timing excluded, so same-seed runs match."""
        payload = json.dumps(self._structure(self.root), separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    # ------------------------------------------------------------ well-formedness
    def validate(self) -> list[str]:
        """Structural violations (empty list = well-formed tree)."""
        problems: list[str] = []

        def check(span: Span) -> None:
            if span.end is None:
                problems.append(f"{span.name}: span never finished")
                return
            if span.end < span.start:
                problems.append(f"{span.name}: end {span.end} before start {span.start}")
            for e in span.events:
                if not span.start <= e.at <= span.end:
                    problems.append(f"{span.name}: event {e.name!r} outside span interval")
            prev: Span | None = None
            for child in span.children:
                if child.end is None:
                    problems.append(f"{child.name}: span never finished")
                    continue
                if child.start < span.start or child.end > span.end:
                    problems.append(f"{child.name}: child escapes parent {span.name}")
                if prev is not None and prev.end is not None and child.start < prev.end:
                    problems.append(
                        f"{child.name}: overlaps earlier sibling {prev.name} under {span.name}"
                    )
                prev = child
                check(child)

        check(self.root)
        return problems

    # ------------------------------------------------------------ serialization
    def to_dict(self) -> dict:
        return {"root": self.root.to_dict(origin=self.root.start)}

    @classmethod
    def from_dict(cls, data: dict) -> "Trace":
        return cls(root=Span.from_dict(data["root"]))

    # ------------------------------------------------------------ rendering
    def render(self) -> str:
        """ASCII span tree with millisecond durations and events."""
        lines: list[str] = []

        def attrs_of(span: Span) -> str:
            if not span.attributes:
                return ""
            inner = " ".join(f"{k}={v}" for k, v in span.attributes.items())
            return f"  [{inner}]"

        def walk(span: Span, prefix: str, branch: str, child_prefix: str) -> None:
            flag = "" if span.status == "ok" else " !error"
            lines.append(
                f"{prefix}{branch}{span.name}  {1000 * span.duration:.2f} ms"
                f"{flag}{attrs_of(span)}"
            )
            tail = list(span.events)
            for e in tail:
                marker = "•" if not e.name.startswith("error") else "✗"
                extra = (
                    " " + " ".join(f"{k}={v}" for k, v in e.attributes.items())
                    if e.attributes
                    else ""
                )
                lines.append(f"{child_prefix}{marker} {e.name}{extra}")
            for i, child in enumerate(span.children):
                last = i == len(span.children) - 1
                walk(
                    child,
                    child_prefix,
                    "└─ " if last else "├─ ",
                    child_prefix + ("   " if last else "│  "),
                )

        walk(self.root, "", "", "")
        return "\n".join(lines)


class Tracer:
    """Builds one span tree per :meth:`trace` context.

    The clock defaults to ``time.perf_counter`` but is injectable, so the
    span tree's *structure* is testable without real time passing.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._stack: list[Span] = []

    @property
    def active(self) -> bool:
        return bool(self._stack)

    def _push(self, name: str, attributes: dict[str, object]) -> Span:
        """Open a child span under the current span and make it current."""
        stack = self._stack
        if not stack:
            raise ObservabilityError(f"span {name!r} requires an active trace")
        span = Span(name=name, start=self.clock(), attributes=attributes)
        stack[-1].children.append(span)
        stack.append(span)
        return span

    def _pop(self, span: Span, exc: BaseException | None) -> None:
        """Close the current span ``span``; an escaping ``exc`` marks it
        ``error`` with an ``error:<Type>`` event.  The stack is popped
        whatever happens, so it stays balanced."""
        try:
            if exc is not None:
                span.status = "error"
                span.add_event(
                    f"error:{type(exc).__name__}",
                    at=self.clock(),
                    message=str(exc)[:200],
                )
            span.end = self.clock()
        finally:
            self._stack.pop()

    def trace(self, name: str = "pipeline", **attributes: object) -> _TraceScope:
        """Open a new root span; the ``with`` target is the :class:`Trace`
        being built.  Raises at ``with`` entry while a span is active."""
        return _TraceScope(self, name, attributes)

    def span(self, name: str, **attributes: object) -> _SpanScope:
        """Open a child span under the current span; the ``with`` target is
        the :class:`Span`.  Raises at ``with`` entry outside a trace."""
        return _SpanScope(self, name, attributes)

    def event(self, name: str, **attributes: object) -> None:
        """Record an event on the current span (no-op outside a trace)."""
        if self._stack:
            self._stack[-1].add_event(name, at=self.clock(), **attributes)


class _SpanScope:
    """``with tracer.span(...)``: a child span from entry to exit."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span")

    def __init__(self, tracer: Tracer, name: str, attributes: dict[str, object]) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> Span:
        self._span = self._tracer._push(self._name, self._attributes)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._pop(self._span, exc)


class _TraceScope:
    """``with tracer.trace(...)``: a root span from entry to exit."""

    __slots__ = ("_tracer", "_name", "_attributes", "_root")

    def __init__(self, tracer: Tracer, name: str, attributes: dict[str, object]) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> Trace:
        tracer = self._tracer
        if tracer._stack:
            raise ObservabilityError(
                f"cannot start trace {self._name!r}: "
                f"span {tracer._stack[-1].name!r} is active"
            )
        self._root = Span(name=self._name, start=tracer.clock(), attributes=self._attributes)
        tracer._stack.append(self._root)
        return Trace(self._root)

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._pop(self._root, exc)
