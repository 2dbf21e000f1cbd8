"""Deterministic fault injection for chaos runs.

A :class:`FaultInjector` sits in front of any hop in the support stack —
the chat model, a retriever, a reranker, a webhook post, a mail
delivery — and, per call, either passes the call through or injects one
of three failure modes:

* ``transient`` — raises :class:`~repro.errors.TransientError`;
* ``latency``  — a latency spike, accounted (not slept) on the result;
* ``truncate`` — the LLM reply is cut short (``finish_reason="length"``).

Every decision is a pure function of ``(seed, site, call_index)`` via
:func:`repro.utils.rng.rng_for`, so the full fault schedule of a chaos
run is reproducible byte for byte — the property "RAG Without the Lag"
style debugging needs from a harness.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, TypeVar

from repro.errors import ConfigurationError, SimulatedCrashError, TransientError
from repro.llm.base import ChatMessage, ChatModel, CompletionResult
from repro.observability.metrics import get_registry
from repro.rerank.base import Reranker, RerankResult
from repro.retrieval.base import RetrievedDocument, Retriever
from repro.utils.rng import rng_for

if TYPE_CHECKING:
    from repro.context import RequestContext
    from repro.utils.textproc import QuestionReading

T = TypeVar("T")

_FAULT_NS = "fault-injector"

OK = "ok"
TRANSIENT = "transient"
LATENCY = "latency"
TRUNCATE = "truncate"


@dataclass(frozen=True)
class FaultConfig:
    """Per-call injection rates; the three rates must sum to <= 1.

    ``shard_fault_rate`` is a separate site class: the transient-failure
    rate applied at per-shard store sites (``shard:3``) by
    :meth:`FaultInjector.wrap_store`, independent of the hop-rate trio.
    """

    transient_rate: float = 0.0
    latency_spike_rate: float = 0.0
    truncation_rate: float = 0.0
    latency_spike_seconds: float = 0.75
    shard_fault_rate: float = 0.0

    def __post_init__(self) -> None:
        for label, rate in (
            ("transient_rate", self.transient_rate),
            ("latency_spike_rate", self.latency_spike_rate),
            ("truncation_rate", self.truncation_rate),
            ("shard_fault_rate", self.shard_fault_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{label} must be in [0, 1], got {rate}")
        total = self.transient_rate + self.latency_spike_rate + self.truncation_rate
        if total > 1.0:
            raise ConfigurationError(f"fault rates must sum to <= 1, got {total}")
        if self.latency_spike_seconds < 0:
            raise ConfigurationError(
                f"latency_spike_seconds must be >= 0, got {self.latency_spike_seconds}"
            )


@dataclass(frozen=True)
class FaultEvent:
    """One injection decision, in the order it was made at its site."""

    site: str
    call_index: int
    kind: str


class FaultInjector:
    """Seeded chaos source; wraps hops and records every decision."""

    def __init__(self, seed: int, config: FaultConfig) -> None:
        self.seed = seed
        self.config = config
        self._counters: dict[str, int] = {}
        self._events: list[FaultEvent] = []

    # ------------------------------------------------------------ decisions
    def decide(self, site: str, *, rates: FaultConfig | None = None) -> str:
        """The fault kind for the next call at ``site`` (deterministic).

        ``rates`` overrides the rate table for this call (per-shard
        store sites fault at ``shard_fault_rate``, not the hop trio);
        the draw, counter, and recorded schedule are shared either way.
        """
        n = self._counters.get(site, 0)
        self._counters[site] = n + 1
        u = float(rng_for(_FAULT_NS, self.seed, site, n).random())
        c = rates if rates is not None else self.config
        if u < c.transient_rate:
            kind = TRANSIENT
        elif u < c.transient_rate + c.latency_spike_rate:
            kind = LATENCY
        elif u < c.transient_rate + c.latency_spike_rate + c.truncation_rate:
            kind = TRUNCATE
        else:
            kind = OK
        self._events.append(FaultEvent(site=site, call_index=n, kind=kind))
        if kind != OK:
            get_registry().counter(f"repro.resilience.faults_{kind}").inc()
        return kind

    def _maybe_raise(self, site: str, *, rates: FaultConfig | None = None) -> str:
        kind = self.decide(site, rates=rates)
        if kind == TRANSIENT:
            n = self._counters[site] - 1
            raise TransientError(f"injected transient fault at {site!r} (call {n})")
        return kind

    # ------------------------------------------------------------ schedule
    def schedule(self) -> list[FaultEvent]:
        """Every decision made so far, in order."""
        return list(self._events)

    def schedule_digest(self) -> str:
        """SHA-256 over the canonical JSON schedule — byte-identical across
        runs with the same seed, config, and call pattern."""
        payload = json.dumps(
            [[e.site, e.call_index, e.kind] for e in self._events],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def fault_counts(self) -> dict[str, int]:
        counts = {OK: 0, TRANSIENT: 0, LATENCY: 0, TRUNCATE: 0}
        for e in self._events:
            counts[e.kind] += 1
        return counts

    # ------------------------------------------------------------ wrappers
    def wrap_callable(self, site: str, fn: Callable[..., T]) -> Callable[..., T]:
        """Chaos-wrap a plain callable hop (webhook post, mail delivery)."""

        def wrapped(*args, **kwargs):
            self._maybe_raise(site)
            return fn(*args, **kwargs)

        return wrapped

    def wrap_model(self, model: ChatModel, *, site: str = "llm") -> "FaultyChatModel":
        return FaultyChatModel(model, injector=self, site=site)

    def wrap_retriever(self, retriever: Retriever, *, site: str = "retriever") -> "FaultyRetriever":
        return FaultyRetriever(retriever, injector=self, site=site)

    def wrap_reranker(self, reranker: Reranker, *, site: str = "reranker") -> "FaultyReranker":
        return FaultyReranker(reranker, injector=self, site=site)

    def wrap_store(
        self, store, *, site: str, transient_rate: float | None = None
    ) -> "FaultyVectorStore":
        """Chaos-wrap a shard store at a per-shard site like ``shard:3``.

        Store faults are transient-only (a dead copy either answers or
        it does not) and fault at ``transient_rate`` when given, else
        ``config.shard_fault_rate`` — so shard outages join the seeded
        schedule/digest machinery without disturbing the hop-rate trio.
        """
        rate = (
            transient_rate
            if transient_rate is not None
            else self.config.shard_fault_rate
        )
        return FaultyVectorStore(
            store,
            injector=self,
            site=site,
            rates=FaultConfig(transient_rate=rate),
        )


class CrashPointInjector:
    """Simulated process death at named crash points.

    ``points`` is a set of ``(site, call_index)`` pairs; the injector
    counts calls per site and raises :class:`SimulatedCrashError` when a
    scheduled point is reached, *before* the guarded operation runs —
    the disk is left exactly as a real crash there would leave it.
    Duck-typed against :class:`repro.durability.atomic.CrashHook`, so the
    durability layer stays below the resilience layer.
    """

    def __init__(self, points: "set[tuple[str, int]] | list[tuple[str, int]]") -> None:
        self.points = set(points)
        self.fired: list[tuple[str, int]] = []
        self._counters: dict[str, int] = {}

    def check(self, site: str) -> None:
        n = self._counters.get(site, 0)
        self._counters[site] = n + 1
        if (site, n) in self.points:
            self.fired.append((site, n))
            get_registry().counter("repro.resilience.crash_points").inc()
            raise SimulatedCrashError(
                f"simulated crash at {site!r} (call {n})"
            )


class TornWriteInjector:
    """Cut one journal frame short mid-write, then "crash".

    The ``record_index``-th append writes only the first ``cut_at``
    bytes of its frame before the simulated process death — exactly the
    state a power loss mid-write leaves behind, which is what
    :func:`repro.durability.recover_journal` must recover from.
    Duck-typed against :class:`repro.durability.journal.TornWriteHook`.
    """

    def __init__(self, *, record_index: int, cut_at: int) -> None:
        if record_index < 0:
            raise ConfigurationError(
                f"record_index must be >= 0, got {record_index}"
            )
        if cut_at < 0:
            raise ConfigurationError(f"cut_at must be >= 0, got {cut_at}")
        self.record_index = record_index
        self.cut_at = cut_at
        self.fired = False
        self._n = 0

    def intercept(self, frame: bytes) -> tuple[bytes, bool]:
        i = self._n
        self._n += 1
        if i == self.record_index:
            self.fired = True
            get_registry().counter("repro.resilience.torn_writes").inc()
            return frame[: min(self.cut_at, len(frame))], True
        return frame, False


class FaultyChatModel(ChatModel):
    """A chat model behind a flaky transport."""

    def __init__(self, inner: ChatModel, *, injector: FaultInjector, site: str = "llm") -> None:
        self.inner = inner
        self.injector = injector
        self.site = site
        self.name = inner.name
        self.context_window = inner.context_window

    def complete(
        self, messages: list[ChatMessage], *, ctx: "RequestContext | None" = None
    ) -> CompletionResult:
        kind = self.injector._maybe_raise(self.site)
        result = self.inner.complete(messages, ctx=ctx)
        if kind == LATENCY:
            # Accounted, not slept: the simulation books time explicitly.
            result.latency_seconds += self.injector.config.latency_spike_seconds
        elif kind == TRUNCATE and len(result.text) > 1:
            result.text = result.text[: max(1, len(result.text) // 2)].rstrip()
            result.finish_reason = "length"
        return result


class FaultyVectorStore:
    """A shard replica behind a flaky transport.

    The score probe is the whole surface: it is the one call the replica
    walk makes, so one probe draws one ``(seed, site, call_index)`` step.
    The transport is all the wrapper adds: the data is the one shard
    store its siblings serve.
    """

    def __init__(
        self, inner, *, injector: FaultInjector, site: str, rates: FaultConfig
    ) -> None:
        self.inner = inner
        self.injector = injector
        self.site = site
        self._rates = rates

    def scores(self, qvec):
        self.injector._maybe_raise(self.site, rates=self._rates)
        return self.inner.scores(qvec)


class FaultyRetriever(Retriever):
    """A retriever behind a flaky transport."""

    def __init__(self, inner: Retriever, *, injector: FaultInjector, site: str = "retriever") -> None:
        self.inner = inner
        self.injector = injector
        self.site = site
        self.name = inner.name

    def retrieve(
        self, query: str, *, k: int = 8, ctx: "RequestContext | None" = None
    ) -> list[RetrievedDocument]:
        self.injector._maybe_raise(self.site)
        return self.inner.retrieve(query, k=k, ctx=ctx)


class FaultyReranker(Reranker):
    """A reranker behind a flaky transport."""

    def __init__(self, inner: Reranker, *, injector: FaultInjector, site: str = "reranker") -> None:
        self.inner = inner
        self.injector = injector
        self.site = site
        self.name = inner.name

    def score_pairs(self, query: str | QuestionReading, texts: list[str]) -> list[float]:
        return self.inner.score_pairs(query, texts)

    def rerank(
        self,
        query: str,
        candidates: list[RetrievedDocument],
        *,
        top_n: int = 4,
        min_score: float | None = None,
        ctx: "RequestContext | None" = None,
    ) -> list[RerankResult]:
        self.injector._maybe_raise(self.site)
        return self.inner.rerank(
            query, candidates, top_n=top_n, min_score=min_score, ctx=ctx
        )
