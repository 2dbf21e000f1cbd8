"""Configuration for the augmented PETSc LLM workflow.

:class:`ReproConfig` is the root: one dataclass holding the chat model,
the latency burn and the per-answer deadline, and nesting every
subsystem's knobs (retrieval, engine, admission, durability, sharding,
replication), with ``to_dict``/``from_dict`` round-tripping so the CLI,
tests, and embedders of the library stop threading separate config
objects.

A field exists because a caller turns it.  A value nothing sets lives
in exactly one place, beside its one reader: a class default (the retry
schedule of :class:`~repro.resilience.RetryPolicy`, the LLM breaker's
threshold and recovery window in
:class:`~repro.resilience.CircuitBreaker`) or a module constant (the
health walk's thresholds in :mod:`repro.replication.health`, the AIMD
limits in :mod:`repro.admission.controller`, the query-embedding LRU
size in :mod:`repro.engine.caches`).  ``from_dict`` rejects a removed
knob's key like any other unknown one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import get_args, get_type_hints

from repro.embeddings.registry import EMBEDDING_MODEL_NAMES
from repro.errors import ConfigurationError
from repro.llm.registry import CHAT_MODEL_NAMES


@dataclass
class RetrievalConfig:
    """First-pass retrieval + reranking parameters (paper Fig. 4)."""

    embedding_model: str = "petsc-embed-large"
    first_pass_k: int = 8
    final_l: int = 4
    use_keyword_search: bool = True
    reranker: str = "flashrank-lite"
    chunk_size: int = 800
    chunk_overlap: int = 120
    include_mail_archives: bool = False

    def validate(self) -> None:
        if self.embedding_model not in EMBEDDING_MODEL_NAMES:
            raise ConfigurationError(
                f"retrieval.embedding_model must be one of "
                f"{', '.join(EMBEDDING_MODEL_NAMES)}, got {self.embedding_model!r}"
            )
        if self.first_pass_k <= 0:
            raise ConfigurationError(f"first_pass_k must be positive, got {self.first_pass_k}")
        if not 0 < self.final_l <= self.first_pass_k:
            raise ConfigurationError(
                f"final_l must be in (0, first_pass_k], got {self.final_l} with K={self.first_pass_k}"
            )
        if self.reranker not in ("flashrank-lite", "nvidia-sim"):
            raise ConfigurationError(f"unknown reranker {self.reranker!r}")
        if self.chunk_size <= 0 or not 0 <= self.chunk_overlap < self.chunk_size:
            raise ConfigurationError(
                f"invalid chunking: size={self.chunk_size}, overlap={self.chunk_overlap}"
            )


@dataclass
class AdmissionConfig:
    """Overload protection for the serving stack: admit → queue → shed.

    Admission walks a ladder per request: a deterministic token bucket
    per client, all at ``requests_per_second``, admits what capacity
    allows; requests that would only wait a bounded time join a bounded
    queue; everything else is shed immediately with a typed
    :class:`~repro.errors.OverloadedError` carrying ``retry_after``.
    An AIMD controller narrows the batch worker pool when deadline
    misses or breaker trips rise and re-widens it on sustained success;
    its limits (1 to 16 workers) and steps are the class defaults of
    :class:`~repro.admission.controller.AIMDController`, not config.
    All decisions are pure functions of the (simulated) arrival times,
    so same-seed runs shed byte-identically.
    """

    enabled: bool = False
    #: Token-bucket refill rate per client, in requests per second.
    requests_per_second: float = 16.0
    #: Bucket capacity: the instantaneous burst a client may spend.
    burst: int = 32
    #: Requests allowed to wait for a future token before shedding starts.
    queue_depth: int = 64
    #: Longest simulated wait a queued request may face; beyond it, shed.
    queue_timeout_seconds: float = 4.0

    def validate(self) -> None:
        # Float bounds are written so that NaN fails them.
        if not self.requests_per_second > 0:
            raise ConfigurationError(
                f"requests_per_second must be positive, got {self.requests_per_second}"
            )
        if self.burst < 1:
            raise ConfigurationError(f"burst must be >= 1, got {self.burst}")
        if self.queue_depth < 0:
            raise ConfigurationError(f"queue_depth must be >= 0, got {self.queue_depth}")
        if not self.queue_timeout_seconds >= 0:
            raise ConfigurationError(
                f"queue_timeout_seconds must be >= 0, got {self.queue_timeout_seconds}"
            )


@dataclass
class DurabilityConfig:
    """Crash-safety knobs for every durable surface.

    Journaled state (interaction history, dead letters) goes through
    :mod:`repro.durability`'s CRC-checksummed append-only journal, and a
    surface opens on its journal one way, ``reopen_journal``: replay the
    intact prefix, truncate the torn tail, then append.  These flags
    tune cost vs. strictness; the atomicity itself is not optional.
    """

    #: fsync temp files and journal appends before acknowledging them.
    #: Turning this off trades power-loss safety for speed (tests, CI).
    fsync: bool = True
    #: When set, ``open_workflow`` (or ``open_support_system``) replays
    #: this journal into its interaction store, then journals every new
    #: record here; one live store per path (the journal is locked).
    history_journal: str | None = None
    #: When set, ``open_support_system`` replays this journal into the
    #: poller's dead-letter queue, then journals every queue mutation here.
    dead_letter_journal: str | None = None

    def validate(self) -> None:
        for label, path in (
            ("history_journal", self.history_journal),
            ("dead_letter_journal", self.dead_letter_journal),
        ):
            if path is not None and not str(path).strip():
                raise ConfigurationError(f"{label} must be a non-empty path or None")


@dataclass
class EngineConfig:
    """Query-engine parameters: caches and batch scheduling."""

    #: Entries kept per cache; 0 disables that cache entirely.
    answer_cache_size: int = 256
    retrieval_cache_size: int = 1024
    #: Default worker-pool width for :meth:`ReproService.answer_many`.
    batch_workers: int = 4
    #: Directory for on-disk index artifacts; None keeps them in memory only.
    index_cache_dir: str | None = None

    def validate(self) -> None:
        for label, size in (
            ("answer_cache_size", self.answer_cache_size),
            ("retrieval_cache_size", self.retrieval_cache_size),
        ):
            if size < 0:
                raise ConfigurationError(f"{label} must be >= 0, got {size}")
        if self.batch_workers <= 0:
            raise ConfigurationError(
                f"batch_workers must be positive, got {self.batch_workers}"
            )


@dataclass
class ShardingConfig:
    """Knowledge-base sharding: deterministic partition + scatter-gather.

    Documents are routed to shards by a stable hash of their source
    path, each shard builds (and disk-caches) its own
    :class:`~repro.index.IndexArtifact`, and retrieval fans out across
    shards and merges top-k with a deterministic ``(score, doc_id)``
    tie-break.  One shard is the default: the single-database
    deployment is the 1-shard case of the same path, not a separate one.
    """

    #: Number of index shards.
    num_shards: int = 1
    #: Worker-pool width for parallel per-shard index builds.
    build_workers: int = 4

    def validate(self) -> None:
        if self.num_shards < 1:
            raise ConfigurationError(
                f"sharding.num_shards must be >= 1, got {self.num_shards}"
            )
        if self.build_workers <= 0:
            raise ConfigurationError(
                f"build_workers must be positive, got {self.build_workers}"
            )


@dataclass
class ReplicationConfig:
    """Replicated shard serving: health tracking, failover, hedging.

    Each shard serves from ``replicas`` references to the same immutable
    shard store (what differs is the transport in front of each, which
    the fault seam can fail), tracked by a clock-free up → suspect →
    down health state machine fed by per-probe outcomes.  The scatter
    walks replicas in fixed order (primary first, then failover), so
    under any single-replica-per-shard fault schedule answers, metrics,
    and span digests match the healthy single-copy baseline
    byte-for-byte.  When every replica of a shard is down the merge
    degrades to the surviving shards — or raises
    :class:`~repro.errors.PartialResultError` when
    ``require_full_coverage`` is set.
    """

    #: Serving copies per shard; 1 = no replication (single copy).
    replicas: int = 1
    #: Probe the first backup alongside a *suspect* primary and use its
    #: result when the primary fails (``repro.replica.hedges`` /
    #: ``hedge_wins``).
    hedging: bool = False
    #: Raise :class:`~repro.errors.PartialResultError` instead of serving
    #: a partial merge when a whole shard is unreachable.
    require_full_coverage: bool = False

    def validate(self) -> None:
        if self.replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {self.replicas}")


@dataclass
class ReproConfig:
    """Root configuration nesting every subsystem's knobs.

    This is the single object the public API (:func:`repro.api.open_engine`)
    accepts; it round-trips through plain dicts via :meth:`to_dict` /
    :meth:`from_dict` so configs can live in JSON/TOML files or test
    parametrizations without touching the dataclass layer.
    """

    chat_model: str = "gpt-4o-sim"
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    durability: DurabilityConfig = field(default_factory=DurabilityConfig)
    sharding: ShardingConfig = field(default_factory=ShardingConfig)
    replication: ReplicationConfig = field(default_factory=ReplicationConfig)
    #: Latency-burn override for the simulated model; None keeps the
    #: persona default, 0 disables the burn (unit tests).
    iterations_per_token: int | None = None
    #: Per-answer wall-clock budget; None disables the deadline.
    deadline_seconds: float | None = None

    def validate(self) -> None:
        if self.chat_model not in CHAT_MODEL_NAMES:
            raise ConfigurationError(
                f"chat_model must be one of {', '.join(CHAT_MODEL_NAMES)}, "
                f"got {self.chat_model!r}"
            )
        if self.iterations_per_token is not None and self.iterations_per_token < 0:
            raise ConfigurationError(
                f"iterations_per_token must be None or >= 0, got {self.iterations_per_token}"
            )
        if self.deadline_seconds is not None and not self.deadline_seconds > 0:
            raise ConfigurationError(
                f"deadline_seconds must be positive, got {self.deadline_seconds}"
            )
        self.retrieval.validate()
        self.engine.validate()
        self.admission.validate()
        self.durability.validate()
        self.sharding.validate()
        self.replication.validate()

    def to_dict(self) -> dict:
        """Serialize to a plain nested dict (JSON-compatible)."""
        return _section_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ReproConfig":
        """Build a config from a (possibly partial) nested dict.

        Missing keys keep their defaults; unknown keys, values of the
        wrong type and out-of-range values raise
        :class:`~repro.errors.ConfigurationError` so typos do not pass
        silently.
        """
        config = _section_from_dict(cls, data, path="")
        config.validate()
        return config


def _section_to_dict(section) -> dict:
    out = {}
    for f in fields(section):
        value = getattr(section, f.name)
        out[f.name] = _section_to_dict(value) if is_dataclass(value) else value
    return out


def _section_from_dict(cls, data, *, path: str):
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"config section {path or 'root'!r} must be a mapping, got {type(data).__name__}"
        )
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigurationError(
            f"unknown config key(s) {unknown} in section {path or 'root'!r}"
        )
    hints = get_type_hints(cls)
    section = cls()
    for name, value in data.items():
        key = f"{path}.{name}" if path else name
        current = getattr(section, name)
        if is_dataclass(current):
            value = _section_from_dict(type(current), value, path=key)
        elif not _fits(value, hints[name]):
            raise ConfigurationError(f"{key} must be {known[name].type}, got {value!r}")
        setattr(section, name, value)
    return section


def _fits(value, hint) -> bool:
    """Whether ``value`` has the declared type: a ``bool`` is not an
    ``int``, and an ``int`` is a ``float``."""
    args = get_args(hint)
    if args:  # ``X | None``
        return any(_fits(value, arm) for arm in args)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)
