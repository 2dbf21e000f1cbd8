"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers embedding the assistant stack (e.g. a Discord bot process) can
catch a single base class at the integration boundary while tests can
assert on precise subclasses.

Transient-vs-permanent taxonomy
-------------------------------
Each class carries a ``retry_safe`` flag consumed by
:mod:`repro.resilience`: a *retry-safe* error models a transient hop
failure (network blip, rate limit, injected chaos fault) that a fresh
attempt may clear; everything else is *permanent* — deterministic
misuse or corrupted input that will fail identically on every retry.
Use :func:`is_retry_safe` rather than reading the attribute directly.
"""

from __future__ import annotations

from typing import ClassVar


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""

    #: Whether a retry loop may safely re-attempt the failed operation.
    #: Permanent by default; only transient hop failures opt in.
    retry_safe: ClassVar[bool] = False


class TransientError(ReproError):
    """A transient hop failure (timeout, rate limit, injected fault).

    The one branch of the hierarchy that is retry-safe: the same call
    may succeed on a fresh attempt, so :class:`repro.resilience.RetryPolicy`
    re-attempts it under backoff.
    """

    retry_safe = True


class OverloadedError(ReproError):
    """The admission layer shed a request: the serving stack is at capacity.

    Retry-safe in the transient sense — the same request may succeed once
    load subsides — but callers should honour :attr:`retry_after` (seconds)
    rather than re-attempting immediately, which would only deepen the
    overload the shed is protecting against.
    """

    retry_safe = True

    def __init__(self, message: str, *, retry_after: float = 0.0) -> None:
        super().__init__(message)
        #: Suggested backoff in seconds before the caller retries.
        self.retry_after = retry_after


class SimulatedCrashError(ReproError):
    """A durability fault injector simulated abrupt process death mid-write.

    Raised by crash-point and torn-write injectors after they have left
    the on-disk state exactly as a real crash would (partial frame, stale
    temp file).  Never retry-safe: the "process" is dead; recovery happens
    on the next start via :func:`repro.durability.recover_journal`.
    """


class DeadlineExceededError(ReproError):
    """A retry/deadline budget ran out before the operation succeeded.

    Permanent *for this invocation*: the budget is spent, so retrying
    inside the same call is pointless.
    """


class CircuitOpenError(ReproError):
    """A circuit breaker is open and rejected the call without trying it.

    Not retry-safe within a retry loop — the breaker stays open until
    its recovery timeout elapses, so immediate re-attempts only spin.
    Callers should degrade instead and let a later request probe.
    """


class ConfigurationError(ReproError):
    """A configuration object is inconsistent or out of range. Permanent."""


class CorpusError(ReproError):
    """The knowledge-base corpus is malformed or missing content."""


class DocumentError(ReproError):
    """A document could not be loaded, parsed, or split."""


class EmbeddingError(ReproError):
    """An embedding model was misused (bad input, unfitted model, ...)."""


class VectorStoreError(ReproError):
    """Vector-store level failure (dimension mismatch, unknown id, ...)."""


class PartialResultError(VectorStoreError):
    """A scatter-gather query could not reach every shard and the caller
    demanded full coverage (``ReplicationConfig.require_full_coverage``).

    Retry-safe: shard outages are transient by construction — the health
    tracker keeps probing downed replicas, so a later attempt may see the
    shard recover.  Callers that prefer availability over completeness
    should unset ``require_full_coverage`` and consume the degraded
    result's ``coverage`` instead.
    """

    retry_safe = True

    def __init__(
        self,
        message: str,
        *,
        coverage: float = 0.0,
        failed_shards: tuple[int, ...] = (),
    ) -> None:
        super().__init__(message)
        #: Fraction of shards that answered, in [0, 1).
        self.coverage = coverage
        #: Indices of the shards with no surviving replica.
        self.failed_shards = tuple(failed_shards)


class IndexBuildError(ReproError):
    """Index-artifact construction or cache loading failed.

    Permanent: a corrupt on-disk artifact or digest mismatch will not
    heal on retry — rebuild from the corpus instead.
    """


class RerankError(ReproError):
    """A reranker received invalid candidates or scoring failed. Permanent."""

    retry_safe = False


class ModelError(ReproError):
    """LLM-layer failure (unknown model, context overflow, bad message).

    Permanent: the same conversation will overflow/fail identically on a
    retry.  Flaky LLM transport is modelled as :class:`TransientError`.
    """

    retry_safe = False


class PromptError(ReproError):
    """A prompt template could not be rendered."""


class PostprocessError(ReproError):
    """Markdown/HTML postprocessing failed."""


class HistoryError(ReproError):
    """Interaction-history store misuse (duplicate ids, unknown scorer)."""


class MailError(ReproError):
    """Mailing-list / Gmail simulation failure. Permanent (API misuse)."""

    retry_safe = False


class DiscordSimError(ReproError):
    """Discord simulation failure (unknown channel, permission, ...).

    Permanent: unknown channels and missing permissions do not heal on
    retry.  A flaky webhook *transport* raises :class:`TransientError`.
    """

    retry_safe = False


class BotError(ReproError):
    """Bot-layer workflow failure (invalid command, bad button state)."""


class EvaluationError(ReproError):
    """Benchmark/grader failure (unknown question, invalid score)."""


class ObservabilityError(ReproError):
    """Tracing/metrics misuse (bad metric name, span outside a trace)."""


def is_retry_safe(exc: BaseException) -> bool:
    """Whether a retry loop may safely re-attempt after ``exc``.

    Only :class:`ReproError` subclasses that opted in via ``retry_safe``
    qualify; foreign exceptions (bugs, KeyboardInterrupt, ...) never do.
    """
    return isinstance(exc, ReproError) and type(exc).retry_safe
