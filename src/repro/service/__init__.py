"""The request-lifecycle service layer (DESIGN.md §12).

One typed request/response pair, one composable interceptor chain
(``admission → dedupe → answer-cache → tracing → execute → record``),
one deterministic scheduler, one front door: :class:`ReproService`.
"""

from repro.service.interceptors import (
    CANONICAL_CHAIN,
    AdmissionInterceptor,
    AnswerCacheInterceptor,
    DedupeInterceptor,
    ExecuteInterceptor,
    Interceptor,
    RecordInterceptor,
    TracingInterceptor,
    default_chain,
    validate_chain,
)
from repro.service.lifecycle import (
    AnswerRequest,
    AnswerResponse,
    BatchResult,
    LifecycleState,
)
from repro.service.service import ReproService

__all__ = [
    "AdmissionInterceptor",
    "AnswerCacheInterceptor",
    "AnswerRequest",
    "AnswerResponse",
    "BatchResult",
    "CANONICAL_CHAIN",
    "DedupeInterceptor",
    "ExecuteInterceptor",
    "Interceptor",
    "LifecycleState",
    "RecordInterceptor",
    "ReproService",
    "TracingInterceptor",
    "default_chain",
    "validate_chain",
]
