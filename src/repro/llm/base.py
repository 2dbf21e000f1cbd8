"""Chat model interface: messages, usage accounting, completions."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ModelError
from repro.llm.tokens import count_tokens

if TYPE_CHECKING:
    from repro.context import RequestContext

_VALID_ROLES = ("system", "user", "assistant")


@dataclass(frozen=True)
class ChatMessage:
    """One message in a chat conversation."""

    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in _VALID_ROLES:
            raise ModelError(f"invalid role {self.role!r}; expected one of {_VALID_ROLES}")


@dataclass
class TokenUsage:
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass
class CompletionResult:
    """The model's reply plus bookkeeping the history database stores."""

    text: str
    model: str
    usage: TokenUsage = field(default_factory=TokenUsage)
    latency_seconds: float = 0.0
    finish_reason: str = "stop"


class ChatModel(ABC):
    """A chat completion model."""

    name: str = "base"
    context_window: int = 128_000

    @abstractmethod
    def complete(
        self, messages: list[ChatMessage], *, ctx: "RequestContext | None" = None
    ) -> CompletionResult:
        """Generate a reply to the conversation.

        ``ctx`` is the request-scoped context; implementations may use
        it for deterministic per-request randomness or, in batched
        serving, to defer latency work to the batch coordinator.
        """

    def _check_messages(self, messages: list[ChatMessage]) -> int:
        """Validate the conversation; returns the prompt token count."""
        if not messages:
            raise ModelError("empty message list")
        if messages[-1].role == "assistant":
            raise ModelError("conversation must not end with an assistant message")
        prompt_tokens = sum(count_tokens(m.content) for m in messages)
        if prompt_tokens > self.context_window:
            raise ModelError(
                f"prompt of {prompt_tokens} tokens exceeds {self.name} context window "
                f"({self.context_window})"
            )
        return prompt_tokens
