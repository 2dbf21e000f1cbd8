"""Per-model "parametric knowledge": which facts a model knows unaided.

A hosted LLM knows some PETSc facts from pretraining and not others.
We model that as a deterministic pseudo-random subset of the fact
registry, drawn per (model, fact) pair from a stable hash, with the
subset size controlled by the model's ``knowledge_rate``.  Stronger
simulated models know more facts, weaker ones fewer — which is all the
evaluation needs to compare models the way the paper does.
"""

from __future__ import annotations

from functools import lru_cache

from repro.corpus.facts import Fact, FactRegistry
from repro.errors import ModelError
from repro.utils.rng import stable_hash

_HASH_SPACE = float(1 << 64)

#: (model, fact id) draws the process keeps; several times four models'
#: registries.
_DRAW_MEMO_SIZE = 4096


@lru_cache(maxsize=_DRAW_MEMO_SIZE)
def _draw(model_name: str, fact_id: str) -> float:
    """The model's uniform draw in [0, 1) for the fact id: a pure function
    of the pair, so every model of that name in the process — one per
    cache generation — hashes an id once, and a late fact or a re-bound
    id is judged like any other."""
    return stable_hash(f"{model_name}\x1f{fact_id}", namespace="knows") / _HASH_SPACE


class ParametricKnowledge:
    """Deterministic fact subset for a named model."""

    def __init__(
        self,
        registry: FactRegistry,
        *,
        model_name: str,
        knowledge_rate: float,
    ) -> None:
        if not 0.0 <= knowledge_rate <= 1.0:
            raise ModelError(f"knowledge_rate must be in [0, 1], got {knowledge_rate}")
        self.registry = registry
        self.model_name = model_name
        self.knowledge_rate = knowledge_rate

    def knows(self, fact_id: str) -> bool:
        """Whether this model 'remembers' the fact without retrieval."""
        return (
            fact_id in self.registry.facts
            and _draw(self.model_name, fact_id) < self.knowledge_rate
        )

    def known_facts(self) -> list[Fact]:
        name, rate = self.model_name, self.knowledge_rate
        return [f for fid, f in self.registry.facts.items() if _draw(name, fid) < rate]

    def coin(self, *context: str, p: float) -> bool:
        """A deterministic biased coin tied to this model and ``context``.

        Used for per-question behavioral choices (e.g. whether the model
        hallucinates when it lacks grounding) that must be reproducible.
        """
        if not 0.0 <= p <= 1.0:
            raise ModelError(f"probability must be in [0, 1], got {p}")
        h = stable_hash("\x1f".join((self.model_name, *context)), namespace="coin")
        return (h / _HASH_SPACE) < p
