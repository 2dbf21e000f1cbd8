"""Per-model "parametric knowledge": which facts a model knows unaided.

A hosted LLM knows some PETSc facts from pretraining and not others.
We model that as a deterministic pseudo-random subset of the fact
registry, drawn per (model, fact) pair from a stable hash, with the
subset size controlled by the model's ``knowledge_rate``.  Stronger
simulated models know more facts, weaker ones fewer — which is all the
evaluation needs to compare models the way the paper does.
"""

from __future__ import annotations

from repro.corpus.facts import Fact, FactRegistry
from repro.errors import ModelError
from repro.utils.rng import stable_hash

_HASH_SPACE = float(1 << 64)


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
        #: The draw for each registered fact id asked about so far: a
        #: pure function of (model, id), so whatever the registry holds
        #: now — a late fact, a re-bound id — is judged without hashing
        #: the ones already drawn again.
        self._drawn: dict[str, bool] = {}

    def knows(self, fact_id: str) -> bool:
        """Whether this model 'remembers' the fact without retrieval."""
        if fact_id not in self.registry.facts:
            return False
        known = self._drawn.get(fact_id)
        if known is None:
            h = stable_hash(f"{self.model_name}\x1f{fact_id}", namespace="knows")
            known = self._drawn[fact_id] = (h / _HASH_SPACE) < self.knowledge_rate
        return known

    def known_facts(self) -> list[Fact]:
        return [f for fid, f in self.registry.facts.items() if self.knows(fid)]

    def coin(self, *context: str, p: float) -> bool:
        """A deterministic biased coin tied to this model and ``context``.

        Used for per-question behavioral choices (e.g. whether the model
        hallucinates when it lacks grounding) that must be reproducible.
        """
        if not 0.0 <= p <= 1.0:
            raise ModelError(f"probability must be in [0, 1], got {p}")
        h = stable_hash("\x1f".join((self.model_name, *context)), namespace="coin")
        return (h / _HASH_SPACE) < p
