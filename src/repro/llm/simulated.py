"""The simulated chat model: grounded synthesis + realistic failure modes.

Behavioral contract (what the evaluation relies on):

* **Grounded** (prompt contains a ``### Context`` block with facts
  relevant to the question): the answer asserts those facts.  No
  falsehoods are emitted.  This is why good retrieval yields rubric
  scores 3–4.
* **Anchored** (context present but nothing in it is relevant): the
  model trusts the retrieved material over its own memory — it answers
  off the tangential context, recalls *less* of its parametric knowledge
  than it would unprompted, and may misread the context into a topical
  misconception.  This is the mechanism behind RAG's occasional
  *negative* impact (three questions in the paper's Fig. 6a).
* **Unassisted** (no context): the answer is built from the model's
  parametric fact subset.  Questions about unknown identifiers produce a
  confident fabrication (the KSPBurb failure); partial knowledge may be
  garnished with a registered topical misconception, at a per-model rate.
* **Refusal**: a grounded model asked about an identifier that appears
  nowhere in its context or knowledge answers "there is no such
  function" — the corrected KSPBurb behavior of Section V-B.

All stochastic-looking choices derive from stable hashes of
(model, question), so every experiment is exactly reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.context import RequestContext, read_question
from repro.corpus.facts import Fact, FactRegistry
from repro.llm.base import ChatMessage, ChatModel, CompletionResult, TokenUsage
from repro.llm.hallucination import HallucinationGenerator
from repro.llm.latency import LatencyEngine
from repro.llm.parametric import ParametricKnowledge
from repro.llm.relevance import RelevanceModel, _QuestionFeatures
from repro.llm.tokens import count_tokens
from repro.prompts.library import parse_rag_prompt
from repro.utils.rng import stable_hash
from repro.utils.textproc import QuestionReading, is_petsc_api_identifier

_INTROS = (
    "In PETSc, the relevant behavior is as follows.",
    "Here is how PETSc handles this.",
    "Short answer below, with the key points.",
    "This comes up often; the key points are these.",
)

_HEDGES = (
    "The retrieved documentation does not address this directly, but based on "
    "the related material:",
    "I could not find this answered explicitly in the documentation provided; "
    "from the closest related content:",
)

_VAGUE = (
    "This depends on the specific solver configuration; consult the KSP "
    "manual pages for the authoritative behavior on your PETSc version.",
    "PETSc's behavior here is configuration dependent; the users manual "
    "chapter on KSP discusses the surrounding machinery in detail.",
)


@dataclass
class ModelPersona:
    """Tunable behavioral parameters for one simulated model."""

    name: str
    knowledge_rate: float
    hallucination_rate: float
    verbosity: float = 1.0
    iterations_per_token: int = 6000
    context_window: int = 128_000


class SimulatedChatModel(ChatModel):
    """A deterministic, fact-grounded stand-in for a hosted chat model."""

    def __init__(
        self,
        persona: ModelPersona,
        registry: FactRegistry,
        *,
        known_identifiers: frozenset[str] = frozenset(),
    ) -> None:
        self.persona = persona
        self.name = persona.name
        self.context_window = persona.context_window
        self.registry = registry
        self.known_identifiers = known_identifiers
        self.knowledge = ParametricKnowledge(
            registry, model_name=persona.name, knowledge_rate=persona.knowledge_rate
        )
        self.relevance = RelevanceModel(registry)
        self.hallucinator = HallucinationGenerator(registry)
        self.latency = LatencyEngine(iterations_per_token=persona.iterations_per_token)

    # ------------------------------------------------------------------ api
    def complete(
        self, messages: list[ChatMessage], *, ctx: RequestContext | None = None
    ) -> CompletionResult:
        start = time.perf_counter()
        prompt_tokens = self._check_messages(messages)
        last_user = next(m for m in reversed(messages) if m.role == "user")
        parsed = parse_rag_prompt(last_user.content)
        text = self._answer(parsed.question, parsed.context, parsed.guidance, ctx)
        completion_tokens = count_tokens(text)
        # Batched serving defers the burn to the coordinator's vectorized
        # flush; answer text is identical either way.
        collector = ctx.burn_collector if ctx is not None else None
        self.latency.burn(completion_tokens, collector=collector)
        elapsed = time.perf_counter() - start
        return CompletionResult(
            text=text,
            model=self.name,
            usage=TokenUsage(prompt_tokens=prompt_tokens, completion_tokens=completion_tokens),
            latency_seconds=elapsed,
        )

    # ------------------------------------------------------------------ policy
    def _unknown_identifiers(self, question: QuestionReading) -> list[str]:
        """PETSc-API-shaped identifiers in the question that nothing knows.

        Only tokens shaped like real API names or option keys count;
        CamelCase concepts (BiCGStab, Gram-Schmidt) are ordinary words.
        """
        out = []
        for ident in question.idents:
            if not is_petsc_api_identifier(ident):
                continue
            if ident in self.known_identifiers:
                continue
            if any(ident in f.topics for f in self.registry.facts.values()):
                continue
            out.append(ident)
        return out

    def _answer(
        self,
        question: str,
        context: str | None,
        guidance: str | None,
        ctx: RequestContext | None,
    ) -> str:
        if guidance is not None:
            # Revision mode: honor developer guidance by re-answering with
            # the guidance folded into the relevance query.
            question = f"{question} {guidance}"
        # The request's own reading when the prompt still asks its question.
        reading = read_question(question, ctx)
        if context is not None:
            return self._answer_grounded(reading, context)
        return self._answer_unassisted(reading)

    def _answer_grounded(self, reading: QuestionReading, context: str) -> str:
        question = reading.text
        context_facts = self.registry.facts_in(context)
        # One analysis of the question serves every selection below.
        features = self.relevance.question_features(reading)
        # Retrieval already filtered the material, so the model reads it
        # generously: everything plausibly related to the question makes
        # it into the answer (the paper's score-4 answers synthesize all
        # the relevant retrieved content, not just the single best hit).
        picked = self.relevance.select(
            context_facts, features, max_facts=9, min_score=0.35, relative=0.0
        )
        unknown = self._unknown_identifiers(reading)
        if unknown:
            # The question's subject does not exist anywhere in the
            # retrieved documentation: say so (the corrected KSPBurb
            # behavior), optionally adding the related true material.
            refusal = self._render_refusal(unknown[0])
            if picked:
                related = "\n\n".join(sf.fact.statement for sf in picked[:2])
                return f"{refusal}\n\nRelated information that may help:\n\n{related}"
            return refusal
        if picked:
            facts = [sf.fact for sf in picked]
            # Blend in parametric facts the model is confident about —
            # grounded context makes it braver, not dumber.
            extra = [
                sf.fact
                for sf in self.relevance.select(self.knowledge.known_facts(), features)
                if sf.fact not in facts
                and self.knowledge.coin("blend", question, sf.fact.fact_id, p=0.5)
            ]
            return self._render(question, facts + extra[:2], grounded=True)
        # Anchored degradation: context retrieved, none of it relevant.
        return self._answer_anchored(question, features, context_facts)

    def _answer_anchored(
        self, question: str, features: _QuestionFeatures, context_facts: list[Fact]
    ) -> str:
        parts = [
            _HEDGES[stable_hash(f"{self.name}{question}", namespace="hedge") % len(_HEDGES)]
        ]
        tangential = context_facts[:2]
        parts.extend(f.statement for f in tangential)
        # Anchoring suppresses parametric recall: keep at most one known
        # fact, and only sometimes.
        parametric = self.relevance.select(self.knowledge.known_facts(), features, max_facts=3)
        if parametric and self.knowledge.coin("anchored-recall", question, p=0.4):
            parts.append(parametric[0].fact.statement)
        # Misreading tangential context into a misconception.
        if self.knowledge.coin("anchored-false", question, p=0.5):
            falsehood = self.hallucinator.topical_falsehood(question, model_name=self.name)
            if falsehood is not None:
                parts.append(falsehood.statement)
        if len(parts) == 1:
            parts.append(_VAGUE[stable_hash(question, namespace="vague") % len(_VAGUE)])
        return "\n\n".join(parts)

    def _answer_unassisted(self, reading: QuestionReading) -> str:
        question = reading.text
        unknown = self._unknown_identifiers(reading)
        if unknown:
            # Asked about an API it has never seen, an ungrounded model
            # confabulates a confident description (the KSPBurb failure).
            text, _ = self.hallucinator.fabricate(unknown[0], model_name=self.name)
            return text
        picked = self.relevance.select(
            self.knowledge.known_facts(), self.relevance.question_features(reading)
        )
        if not picked:
            if self.knowledge.coin("vague-false", question, p=self.persona.hallucination_rate):
                falsehood = self.hallucinator.topical_falsehood(question, model_name=self.name)
                if falsehood is not None:
                    return "\n\n".join((
                        _VAGUE[stable_hash(question, namespace="vague") % len(_VAGUE)],
                        falsehood.statement,
                    ))
            return _VAGUE[stable_hash(question, namespace="vague") % len(_VAGUE)]
        facts = [sf.fact for sf in picked]
        answer = self._render(question, facts, grounded=False)
        # Partial knowledge invites embellishment: a topical misconception
        # slips in at a model-dependent rate.
        if self.knowledge.coin(
            "embellish", question, p=self.persona.hallucination_rate * 0.8
        ):
            falsehood = self.hallucinator.topical_falsehood(question, model_name=self.name)
            if falsehood is not None:
                answer += "\n\n" + falsehood.statement
        return answer

    # ------------------------------------------------------------------ rendering
    def _render(self, question: str, facts: list[Fact], *, grounded: bool) -> str:
        intro = _INTROS[stable_hash(f"{self.name}{question}", namespace="intro") % len(_INTROS)]
        parts = [intro]
        if len(facts) >= 3:
            parts.append("\n".join(f"- {f.statement}" for f in facts))
        else:
            parts.extend(f.statement for f in facts)
        options = [
            t for f in facts for t in (f.topics + f.signature) if t.startswith("-")
        ]
        if options and self.persona.verbosity >= 1.0:
            opts = " ".join(dict.fromkeys(options[:3]))
            parts.append(f"For example:\n\n```console\n./app {opts}\n```")
        if grounded:
            parts.append("(See the cited documentation excerpts above for details.)")
        return "\n\n".join(parts)

    @staticmethod
    def _render_refusal(identifier: str) -> str:
        return (
            f"It appears there may be a typo or misunderstanding, as there is no PETSc "
            f"function or object named {identifier}. In PETSc, the KSP (Krylov subspace) "
            f"module provides the linear solvers, with types such as KSPGMRES, KSPCG, "
            f"KSPBCGS, and KSPLSQR selected via KSPSetType or -ksp_type. If you saw "
            f"{identifier} somewhere, please check the spelling against the KSP manual pages."
        )
