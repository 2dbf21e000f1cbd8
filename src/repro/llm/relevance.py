"""Question ↔ fact relevance used by the simulated model.

Given a question, which of the facts available to the model (from
context or parametric memory) actually bear on it?  Topics are weighted
by specificity (IDF over the registry) so that a generic topic like
``KSP`` contributes little while ``KSPLSQR`` or ``least squares``
contribute a lot, and an IDF-weighted stemmed-token overlap between the
question and the fact statement catches paraphrased questions that never
name an identifier.  This is *not* the grader: the model selects facts
by this heuristic without access to the benchmark's gold fact lists.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from repro.corpus.facts import Fact, FactRegistry
from repro.utils.textproc import QuestionReading, stem, stem_set


@dataclass
class ScoredFact:
    fact: Fact
    score: float


class _TopicPlan(NamedTuple):
    """Everything about one topic of one fact that no question changes."""

    topic: str
    lower: str
    weight: float
    #: Multi-word topics match as a substring of the question only.
    phrase: bool
    stem: str
    #: ``stem`` of an option key without its dashes; None for other topics.
    undashed_stem: str | None
    #: Stems of the topic with each class prefix it carries taken off.
    unprefixed_stems: tuple[str, ...]


class _QuestionFeatures(NamedTuple):
    """Everything about one question that no fact changes."""

    lower: str
    stems: set[str]
    idents: set[str]
    #: IDF mass of ``stems`` (the paraphrase score's denominator).
    idf_mass: float


class RelevanceModel:
    """Scores facts against a question with specificity-weighted topics."""

    #: Class prefixes users drop when naming solver types ("preonly"
    #: for KSPPREONLY, "ilu" for PCILU).
    _PREFIXES = ("ksp", "pc", "mat", "vec", "snes", "ts")

    def __init__(self, registry: FactRegistry) -> None:
        self.registry = registry
        topic_df: Counter[str] = Counter()
        for fact in registry.facts.values():
            topic_df.update({t.lower() for t in fact.topics})
        n = max(len(registry.facts), 1)
        self._topic_weight = {
            t: math.log((1 + n) / (1 + c)) + 0.1 for t, c in topic_df.items()
        }
        # Stemmed-token IDF over fact statements, for the paraphrase signal.
        # A statement's stems are read from the process-wide memo, which
        # the paraphrase score reads too: a model built for a new cache
        # generation stems no statement this process has stemmed before.
        tok_df: Counter[str] = Counter()
        for fact in registry.facts.values():
            tok_df.update(stem_set(fact.statement))
        self._token_idf = {
            t: math.log((1 + n) / (1 + c)) + 0.1 for t, c in tok_df.items()
        }
        self._max_token_idf = max(self._token_idf.values(), default=1.0)
        # Topic plans for the selection loop, keyed on the topics tuple —
        # as statement stems are keyed on the statement — so a fact
        # registered later, or an id bound to another fact, is scored on
        # what it carries.
        self._topic_plans: dict[tuple[str, ...], tuple[_TopicPlan, ...]] = {}
        for fact in registry.facts.values():
            self._plans(fact.topics)

    def topic_weight(self, topic: str) -> float:
        return self._topic_weight.get(topic.lower(), 1.0)

    def _plans(self, topics: tuple[str, ...]) -> tuple[_TopicPlan, ...]:
        plans = self._topic_plans.get(topics)
        if plans is None:
            plans = self._topic_plans[topics] = tuple(self._plan_topic(t) for t in topics)
        return plans

    def _plan_topic(self, topic: str) -> _TopicPlan:
        tl = topic.lower()
        return _TopicPlan(
            topic=topic,
            lower=tl,
            weight=self.topic_weight(topic),
            phrase=" " in tl,
            stem=stem(tl),
            undashed_stem=stem(tl.lstrip("-")) if tl.startswith("-") else None,
            # Users name solver types without the class prefix
            # ("preonly" for KSPPREONLY, "gmres" for KSPGMRES).
            unprefixed_stems=tuple(
                stem(tl[len(prefix):])
                for prefix in self._PREFIXES
                if tl.startswith(prefix) and len(tl) - len(prefix) >= 2
            ),
        )

    # ------------------------------------------------------------------ scoring
    def _topic_score(self, fact: Fact, q: _QuestionFeatures) -> float:
        s = 0.0
        for p in self._plans(fact.topics):
            if p.topic in q.idents:
                s += 1.3 * p.weight
            elif p.phrase:
                if p.lower in q.lower:
                    s += 1.3 * p.weight
            elif p.stem in q.stems or p.lower in q.stems:
                s += 1.0 * p.weight
            elif p.undashed_stem is not None and p.undashed_stem in q.stems:
                s += 1.0 * p.weight
            elif any(rest in q.stems for rest in p.unprefixed_stems):
                s += 1.0 * p.weight
        return s

    def _paraphrase_score(self, fact: Fact, q: _QuestionFeatures) -> float:
        shared = q.stems & stem_set(fact.statement)
        if not shared:
            return 0.0
        # Sum in sorted order: float addition is non-associative, and set
        # iteration order varies with the process hash seed — summing in
        # hash order made near-tied scores (and thus answers) flip
        # between runs.
        num = sum(self._token_idf.get(t, self._max_token_idf) for t in sorted(shared))
        return num / q.idf_mass if q.idf_mass > 0 else 0.0

    def question_features(self, question: str | QuestionReading) -> _QuestionFeatures:
        """What :meth:`select` derives from ``question``; pass it in place
        of the question to select from several fact lists with one analysis."""
        reading = QuestionReading.of(question)
        stems = set(reading.stems)
        return _QuestionFeatures(
            lower=reading.text.lower(),
            stems=stems,
            idents=set(reading.idents),
            idf_mass=sum(self._token_idf.get(t, self._max_token_idf) for t in sorted(stems)),
        )

    def _score(self, fact: Fact, q: _QuestionFeatures) -> float:
        return self._topic_score(fact, q) + 3.2 * self._paraphrase_score(fact, q)

    def score(self, fact: Fact, question: str) -> float:
        return self._score(fact, self.question_features(question))

    def select(
        self,
        facts: list[Fact],
        question: str | _QuestionFeatures,
        *,
        max_facts: int = 7,
        min_score: float = 0.9,
        relative: float = 0.25,
    ) -> list[ScoredFact]:
        """Facts relevant to ``question``, best first.

        A fact is kept if its score clears both the absolute floor and a
        fraction of the best score (so one dominant topic match does not
        drag in everything mildly related).
        """
        q = self.question_features(question) if isinstance(question, str) else question
        scored = [ScoredFact(fact=f, score=self._score(f, q)) for f in facts]
        scored.sort(key=lambda sf: (-sf.score, sf.fact.fact_id))
        if not scored or scored[0].score < min_score:
            return []
        floor = max(min_score, relative * scored[0].score) if relative > 0 else min_score
        return [sf for sf in scored if sf.score >= floor][:max_facts]
