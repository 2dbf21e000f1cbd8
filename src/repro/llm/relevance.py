"""Question ↔ fact relevance used by the simulated model.

Given a question, which of the facts available to the model (from
context or parametric memory) actually bear on it?  Topics are weighted
by specificity (IDF over the registry) so that a generic topic like
``KSP`` contributes little while ``KSPLSQR`` or ``least squares``
contribute a lot, and an IDF-weighted stemmed-token overlap between the
question and the fact statement catches paraphrased questions that never
name an identifier.  This is *not* the grader: the model selects facts
by this heuristic without access to the benchmark's gold fact lists.

Facts are looked up, not scanned: every fact *shape* ``(topics,
statement)`` is posted once under the keys a question can hit it by, and
a question's scores are read off the postings its identifiers, stems and
phrases hit.  A fact the question touches nowhere scores ``0.0`` without
being visited.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from repro.corpus.facts import Fact, FactRegistry
from repro.utils.textproc import QuestionReading, stem, stem_set

#: What a fact is scored on: its topics and its statement.
_Shape = tuple[tuple[str, ...], str]
#: One topic of one shape under one key: the shape, the topic's index in
#: its plan, and the weight a hit adds.
_Posting = tuple[_Shape, int, float]

#: Class prefixes users drop when naming solver types ("preonly" for
#: KSPPREONLY, "ilu" for PCILU).
_PREFIXES = ("ksp", "pc", "mat", "vec", "snes", "ts")


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


class _Postings(NamedTuple):
    """Every posted shape under every key that can hit it.

    A value, never modified once built: a shape posted late is posted
    into a copy.
    """

    shapes: frozenset[_Shape]
    #: A topic as written, matched against the question's identifiers (1.3·w).
    idents: dict[str, tuple[_Posting, ...]]
    #: A multi-word topic, lower-cased, matched as a substring (1.3·w).
    phrases: dict[str, tuple[_Posting, ...]]
    #: A single-word topic's stem, lower-cased, dash-stripped and
    #: prefix-stripped forms, matched against the question's stems (1.0·w).
    stems: dict[str, tuple[_Posting, ...]]
    #: A statement stem: the shapes whose statements hold it.
    statements: dict[str, tuple[_Shape, ...]]


_NO_POSTINGS = _Postings(frozenset(), {}, {}, {}, {})


def _smoothed_idf(df: Counter[str], n: int) -> dict[str, float]:
    return {t: math.log((1 + n) / (1 + c)) + 0.1 for t, c in df.items()}


class _RegistryAnalysis:
    """The topic IDF, statement-token IDF, topic plans and postings of a
    registry's ``(topics, statement)`` pairs — a pure function of them,
    shared by every model over equal content (:func:`_analysis`), and
    never modified once built."""

    def __init__(self, shapes: tuple[_Shape, ...]) -> None:
        topic_df: Counter[str] = Counter()
        tok_df: Counter[str] = Counter()
        for topics, statement in shapes:
            topic_df.update({t.lower() for t in topics})
            tok_df.update(stem_set(statement))
        n = max(len(shapes), 1)
        self.topic_weight = _smoothed_idf(topic_df, n)
        self.token_idf = _smoothed_idf(tok_df, n)
        self.max_token_idf = max(self.token_idf.values(), default=1.0)
        self._plans = {
            topics: tuple(map(self._plan_topic, topics)) for topics, _ in shapes
        }
        self.postings = self.post_into(_NO_POSTINGS, dict.fromkeys(shapes))

    def _plan_topic(self, topic: str) -> _TopicPlan:
        tl = topic.lower()
        return _TopicPlan(
            topic=topic,
            lower=tl,
            weight=self.topic_weight.get(tl, 1.0),
            phrase=" " in tl,
            stem=stem(tl),
            undashed_stem=stem(tl.lstrip("-")) if tl.startswith("-") else None,
            unprefixed_stems=tuple(
                stem(tl[len(prefix):])
                for prefix in _PREFIXES
                if tl.startswith(prefix) and len(tl) - len(prefix) >= 2
            ),
        )

    def post_into(self, base: _Postings, shapes) -> _Postings:
        """``base`` with ``shapes`` (none of them in it) posted, as new dicts."""
        idents, phrases = dict(base.idents), dict(base.phrases)
        stems, statements = dict(base.stems), dict(base.statements)

        def add(table: dict, key: str, item) -> None:
            table[key] = (*table.get(key, ()), item)

        for shape in shapes:
            topics, statement = shape
            # Plans are keyed on the topics tuple, as statement stems are
            # keyed on the statement, so a late fact or a rebound id is
            # scored on what it carries.
            plans = self._plans.get(topics)
            if plans is None:
                plans = tuple(map(self._plan_topic, topics))
            for index, p in enumerate(plans):
                add(idents, p.topic, (shape, index, 1.3 * p.weight))
                if p.phrase:
                    add(phrases, p.lower, (shape, index, 1.3 * p.weight))
                    continue
                keys = {p.stem, p.lower, *p.unprefixed_stems}
                if p.undashed_stem is not None:
                    keys.add(p.undashed_stem)
                for key in keys:
                    add(stems, key, (shape, index, 1.0 * p.weight))
            for token in stem_set(statement):
                add(statements, token, shape)
        return _Postings(base.shapes.union(shapes), idents, phrases, stems, statements)

    def scores(self, q: "_QuestionFeatures", posted: _Postings) -> dict[_Shape, float]:
        """The score of every shape in ``posted`` that ``q`` touches."""
        hits: dict[_Shape, dict[int, float]] = {}
        for ident in q.idents:
            for shape, index, weight in posted.idents.get(ident, ()):
                hits.setdefault(shape, {})[index] = weight
        for phrase, postings in posted.phrases.items():
            if phrase in q.lower:
                for shape, index, weight in postings:
                    hits.setdefault(shape, {})[index] = weight
        # Paraphrase IDF per shape in sorted-stem order: float addition is
        # non-associative, and set iteration order varies with the process
        # hash seed — summing in hash order made near-tied scores (and
        # thus answers) flip between runs.
        shared: dict[_Shape, list[float]] = {}
        for token in sorted(q.stems):
            # A topic matched by identifier or phrase keeps its 1.3·w.
            for shape, index, weight in posted.stems.get(token, ()):
                hits.setdefault(shape, {}).setdefault(index, weight)
            holders = posted.statements.get(token)
            if holders:
                weight = self.token_idf.get(token, self.max_token_idf)
                for shape in holders:
                    shared.setdefault(shape, []).append(weight)
        # A shape with no shared stem scores ``topic + 3.2 * 0.0``, which
        # is ``topic``; one with no topic hit, ``0.0 + 3.2 * paraphrase``.
        scores: dict[_Shape, float] = {}
        for shape, matched in hits.items():
            topic = 0.0
            for index in sorted(matched):  # in plan order
                topic += matched[index]
            scores[shape] = topic
        mass = q.idf_mass
        for shape, idf in shared.items():
            paraphrase = sum(idf) / mass if mass > 0 else 0.0
            scores[shape] = scores.get(shape, 0.0) + 3.2 * paraphrase
        return scores


#: Registry contents whose analysis the process keeps (least recently
#: built first dropped); a registry write makes a new key.
_ANALYSIS_MEMO_SIZE = 16


@lru_cache(maxsize=_ANALYSIS_MEMO_SIZE)
def _analysis(shapes: tuple[_Shape, ...]) -> _RegistryAnalysis:
    """The analysis of a registry's ``(topics, statement)`` pairs, in order.

    Keyed by fact content, never by a question: a model built for a new
    cache generation over the same registry reads the one its
    predecessor built, and nothing clears it.
    """
    return _RegistryAnalysis(shapes)


class _QuestionFeatures(NamedTuple):
    """Everything about one question that no fact changes."""

    lower: str
    stems: set[str]
    idents: set[str]
    #: IDF mass of ``stems`` (the paraphrase score's denominator).
    idf_mass: float
    #: The score of every posted shape the question touches.
    scores: dict[_Shape, float]


class RelevanceModel:
    """Scores facts against a question with specificity-weighted topics."""

    def __init__(self, registry: FactRegistry) -> None:
        self.registry = registry
        # The weights are the registry's as of now, as they always were.
        self._analysis = _analysis(
            tuple((fact.topics, fact.statement) for fact in registry.facts.values())
        )

    def topic_weight(self, topic: str) -> float:
        return self._analysis.topic_weight.get(topic.lower(), 1.0)

    def question_features(self, question: str | QuestionReading) -> _QuestionFeatures:
        """What :meth:`select` derives from ``question``; pass it in place
        of the question to select from several fact lists with one analysis."""
        reading = QuestionReading.of(question)
        stems = set(reading.stems)
        analysis = self._analysis
        lower = reading.text.lower()
        idents = set(reading.idents)
        idf_mass = sum(analysis.token_idf.get(t, analysis.max_token_idf) for t in sorted(stems))
        q = _QuestionFeatures(lower, stems, idents, idf_mass, {})
        return q._replace(scores=analysis.scores(q, analysis.postings))

    def _scores(self, q: _QuestionFeatures, shapes: list[_Shape]) -> dict[_Shape, float]:
        """``q``'s scores; a shape the registry did not hold when the
        analysis was built (a late fact, a rebound id) is scored against
        a throwaway copy of the postings with it posted, for this call."""
        posted = self._analysis.postings
        if posted.shapes.issuperset(shapes):
            return q.scores
        missing = [s for s in dict.fromkeys(shapes) if s not in posted.shapes]
        return self._analysis.scores(q, self._analysis.post_into(posted, missing))

    def score(self, fact: Fact, question: str) -> float:
        shape = (fact.topics, fact.statement)
        return self._scores(self.question_features(question), [shape]).get(shape, 0.0)

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
        shapes = [(f.topics, f.statement) for f in facts]
        scores = self._scores(q, shapes)
        # Below the floor is out whatever the order, so drop before the
        # (stable) sort: the survivors keep their relative order.
        scored = [
            ScoredFact(fact=f, score=s)
            for f, shape in zip(facts, shapes)
            if (s := scores.get(shape, 0.0)) >= min_score
        ]
        if not scored:
            return []
        scored.sort(key=lambda sf: (-sf.score, sf.fact.fact_id))
        floor = max(min_score, relative * scored[0].score) if relative > 0 else min_score
        return [sf for sf in scored if sf.score >= floor][:max_facts]
