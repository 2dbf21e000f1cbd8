"""Token-interaction relevance scoring shared by the rerankers.

A cross-encoder sees query and document *together*, so it can reward
exact phrase matches, rare-term coverage, and term proximity — signals a
bi-encoder (separate embeddings) necessarily blurs.  The scorer here
implements those signals explicitly:

``coverage``   IDF-weighted fraction of query terms present in the doc,
               computed over *stemmed* tokens and expanded through a
               small domain concept lexicon (a trained reranker knows
               that "measure where the time goes" is profiling)
``identifier`` exact case-sensitive match of PETSc identifiers
``bigram``     query bigrams appearing verbatim in the doc
``proximity``  smallest document window containing the matched terms
``focus``      mild penalty for very long chunks (dilute content)
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from repro.documents import Document
from repro.utils.textproc import (
    QuestionReading,
    stem,
    stem_set,
    stemmed_tokens,
    tokenize_with_stopwords,
    word_ngrams,
)

#: Concept clusters (stem space): a trained domain reranker's notion of
#: near-synonyms.  Each group maps query terms onto document terms that
#: express the same concept.
_CONCEPT_GROUPS: tuple[tuple[str, ...], ...] = (
    ("time", "timing", "measur", "profil", "performanc", "summary", "flop", "-log_view"),
    ("memory", "allocat", "storag", "restart"),
    ("print", "display", "show", "view", "monitor", "output"),
    ("fail", "error", "diverg", "breakdown", "stopp", "wrong"),
    ("rectangular", "square", "overdetermined", "underdetermined", "least"),
    ("transpos", "adjoint"),
    ("scal", "scalability", "rank", "process", "reduct", "synchron", "latency",
     "bottleneck", "pipelin"),
    ("default", "choos", "pick"),
    ("preconditio", "pc"),
    ("singular", "null", "nullspac", "neumann"),
    ("assembl", "setvalu", "prealloc", "insert"),
    ("stagnat", "converg", "toler", "rtol"),
    ("sufficient", "insufficient", "success", "report", "malloc", "diagnos"),
)


def _concept_index() -> dict[str, int]:
    index: dict[str, int] = {}
    for gid, group in enumerate(_CONCEPT_GROUPS):
        for term in group:
            index[term] = gid
    return index


_CONCEPT_OF: dict[str, int] = _concept_index()


@lru_cache(maxsize=16384)  # the corpus vocabulary is a few thousand stems
def _concept(token: str) -> int | None:
    """The concept-group id of a (stemmed) token, by prefix match."""
    if token in _CONCEPT_OF:
        return _CONCEPT_OF[token]
    for term, gid in _CONCEPT_OF.items():
        if len(term) >= 4 and token.startswith(term):
            return gid
    return None


def build_idf(documents: list[Document]) -> dict[str, float]:
    """Smoothed IDF over a document collection (stem space).

    Each text's stem set comes from the process-wide memo
    (:func:`~repro.utils.textproc.stem_set`), so a reranker built for a
    new cache generation stems only the chunks an edit wrote; the rest is
    one count over the chained cached sets, and one log per distinct
    document frequency.
    """
    df = Counter(chain.from_iterable(stem_set(doc.text) for doc in documents))
    n = max(len(documents), 1)
    idf_of = {c: math.log((1 + n) / (1 + c)) + 1.0 for c in set(df.values())}
    return {t: idf_of[c] for t, c in df.items()}


class _DocFeatures(NamedTuple):
    """What one document text contributes to every pair it is scored in."""

    stems: tuple[str, ...]
    terms: frozenset[str]
    concepts: frozenset[int]
    bigrams: frozenset[tuple[str, ...]]


#: Texts whose features the process keeps (least recently scored dropped
#: first); several times the corpus.
_DOC_MEMO_SIZE = 2048


@lru_cache(maxsize=_DOC_MEMO_SIZE)
def _doc_features(text: str) -> _DocFeatures:
    """Document-side features of a candidate text, kept by the text.

    Candidates are chunks and manual pages, never a question.  Features
    depend on the text alone — not on a scorer's weights or IDF — so
    every scorer in the process shares one memo, and a swap, which builds
    new scorers, re-analyses only the texts the edit wrote.
    """
    terms = stem_set(text)
    return _DocFeatures(
        stems=tuple(stemmed_tokens(text)),
        terms=terms,
        concepts=frozenset(g for g in map(_concept, terms) if g is not None),
        bigrams=frozenset(word_ngrams([stem(t) for t in tokenize_with_stopwords(text)], 2)),
    )


class _QueryFeatures(NamedTuple):
    """What one query contributes to every pair it is scored in."""

    terms: set[str]
    #: (stem, IDF weight, concept group) in sorted stem order.
    weighted: list[tuple[str, float, int | None]]
    #: Sum of the weights, in that order.
    total: float
    idents: set[str]
    bigrams: set[tuple[str, ...]]


class InteractionScorer:
    """Computes the weighted sum of the interaction features.

    Parameters are feature weights; the two rerankers instantiate this
    with different weights (and the NVIDIA simulation adds the expensive
    proximity feature).
    """

    def __init__(
        self,
        *,
        idf: dict[str, float] | None = None,
        w_coverage: float = 1.0,
        w_identifier: float = 0.8,
        w_bigram: float = 0.5,
        w_proximity: float = 0.0,
        w_focus: float = 0.15,
        focus_chars: int = 900,
    ) -> None:
        self.idf = idf or {}
        self.default_idf = max(self.idf.values()) if self.idf else 1.0
        self.w_coverage = w_coverage
        self.w_identifier = w_identifier
        self.w_bigram = w_bigram
        self.w_proximity = w_proximity
        self.w_focus = w_focus
        self.focus_chars = focus_chars

    # ------------------------------------------------------------------ features
    @staticmethod
    def _coverage(q: _QueryFeatures, d_terms: frozenset[str], d_concepts: frozenset[int]) -> float:
        hit = 0.0
        for t, w, gid in q.weighted:
            if t in d_terms:
                hit += w
            elif gid is not None and gid in d_concepts:
                hit += 0.7 * w  # synonym match: strong but below exact
        if q.total <= 0:
            return 0.0
        # Saturating matched-mass factor: a tiny page matching three weak
        # terms must not outscore a substantive section matching eight.
        mass = hit / (hit + 6.0)
        return (hit / q.total) * (0.4 + 1.2 * mass)

    @staticmethod
    def _identifier(idents: set[str], text: str) -> float:
        if not idents:
            return 0.0
        present = sum(1 for i in idents if i in text)
        return present / len(idents)

    @staticmethod
    def _bigram(
        q_bigrams: set[tuple[str, ...]], d_bigrams: frozenset[tuple[str, ...]]
    ) -> float:
        if not q_bigrams:
            return 0.0
        return len(q_bigrams & d_bigrams) / len(q_bigrams)

    @staticmethod
    def _proximity(q_terms: set[str], d_tokens: "list[str] | tuple[str, ...]") -> float:
        """1 / window: the tightest document window covering the matched terms.

        This is the token-interaction-matrix part — O(|doc|) with a
        sliding window, the dominant cost of the heavy reranker.
        """
        targets = q_terms & set(d_tokens)
        if len(targets) < 2:
            return 1.0 if targets else 0.0
        need = len(targets)
        have: Counter[str] = Counter()
        count = 0
        best = len(d_tokens) + 1
        left = 0
        for right, tok in enumerate(d_tokens):
            if tok in targets:
                have[tok] += 1
                if have[tok] == 1:
                    count += 1
            while count == need:
                best = min(best, right - left + 1)
                lt = d_tokens[left]
                if lt in targets:
                    have[lt] -= 1
                    if have[lt] == 0:
                        count -= 1
                left += 1
        if best > len(d_tokens):
            return 0.0
        return need / best  # dense co-occurrence → close to 1

    def _focus(self, text: str) -> float:
        if len(text) <= self.focus_chars:
            return 0.0
        return math.log(len(text) / self.focus_chars)

    # ------------------------------------------------------------------ scoring
    def _analyse_query(self, query: QuestionReading) -> _QueryFeatures:
        terms = set(query.stems)
        # Sorted: float addition is non-associative and set order varies
        # with the process hash seed, so sums taken in set order differ in
        # their last bits between processes.
        weighted = [
            (t, self.idf.get(t, self.default_idf), _concept(t)) for t in sorted(terms)
        ]
        total = 0.0
        for _, w, _ in weighted:
            total += w
        return _QueryFeatures(
            terms=terms,
            weighted=weighted,
            total=total,
            idents=set(query.idents),
            bigrams=set(word_ngrams([stem(t) for t in tokenize_with_stopwords(query.text)], 2)),
        )

    def score(self, query: str | QuestionReading, text: str) -> float:
        return float(self.score_batch(query, [text])[0])

    def score_batch(self, query: str | QuestionReading, texts: list[str]) -> np.ndarray:
        q = self._analyse_query(QuestionReading.of(query))
        scores = np.empty(len(texts), dtype=np.float64)
        for i, text in enumerate(texts):
            d = _doc_features(text)
            s = self.w_coverage * self._coverage(q, d.terms, d.concepts)
            s += self.w_identifier * self._identifier(q.idents, text)
            s += self.w_bigram * self._bigram(q.bigrams, d.bigrams)
            if self.w_proximity:
                s += self.w_proximity * self._proximity(q.terms, d.stems)
            s -= self.w_focus * self._focus(text)
            scores[i] = s
        return scores
