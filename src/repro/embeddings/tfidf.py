"""Corpus-fitted TF-IDF embeddings with random projection (the "large" model)."""

from __future__ import annotations

import weakref
from collections import Counter
from typing import Callable, Sequence

import numpy as np

from repro.embeddings.base import EmbeddingModel
from repro.errors import EmbeddingError
from repro.utils.rng import derive_seed
from repro.utils.textproc import tokenize, word_ngrams


class TfidfEmbedding(EmbeddingModel):
    """TF-IDF vectors projected to a dense space with a fixed Gaussian map.

    Fitting builds the vocabulary and inverse document frequencies from a
    corpus; embedding computes the sparse TF-IDF vector and multiplies by
    a deterministic (seeded) Gaussian projection matrix.  By the
    Johnson-Lindenstrauss lemma the projection approximately preserves
    cosine similarities, so this behaves like a strong lexical embedding
    model, clearly better than low-dimensional feature hashing.

    The projection matrix is materialized lazily one vocabulary row at a
    time (each row is a seeded Gaussian), so memory stays proportional to
    the vocabulary actually used.

    A text's vector is a pure function of its own term counts, the IDF
    of its own terms and their projection rows.  A fit therefore keeps
    the term counts of every text it was fitted over (computed once,
    shared by :meth:`fit` and embedding), and a fit *derived* from a
    ``parent`` carries over whatever the parent already computed — see
    :meth:`fit` and :meth:`moved_since`.
    """

    def __init__(self, *, dim: int = 1536, ngram_max: int = 2, name: str | None = None) -> None:
        if dim < 8:
            raise EmbeddingError(f"dim must be >= 8, got {dim}")
        self.dim = dim
        self.ngram_max = ngram_max
        self.name = name or f"tfidf-{dim}-n{ngram_max}"
        self._idf: dict[str, float] = {}
        self._rows: dict[str, np.ndarray] = {}
        #: Fitted text → its term counts, in first-occurrence order.
        self._counts: dict[str, Counter[str]] = {}
        #: The last :meth:`changed_terms` answer and the fit it was against
        #: (weakly held): one ingest asks once per shard, then per cache.
        self._changed: tuple[weakref.ref, frozenset[str]] | None = None
        self._fitted = False

    # ----------------------------------------------------------------- fitting
    def fit(
        self, corpus_texts: list[str], parent: EmbeddingModel | None = None
    ) -> "TfidfEmbedding":
        """Learn vocabulary and IDF weights from ``corpus_texts``.

        With a ``parent`` TF-IDF fit of the same shape, the term counts of
        every text the parent was also fitted over and the projection
        row of every term still in the vocabulary are carried over — the
        same objects in new tables, so the parent is never mutated and
        nothing outside the new vocabulary is kept.  Both are pure
        functions of (text) and (dim, term), so a derived fit equals a
        from-scratch one value for value.
        """
        if not corpus_texts:
            raise EmbeddingError("cannot fit TF-IDF on an empty corpus")
        if not isinstance(parent, TfidfEmbedding) or (parent.dim, parent.ngram_max) != (
            self.dim,
            self.ngram_max,
        ):
            parent = None
        known = parent._counts if parent is not None else {}
        counts: dict[str, Counter[str]] = {}
        df: Counter[str] = Counter()
        for text in corpus_texts:
            c = counts.get(text)
            if c is None:
                c = counts[text] = known.get(text) or self._term_counts(text)
            df.update(c.keys())
        n_docs = len(corpus_texts)
        # Smoothed IDF, matching scikit-learn's default formulation; one
        # evaluation per distinct document frequency.
        idf_of = {c: float(np.log((1 + n_docs) / (1 + c)) + 1.0) for c in set(df.values())}
        self._idf = {t: idf_of[c] for t, c in df.items()}
        self._counts = counts
        self._changed = None
        self._rows = {}
        if parent is not None:
            # Looked up per live term, never iterated: the parent fills
            # its table lazily while it serves queries.
            held = parent._rows
            self._rows = {t: row for t in self._idf if (row := held.get(t)) is not None}
        self._fitted = True
        return self

    def changed_terms(self, since: "TfidfEmbedding") -> frozenset[str]:
        """Terms whose weight differs between this fit and ``since``.

        A term whose IDF moved, or that only one of the two vocabularies
        holds.  When the fitted text count differs that is every term;
        otherwise only the terms whose document frequency moved.
        """
        memo = self._changed
        if memo is not None and memo[0]() is since:
            return memo[1]
        old = since._idf
        changed = {t for t, weight in self._idf.items() if old.get(t) != weight}
        changed.update(t for t in old if t not in self._idf)
        self._changed = (weakref.ref(since), frozenset(changed))
        return self._changed[1]

    def moved_since(self, since: EmbeddingModel) -> Callable[[str], bool]:
        if (
            not isinstance(since, TfidfEmbedding)
            or (since.name, since.dim, since.ngram_max) != (self.name, self.dim, self.ngram_max)
        ):
            return lambda text: True
        changed = self.changed_terms(since)
        # Only membership is read: the set's iteration order (hash-seed
        # dependent) never reaches a vector or a digest.
        return lambda text: not changed.isdisjoint(self._counts_of(text))

    # ----------------------------------------------------------------- embedding
    def _term_counts(self, text: str, tokens: Sequence[str] | None = None) -> Counter[str]:
        if tokens is None:
            tokens = tokenize(text)
        counts: Counter[str] = Counter(tokens)
        for n in range(2, self.ngram_max + 1):
            counts.update(" ".join(g) for g in word_ngrams(tokens, n))
        return counts

    def _counts_of(self, text: str, tokens: Sequence[str] | None = None) -> Counter[str]:
        """Term counts of ``text``: kept for fitted texts, computed (and
        not kept) for anything else, i.e. queries."""
        counts = self._counts.get(text)
        return counts if counts is not None else self._term_counts(text, tokens)

    def _projection_row(self, term: str) -> np.ndarray:
        row = self._rows.get(term)
        if row is None:
            rng = np.random.default_rng(derive_seed("tfidf-proj", self.dim, term))
            row = rng.standard_normal(self.dim).astype(np.float32)
            self._rows[term] = row
        return row

    def _embed_batch(
        self, texts: list[str], tokens: list[Sequence[str]] | None = None
    ) -> np.ndarray:
        if not self._fitted:
            raise EmbeddingError(f"{self.name} must be fit() before embedding")
        out = np.zeros((len(texts), self.dim), dtype=np.float32)
        # Out-of-vocabulary terms are dropped: they cannot match any
        # document, and giving them weight only injects projection noise
        # into the query vector.
        for row_i, text in enumerate(texts):
            counts = self._counts_of(text, None if tokens is None else tokens[row_i])
            terms = [t for t in counts if t in self._idf]
            if not terms:
                continue
            weights = np.array(
                [(1.0 + np.log(counts[t])) * self._idf[t] for t in terms],
                dtype=np.float32,
            )
            # Stack the needed projection rows once, then one GEMV.
            proj = np.stack([self._projection_row(t) for t in terms])
            out[row_i] = weights @ proj
        return out
