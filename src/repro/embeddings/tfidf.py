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
    ``parent`` updates what the parent computed by the texts that changed
    — see :meth:`fit` and :meth:`moved_since`.
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
        #: The fitted texts (a multiset) and each term's document frequency.
        self._texts: Counter[str] = Counter()
        self._df: Counter[str] = Counter()
        #: The last :meth:`changed_terms` answer and the fit it was against
        #: (weakly held): one ingest asks once per shard, then per cache.
        self._changed: tuple[weakref.ref, frozenset[str]] | None = None
        self._fitted = False

    # ----------------------------------------------------------------- fitting
    def fit(
        self, corpus_texts: list[str], parent: EmbeddingModel | None = None
    ) -> "TfidfEmbedding":
        """Learn vocabulary and IDF weights from ``corpus_texts``.

        A fit derived from a ``parent`` TF-IDF fit of the same shape
        carries over the parent's term counts and projection rows, and
        applies only the texts that entered or left (a multiset) to its
        document frequencies.  At an unchanged text count it copies the
        parent's IDF table and rewrites only the terms whose frequency
        moved: :meth:`changed_terms` of the parent, kept as its memo.
        The parent is never mutated, and a derived fit equals a
        from-scratch one value for value.
        """
        if not corpus_texts:
            raise EmbeddingError("cannot fit TF-IDF on an empty corpus")
        if not isinstance(parent, TfidfEmbedding) or (parent.dim, parent.ngram_max) != (
            self.dim,
            self.ngram_max,
        ):
            parent = None
        texts = Counter(corpus_texts)
        known = parent._counts if parent is not None else {}
        counts = {text: known.get(text) or self._term_counts(text) for text in texts}
        n_docs = len(corpus_texts)
        df, moved = Counter(parent._df if parent is not None else ()), set()
        if parent is None:
            for text in corpus_texts:
                df.update(counts[text].keys())
        else:
            for text in {text for text, _copies in texts.items() ^ parent._texts.items()}:
                copies = texts[text] - parent._texts[text]
                for term in (counts if text in counts else known)[text]:
                    df[term] += copies
                    moved.add(term)
            moved = {t for t in moved if df[t] != parent._df[t]}
        same_count = parent is not None and n_docs == parent._texts.total()
        freqs = {df[t] for t in moved} if same_count else set(df.values())
        # Smoothed IDF, matching scikit-learn's default formulation; one
        # evaluation per distinct document frequency.
        idf_of = {c: float(np.log((1 + n_docs) / (1 + c)) + 1.0) for c in freqs}
        if same_count:
            self._idf = parent._idf.copy()
            self._idf.update((t, idf_of[df[t]]) for t in moved)
        else:
            self._idf = {t: idf_of[c] for t, c in df.items()}
        # A C-level copy: the parent fills its table lazily while serving.
        self._rows = parent._rows.copy() if parent is not None else {}
        for term in [t for t in moved if not df[t]]:  # left the vocabulary
            del df[term], self._idf[term]
            self._rows.pop(term, None)
        self._changed = (weakref.ref(parent), frozenset(moved)) if same_count else None
        self._counts, self._texts, self._df = counts, texts, df
        self._fitted = True
        return self

    def changed_terms(self, since: "TfidfEmbedding") -> frozenset[str]:
        """Terms whose weight differs between this fit and ``since``: whose
        IDF value — a function of ``(1 + n) / (1 + df)`` — moved, or that
        one vocabulary holds.  Against its parent a derived fit answers
        from its update (:meth:`fit`); otherwise the tables are compared.
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
        # A keys view walks the smaller side (a set walks a whole dict):
        # an edit's few changed terms.  Only membership is read: the
        # set's order (hash-seed dependent) never reaches a vector.
        return lambda text: not self._counts_of(text).keys().isdisjoint(changed)

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
            # One log per distinct term count.
            tf = [counts[t] for t in terms]
            log_tf = {c: float(1.0 + np.log(c)) for c in set(tf)}
            weights = np.array(
                [log_tf[c] * self._idf[t] for c, t in zip(tf, terms)], dtype=np.float32
            )
            # Stack the needed projection rows once, then one GEMV.
            proj = np.stack([self._projection_row(t) for t in terms])
            out[row_i] = weights @ proj
        return out
