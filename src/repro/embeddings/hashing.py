"""Signed feature-hashing embeddings (the "small / fast" model family)."""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from repro.embeddings.base import EmbeddingModel
from repro.errors import EmbeddingError
from repro.utils.rng import stable_hash
from repro.utils.textproc import tokenize, word_ngrams


class HashingEmbedding(EmbeddingModel):
    """Embeds text by hashing token n-grams into signed buckets.

    Each n-gram hashes to a bucket index and a sign; term weight is
    sublinear term frequency (``1 + log tf``).  Collisions are the model's
    quality limit: smaller dimensions collide more, approximating a
    weaker embedding model.

    Parameters
    ----------
    dim:
        Number of hash buckets (output dimensionality).
    ngram_max:
        Maximum n-gram order (1 = unigrams only; 2 adds bigrams, which
        substantially improves phrase sensitivity).
    """

    def __init__(self, *, dim: int = 512, ngram_max: int = 2, name: str | None = None) -> None:
        if dim < 8:
            raise EmbeddingError(f"dim must be >= 8, got {dim}")
        if ngram_max < 1:
            raise EmbeddingError(f"ngram_max must be >= 1, got {ngram_max}")
        self.dim = dim
        self.ngram_max = ngram_max
        self.name = name or f"hashing-{dim}-n{ngram_max}"
        # Per-instance hash cache: token n-grams repeat heavily across a
        # corpus, so memoizing (index, sign) avoids rehashing hot terms.
        self._cache: dict[str, tuple[int, float]] = {}

    def _bucket(self, term: str) -> tuple[int, float]:
        cached = self._cache.get(term)
        if cached is not None:
            return cached
        idx = stable_hash(term, namespace="hash-idx") % self.dim
        sign = 1.0 if stable_hash(term, namespace="hash-sign") & 1 else -1.0
        self._cache[term] = (idx, sign)
        return idx, sign

    def _terms(self, text: str, tokens: Sequence[str] | None = None) -> Counter[str]:
        if tokens is None:
            tokens = tokenize(text)
        counts: Counter[str] = Counter(tokens)
        for n in range(2, self.ngram_max + 1):
            counts.update(" ".join(g) for g in word_ngrams(tokens, n))
        return counts

    def _embed_batch(
        self, texts: list[str], tokens: list[Sequence[str]] | None = None
    ) -> np.ndarray:
        out = np.zeros((len(texts), self.dim), dtype=np.float32)
        for row, text in enumerate(texts):
            counts = self._terms(text, None if tokens is None else tokens[row])
            if not counts:
                continue
            idxs = np.empty(len(counts), dtype=np.int64)
            vals = np.empty(len(counts), dtype=np.float32)
            for j, (term, tf) in enumerate(counts.items()):
                idx, sign = self._bucket(term)
                idxs[j] = idx
                vals[j] = sign * (1.0 + np.log(tf))
            # Accumulate with np.add.at: colliding buckets must sum.
            np.add.at(out[row], idxs, vals)
        return out
