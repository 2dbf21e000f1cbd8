"""Embedding model interface."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np

from repro.errors import EmbeddingError


class EmbeddingModel(ABC):
    """Maps texts to L2-normalized dense ``float32`` vectors.

    Subclasses implement :meth:`_embed_batch`; the base class handles
    input validation, normalization, and the query/document split (some
    real models embed queries differently; ours treat them the same but
    the API mirrors the standard shape).
    """

    #: Model identifier (registry key and persistence tag).
    name: str = "base"
    #: Output dimensionality.
    dim: int = 0

    @abstractmethod
    def _embed_batch(
        self, texts: list[str], tokens: list[Sequence[str]] | None = None
    ) -> np.ndarray:
        """Return an (n, dim) float32 array; rows need not be normalized.

        ``tokens[i]``, when given, is ``tokenize(texts[i])``.
        """

    def embed_documents(self, texts: list[str]) -> np.ndarray:
        """Embed a batch of document texts → (n, dim), rows L2-normalized."""
        return self._embed(texts, None)

    def embed_query(self, text: str, tokens: Sequence[str] | None = None) -> np.ndarray:
        """Embed one query string → (dim,), L2-normalized.

        ``tokens`` is ``tokenize(text)`` when the caller holds it already
        (a request reads its question once); the vector is the same.
        """
        return self._embed([text], None if tokens is None else [tokens])[0]

    def _embed(self, texts: list[str], tokens: list[Sequence[str]] | None) -> np.ndarray:
        if not isinstance(texts, list):
            raise EmbeddingError(f"expected a list of texts, got {type(texts).__name__}")
        if not texts:
            return np.zeros((0, self.dim), dtype=np.float32)
        for i, t in enumerate(texts):
            if not isinstance(t, str):
                raise EmbeddingError(f"texts[{i}] is {type(t).__name__}, expected str")
        mat = np.ascontiguousarray(self._embed_batch(texts, tokens), dtype=np.float32)
        if mat.shape != (len(texts), self.dim):
            raise EmbeddingError(
                f"{self.name}: bad embedding shape {mat.shape}, expected {(len(texts), self.dim)}"
            )
        return _normalize_rows(mat)

    def moved_since(self, since: "EmbeddingModel") -> Callable[[str], bool]:
        """A predicate over texts: does this model embed ``text`` to a
        different vector than ``since`` did?

        It decides which parent rows a build may copy and which cached
        query embeddings survive a swap.  A corpus-free model's vector
        is a function of the text alone, so nothing moves while the
        model stays the same; corpus-fitted models override this.
        """
        same = (since.name, since.dim) == (self.name, self.dim)
        return lambda text: not same


def _normalize_rows(mat: np.ndarray) -> np.ndarray:
    """L2-normalize rows in place; all-zero rows are left as zeros."""
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    np.maximum(norms, np.finfo(np.float32).tiny, out=norms)
    mat /= norms
    return mat
