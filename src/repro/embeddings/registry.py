"""Named embedding models, mirroring the hosted models the paper compares.

========================  ===============================================
Registry name             Stand-in for
========================  ===============================================
petsc-embed-large         OpenAI text-embedding-3-large (best quality;
                          corpus-fitted TF-IDF + 1536-d projection)
petsc-embed-small         OpenAI text-embedding-3-small (512-d hashing
                          with bigrams)
petsc-embed-mini          a weak open model (256-d unigram hashing)
========================  ===============================================
"""

from __future__ import annotations

from repro.embeddings.base import EmbeddingModel
from repro.embeddings.hashing import HashingEmbedding
from repro.embeddings.tfidf import TfidfEmbedding
from repro.errors import EmbeddingError

EMBEDDING_MODEL_NAMES: tuple[str, ...] = (
    "petsc-embed-large",
    "petsc-embed-small",
    "petsc-embed-mini",
)


def is_corpus_fitted(name: str) -> bool:
    """Whether a model's vectors depend on the corpus it was fitted over.

    A corpus-fitted model is fitted once over the chunks of every shard,
    so each shard's digest names the whole corpus (``embedding_scope``)
    and any document edit re-keys every shard.  Vectors are still reused
    per chunk: an edit moves the IDF of a handful of terms, and only the
    chunks holding one are re-embedded
    (:meth:`~repro.embeddings.base.EmbeddingModel.moved_since`).  Hashing
    models are corpus-free and let a one-document edit dirty exactly one
    shard.
    """
    if name not in EMBEDDING_MODEL_NAMES:
        raise EmbeddingError(
            f"unknown embedding model {name!r}; known models: {', '.join(EMBEDDING_MODEL_NAMES)}"
        )
    return name == "petsc-embed-large"


def create_embedding_model(
    name: str,
    *,
    corpus_texts: list[str] | None = None,
    parent: EmbeddingModel | None = None,
) -> EmbeddingModel:
    """Instantiate a registered embedding model.

    ``petsc-embed-large`` is corpus-fitted and therefore requires
    ``corpus_texts``; given the ``parent`` model of the artifact the new
    one succeeds, its fit is derived from the parent's
    (:meth:`TfidfEmbedding.fit`).  The hashing models ignore both.
    """
    if name == "petsc-embed-large":
        if corpus_texts is None:
            raise EmbeddingError(
                "petsc-embed-large is corpus-fitted; pass corpus_texts to create it"
            )
        return TfidfEmbedding(dim=1536, ngram_max=2, name=name).fit(corpus_texts, parent)
    if name == "petsc-embed-small":
        return HashingEmbedding(dim=512, ngram_max=2, name=name)
    if name == "petsc-embed-mini":
        return HashingEmbedding(dim=256, ngram_max=1, name=name)
    raise EmbeddingError(
        f"unknown embedding model {name!r}; known models: {', '.join(EMBEDDING_MODEL_NAMES)}"
    )
