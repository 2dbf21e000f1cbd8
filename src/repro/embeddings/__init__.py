"""Deterministic local embedding models.

The paper evaluates multiple hosted embedding models (OpenAI
``text-embedding-3-large`` performed best).  This package provides
offline, deterministic stand-ins with genuinely different retrieval
quality so the paper's model-comparison methodology can run end to end:

* :class:`HashingEmbedding` — signed feature hashing of token n-grams
  (cheap, no fitting, quality scales with dimension/n-gram order).
* :class:`TfidfEmbedding` — corpus-fitted TF-IDF with a deterministic
  Gaussian random projection to a dense vector (the strongest model).

All models produce L2-normalized ``float32`` matrices; similarity is an
inner product computed as one GEMV/GEMM over a contiguous matrix (see
the HPC guide notes in DESIGN.md).
"""

from repro.embeddings.base import EmbeddingModel
from repro.embeddings.hashing import HashingEmbedding
from repro.embeddings.tfidf import TfidfEmbedding
from repro.embeddings.registry import (
    EMBEDDING_MODEL_NAMES,
    create_embedding_model,
)

__all__ = [
    "EmbeddingModel",
    "HashingEmbedding",
    "TfidfEmbedding",
    "EMBEDDING_MODEL_NAMES",
    "create_embedding_model",
]
