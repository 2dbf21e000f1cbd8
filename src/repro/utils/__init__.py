"""Shared low-level utilities: text processing, timing, RNG."""

from repro.utils.textproc import (
    normalize_text,
    sentences,
    tokenize,
    tokenize_with_stopwords,
    word_ngrams,
    STOPWORDS,
)
from repro.utils.timing import StageTimer, TimingStats
from repro.utils.rng import derive_seed, stable_hash

__all__ = [
    "normalize_text",
    "sentences",
    "tokenize",
    "tokenize_with_stopwords",
    "word_ngrams",
    "STOPWORDS",
    "StageTimer",
    "TimingStats",
    "derive_seed",
    "stable_hash",
]
