"""Shared fixtures: one corpus / store / pipeline set per test session."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.config import RetrievalConfig, ReproConfig
from repro.corpus import build_default_corpus
from repro.corpus.builder import chunk_corpus
from repro.embeddings import create_embedding_model
from repro.evaluation import BlindGrader
from repro.api import open_pipeline, open_service
from repro.retrieval import ManualPageKeywordSearch
from repro.vectorstore import VectorStore

#: Examples per config of ``tests/test_lifecycle_machine.py`` in tier 1
#: (derandomized).  ``--hypothesis-profile lifecycle-random`` runs random
#: seeds with five times as many; a profile must be registered here, before
#: the option loads it.
LIFECYCLE_EXAMPLES = 25
settings.register_profile(
    "lifecycle-random", max_examples=5 * LIFECYCLE_EXAMPLES, derandomize=False, deadline=None
)


@pytest.fixture(scope="session")
def bundle():
    return build_default_corpus()


@pytest.fixture(scope="session")
def registry(bundle):
    return bundle.registry


@pytest.fixture(scope="session")
def chunks(bundle):
    return chunk_corpus(bundle)


@pytest.fixture(scope="session")
def embedding(chunks):
    return create_embedding_model(
        "petsc-embed-large", corpus_texts=[c.text for c in chunks]
    )


@pytest.fixture(scope="session")
def store(chunks, embedding):
    return VectorStore.from_documents(chunks, embedding)


@pytest.fixture(scope="session")
def keyword_search(bundle):
    return ManualPageKeywordSearch(bundle)


@pytest.fixture(scope="session")
def fast_config():
    """Workflow config with the latency burn disabled."""
    return ReproConfig(iterations_per_token=0)


@pytest.fixture(scope="session")
def grader(bundle, keyword_search):
    return BlindGrader(
        registry=bundle.registry, known_identifiers=keyword_search.known_identifiers()
    )


@pytest.fixture(scope="session")
def service(bundle, fast_config):
    """One engine-backed front door serving every mode via ``mode=``."""
    return open_service(fast_config, bundle=bundle)


@pytest.fixture(scope="session")
def baseline_pipeline(bundle, fast_config):
    return open_pipeline(fast_config, bundle=bundle, mode="baseline")


@pytest.fixture(scope="session")
def rag_pipeline(bundle, fast_config):
    return open_pipeline(fast_config, bundle=bundle, mode="rag")


@pytest.fixture(scope="session")
def rerank_pipeline(bundle, fast_config):
    return open_pipeline(fast_config, bundle=bundle, mode="rag+rerank")
