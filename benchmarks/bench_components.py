"""Micro-benchmarks of the pipeline components.

Not tied to one paper table — these isolate the stages whose sum Table II
reports, the way the paper's own instrumentation separates RAG time from
LLM time ("no optimization without measuring").
"""

from __future__ import annotations

import pytest

from repro.embeddings import create_embedding_model
from repro.retrieval import ManualPageKeywordSearch, VectorRetriever
from repro.vectorstore import VectorStore

from benchmarks.arms import BM25Retriever

QUERY = "After KSPSolve returns, how do I find out whether the iteration converged?"


@pytest.fixture(scope="module")
def small_emb():
    return create_embedding_model("petsc-embed-small")


@pytest.fixture(scope="module")
def small_store(chunks, small_emb):
    return VectorStore.from_documents(chunks, small_emb)


def test_embed_corpus_hashing(benchmark, chunks, small_emb):
    texts = [c.text for c in chunks]
    benchmark(lambda: small_emb.embed_documents(texts))


def test_embed_query_tfidf(benchmark, chunks):
    emb = create_embedding_model("petsc-embed-large", corpus_texts=[c.text for c in chunks])
    benchmark(lambda: emb.embed_query(QUERY))


def test_vector_search(benchmark, small_store):
    benchmark(lambda: small_store.similarity_search(QUERY, k=8))


def test_vector_retriever_k8(benchmark, small_store):
    retriever = VectorRetriever(small_store)
    benchmark(lambda: retriever.retrieve(QUERY, k=8))


def test_bm25_build(benchmark, chunks):
    benchmark(lambda: BM25Retriever(chunks))


def test_bm25_query(benchmark, chunks):
    retriever = BM25Retriever(chunks)
    benchmark(lambda: retriever.retrieve(QUERY, k=8))


def test_keyword_search(benchmark, bundle):
    kw = ManualPageKeywordSearch(bundle)
    benchmark(lambda: kw.retrieve(QUERY, k=2))


def test_llm_generation(benchmark, bundle):
    from repro.llm import ChatMessage, create_chat_model
    from repro.prompts import RAG_SYSTEM_PROMPT

    model = create_chat_model("gpt-4o-sim", registry=bundle.registry)
    msgs = [
        ChatMessage(role="system", content=RAG_SYSTEM_PROMPT),
        ChatMessage(role="user", content=f"### Question\n\n{QUERY}\n"),
    ]
    benchmark(lambda: model.complete(msgs))
