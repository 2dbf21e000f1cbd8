"""Shared fixtures for the benchmark harness.

The experiment runs are session-scoped and shared across bench files:
``runs_fast`` (latency burn disabled — used by the Fig. 6 score
comparisons, where only scores matter) and ``runs_timed`` (burn enabled —
used by the Table II latency reproduction).
"""

from __future__ import annotations

import pytest

from repro.config import ReproConfig
from repro.corpus import build_default_corpus
from repro.corpus.builder import chunk_corpus
from repro.evaluation import BlindGrader, run_experiment
from repro.api import open_service
from repro.retrieval import ManualPageKeywordSearch


@pytest.fixture(scope="session")
def bundle():
    return build_default_corpus()


@pytest.fixture(scope="session")
def chunks(bundle):
    return chunk_corpus(bundle)


@pytest.fixture(scope="session")
def grader(bundle):
    kw = ManualPageKeywordSearch(bundle)
    return BlindGrader(registry=bundle.registry, known_identifiers=kw.known_identifiers())


@pytest.fixture(scope="session")
def runs_fast(bundle, grader):
    service = open_service(ReproConfig(iterations_per_token=0), bundle=bundle)
    return {
        mode: run_experiment(service, grader, mode=mode)
        for mode in ("baseline", "rag", "rag+rerank")
    }


@pytest.fixture(scope="session")
def runs_timed(bundle, grader):
    cfg = ReproConfig()  # persona-default latency burn
    # One engine per mode: a shared one would serve the second mode's
    # first-pass retrieval from the first mode's retrieval cache.
    return {
        mode: run_experiment(open_service(cfg, bundle=bundle), grader, mode=mode)
        for mode in ("rag", "rag+rerank")
    }
