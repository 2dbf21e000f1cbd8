#!/usr/bin/env python
"""Try candidate question rewordings: report embedding ranks of the gold
fact chunks and the scores each pipeline mode would get.

Edit CANDIDATES below, run, and inspect.  Used to craft the user-speak
phrasings of the benchmark (the paper: "A user's initial question may be
vague, lack context, or use incorrect PETSc terminology").
"""

from __future__ import annotations

import numpy as np

from repro.config import ReproConfig
from repro.corpus import build_default_corpus
from repro.corpus.builder import chunk_corpus
from repro.embeddings import create_embedding_model
from repro.evaluation import BlindGrader
from repro.evaluation.benchmark import BenchmarkQuestion, krylov_benchmark
from repro.api import open_pipeline
from repro.retrieval import ManualPageKeywordSearch
from repro.vectorstore import VectorStore

# (qid, new_text) — key/extra facts inherited from the original question.
CANDIDATES: list[tuple[str, str]] = [
    ("Q05", "Our application hardwires one solver right now. We would like to try "
            "several different Krylov methods on the same problem without recompiling "
            "each time. What is the PETSc way to switch?"),
    ("Q10", "We warm-start each step from the previous solution vector, but the "
            "iteration counts do not drop at all compared to starting from scratch. "
            "Is PETSc ignoring the vector we pass in?"),
    ("Q13", "Long runs on our cluster get killed by the out-of-memory killer; the "
            "resident memory climbs steadily while the default linear solver "
            "iterates. Is this a leak in PETSc?"),
    ("Q17", "Our operator is only available as a forward action y = A x; there is no "
            "way to apply its adjoint. Can we still use the stabilized biconjugate "
            "gradient solver?"),
    ("Q24", "During the setup of the factorization our run aborts with a "
            "division-by-zero-like failure on the diagonal. The matrix comes from a "
            "mixed finite element discretization. How do we get past this?"),
    ("Q25", "Our pressure solve for incompressible flow stalls around a relative "
            "accuracy of 1e-3 no matter how many iterations we allow. The discrete "
            "operator has the constant vector in its kernel. What are we missing?"),
    ("Q31", "At extreme scale, why do multigrid configurations prefer a polynomial "
            "iteration as the smoother instead of CG or GMRES?"),
    ("Q34", "Every outer optimization step updates the matrix entries. Destroying "
            "and recreating the whole solver each step feels wasteful — is there a "
            "cheaper supported pattern?"),
    ("Q14", "Picking the cycle length for the restarted solver feels like a dark "
            "art. What exactly gets worse when it is small, and is cranking it way "
            "up always the right call?"),
    ("Q16", "The convergence curve of our stabilized biconjugate gradient runs looks "
            "like a seismograph. Is there a knob or a cousin of this method that "
            "behaves less wildly?"),
    ("Q30", "We want to try the polynomial (Chebyshev-type) iteration as a smoother. "
            "What does it need from us to work at all, and what happens if we just "
            "turn it on?"),
]


def main() -> None:
    bundle = build_default_corpus()
    chunks = chunk_corpus(bundle)
    emb = create_embedding_model("petsc-embed-large", corpus_texts=[c.text for c in chunks])
    store = VectorStore.from_documents(chunks, emb)
    cfg = ReproConfig(iterations_per_token=0)
    kw = ManualPageKeywordSearch(bundle)
    grader = BlindGrader(registry=bundle.registry, known_identifiers=kw.known_identifiers())
    pipes = {m: open_pipeline(cfg, bundle=bundle, mode=m) for m in ("baseline", "rag", "rag+rerank")}
    questions = {q.qid: q for q in krylov_benchmark()}

    for qid, text in CANDIDATES:
        base = questions[qid]
        q = BenchmarkQuestion(
            qid=qid, text=text, key_facts=base.key_facts,
            extra_facts=base.extra_facts, kind=base.kind,
        )
        qvec = emb.embed_query(q.text)
        s = store.matrix @ qvec
        order = np.argsort(-s)
        ranks = []
        for fid in q.key_facts + q.extra_facts:
            pos = [r + 1 for r, i in enumerate(order) if fid in (chunks[i].metadata.get("facts") or "")]
            ranks.append((fid.split(".")[-1][:12], pos[:2]))
        scores = {}
        for mode, p in pipes.items():
            res = p.answer(q.text)
            scores[mode] = int(grader.grade(q, res.answer).score)
        print(f"{qid} base={scores['baseline']} rag={scores['rag']} rrk={scores['rag+rerank']}  ranks={ranks}")


if __name__ == "__main__":
    main()
