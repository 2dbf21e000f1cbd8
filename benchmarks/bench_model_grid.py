"""E8 — the model-comparison grid (Section V-B).

Paper: "We conducted experiments with several popular LLMs, including
OpenAI's GPT-4 variants and Meta's Llama3 variants, alongside various
embedding models.  Our analysis identified GPT-4o and
text-embedding-3-large as providing the best overall performance."

This bench sweeps every registered chat model against every registered
embedding model on a benchmark subset and prints the mean-score grid.
The simulated counterparts of the paper's winners must come out on top.
"""

from __future__ import annotations

from repro.config import RetrievalConfig, ReproConfig
from repro.embeddings import EMBEDDING_MODEL_NAMES
from repro.evaluation import krylov_benchmark, run_experiment
from repro.llm import CHAT_MODEL_NAMES
from repro.api import open_service

#: Subset keeps the grid affordable: 4 chat models x 3 embeddings.
SUBSET_SIZE = 16


def test_model_grid(benchmark, bundle, grader):
    questions = krylov_benchmark()[:SUBSET_SIZE]

    def sweep():
        grid: dict[tuple[str, str], float] = {}
        for chat in CHAT_MODEL_NAMES:
            for emb in EMBEDDING_MODEL_NAMES:
                cfg = ReproConfig(
                    chat_model=chat,
                    retrieval=RetrievalConfig(embedding_model=emb),
                    iterations_per_token=0,
                )
                service = open_service(cfg, bundle=bundle)
                run = run_experiment(service, grader, mode="rag+rerank", questions=questions)
                grid[(chat, emb)] = run.mean_score()
        return grid

    grid = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    print(f"mean rubric score over {SUBSET_SIZE} questions (rag+rerank)")
    header = f"{'chat model':<18}" + "".join(f"{e.split('-')[-1]:>10}" for e in EMBEDDING_MODEL_NAMES)
    print(header)
    for chat in CHAT_MODEL_NAMES:
        row = f"{chat:<18}" + "".join(
            f"{grid[(chat, emb)]:>10.2f}" for emb in EMBEDDING_MODEL_NAMES
        )
        print(row)

    best_pair = max(grid, key=grid.get)
    print(f"\nbest combination: {best_pair[0]} + {best_pair[1]}")

    # Paper shape: the GPT-4o-class model with the large embedding wins
    # (ties broken in its favor are acceptable).
    top = grid[("gpt-4o-sim", "petsc-embed-large")]
    assert top >= max(grid.values()) - 1e-9
    # The weakest model/embedding must not beat the strongest pairing.
    assert grid[("llama-3-8b-sim", "petsc-embed-mini")] <= top
