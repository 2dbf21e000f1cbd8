"""Second-pass reranking (paper Section III-D, Fig. 4).

The first pass retrieves K=8 candidates quickly; the reranker re-scores
each (query, document) pair with a finer-grained token-interaction model
and keeps the best L=4.  Two rerankers mirror the paper's comparison:

* :class:`FlashrankLiteReranker` — lightweight CPU scorer (the paper's
  Flashrank choice): IDF-weighted term coverage + exact identifier and
  bigram bonuses.
* :class:`NvidiaSimReranker` — a heavier cross-encoder simulation (the
  paper's NVIDIA reranker): adds positional proximity scoring over a full
  token-interaction matrix, batched.  Similar accuracy, more compute —
  exactly the trade-off reported in Section V-B.
"""

from repro.rerank.base import Reranker, RerankResult
from repro.rerank.scoring import InteractionScorer, build_idf
from repro.rerank.flashrank import FlashrankLiteReranker
from repro.rerank.nvidia_sim import NvidiaSimReranker

__all__ = [
    "Reranker",
    "RerankResult",
    "InteractionScorer",
    "build_idf",
    "FlashrankLiteReranker",
    "NvidiaSimReranker",
]
