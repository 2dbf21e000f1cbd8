"""The top-k selection kernel behind every score-ranked search."""

from __future__ import annotations

import numpy as np

from repro.errors import EmbeddingError


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, in descending score order.

    Uses ``argpartition`` (O(n)) followed by a sort of only the top slice,
    the standard trick for k ≪ n.  Ties break deterministically by lower
    index first.
    """
    scores = np.asarray(scores)
    if scores.ndim != 1:
        raise EmbeddingError(f"scores must be 1-D, got shape {scores.shape}")
    k = min(k, scores.shape[0])
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    part = np.argpartition(-scores, k - 1)[:k]
    # argpartition makes an arbitrary choice among elements tied at the
    # k-th score, so widen to every index tied with that boundary score
    # before the deterministic (-score, index) sort — otherwise top-k is
    # not a prefix of top-(k+1) when ties straddle the cut.
    cand = np.nonzero(scores >= scores[part].min())[0]
    order = np.lexsort((cand, -scores[cand]))
    return cand[order[:k]]
