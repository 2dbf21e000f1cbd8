"""kNN indexes over a contiguous embedding matrix.

:class:`BruteForceIndex` is exact: one GEMV over a row-major float32
matrix, following the HPC guidance (contiguous access, no Python-level
loops in the hot path).  :class:`IVFIndex` trades recall for speed with
coarse k-means clustering and ``nprobe`` cluster scans — used by the
approximate-search ablation benchmark.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.embeddings.similarity import top_k_indices
from repro.errors import VectorStoreError


class VectorIndex(ABC):
    """Grows-only index over L2-normalized vectors."""

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise VectorStoreError(f"index dim must be positive, got {dim}")
        self.dim = dim

    @abstractmethod
    def add(self, vectors: np.ndarray) -> None:
        """Append rows (n, dim)."""

    @abstractmethod
    def search(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (indices, scores) of the top-k most similar rows."""

    @property
    @abstractmethod
    def size(self) -> int:
        """Number of stored vectors."""

    def _check_query(self, query: np.ndarray) -> np.ndarray:
        q = np.asarray(query, dtype=np.float32).reshape(-1)
        if q.shape[0] != self.dim:
            raise VectorStoreError(f"query dim {q.shape[0]} != index dim {self.dim}")
        return q


class BruteForceIndex(VectorIndex):
    """Exact inner-product search with amortized-doubling storage."""

    def __init__(self, dim: int, *, initial_capacity: int = 1024) -> None:
        super().__init__(dim)
        self._data = np.empty((max(initial_capacity, 1), dim), dtype=np.float32)
        self._n = 0

    @property
    def size(self) -> int:
        return self._n

    @property
    def matrix(self) -> np.ndarray:
        """A read-only view of the stored vectors (no copy)."""
        view = self._data[: self._n]
        view.flags.writeable = False
        return view

    def add(self, vectors: np.ndarray) -> None:
        vecs = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vecs.shape[1] != self.dim:
            raise VectorStoreError(f"vector dim {vecs.shape[1]} != index dim {self.dim}")
        needed = self._n + vecs.shape[0]
        if needed > self._data.shape[0]:
            new_cap = max(needed, 2 * self._data.shape[0])
            grown = np.empty((new_cap, self.dim), dtype=np.float32)
            grown[: self._n] = self._data[: self._n]
            self._data = grown
        self._data[self._n : needed] = vecs
        self._n = needed

    def search(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        q = self._check_query(query)
        if self._n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        scores = self._data[: self._n] @ q
        idx = top_k_indices(scores, k)
        return idx, scores[idx]


class IVFIndex(VectorIndex):
    """Inverted-file (coarse k-means) approximate index.

    Vectors are buffered until :meth:`train` (or the first search, which
    trains lazily).  Search scans only the ``nprobe`` closest clusters.
    """

    def __init__(self, dim: int, *, n_clusters: int = 16, nprobe: int = 4, seed: int = 7) -> None:
        super().__init__(dim)
        if n_clusters < 1:
            raise VectorStoreError(f"n_clusters must be >= 1, got {n_clusters}")
        if not 1 <= nprobe:
            raise VectorStoreError(f"nprobe must be >= 1, got {nprobe}")
        self.n_clusters = n_clusters
        self.nprobe = nprobe
        self.seed = seed
        self._pending: list[np.ndarray] = []
        self._n = 0
        self._centroids: np.ndarray | None = None
        self._cluster_rows: list[np.ndarray] = []
        self._cluster_ids: list[np.ndarray] = []

    @property
    def size(self) -> int:
        return self._n

    @property
    def is_trained(self) -> bool:
        return self._centroids is not None

    def add(self, vectors: np.ndarray) -> None:
        vecs = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vecs.shape[1] != self.dim:
            raise VectorStoreError(f"vector dim {vecs.shape[1]} != index dim {self.dim}")
        if self.is_trained:
            raise VectorStoreError("IVFIndex does not support adding after training")
        self._pending.append(vecs.copy())
        self._n += vecs.shape[0]

    def train(self, *, iterations: int = 8) -> None:
        """Run mini k-means over buffered vectors and build inverted lists."""
        if self.is_trained:
            return
        if self._n == 0:
            raise VectorStoreError("cannot train an empty IVF index")
        data = np.concatenate(self._pending, axis=0)
        self._pending.clear()
        k = min(self.n_clusters, data.shape[0])
        rng = np.random.default_rng(self.seed)
        centroids = data[rng.choice(data.shape[0], size=k, replace=False)].copy()
        assign = np.zeros(data.shape[0], dtype=np.int64)
        for _ in range(iterations):
            # E-step: nearest centroid by inner product (vectors normalized).
            assign = np.argmax(data @ centroids.T, axis=1)
            # M-step: recompute centroids; empty clusters keep their position.
            for c in range(k):
                members = data[assign == c]
                if members.shape[0]:
                    centroid = members.mean(axis=0)
                    norm = np.linalg.norm(centroid)
                    if norm > 0:
                        centroids[c] = centroid / norm
        self._centroids = centroids
        self._cluster_rows = []
        self._cluster_ids = []
        for c in range(k):
            ids = np.nonzero(assign == c)[0]
            self._cluster_ids.append(ids)
            self._cluster_rows.append(np.ascontiguousarray(data[ids]))

    def search(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        q = self._check_query(query)
        if self._n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        if not self.is_trained:
            self.train()
        assert self._centroids is not None
        nprobe = min(self.nprobe, self._centroids.shape[0])
        probe = top_k_indices(self._centroids @ q, nprobe)
        cand_ids = np.concatenate([self._cluster_ids[c] for c in probe])
        if cand_ids.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        cand_scores = np.concatenate([self._cluster_rows[c] @ q for c in probe])
        local = top_k_indices(cand_scores, k)
        return cand_ids[local], cand_scores[local]
