"""Plain Lloyd k-means over feature vectors, the unsupervised baseline quantizer.

Forgy initialization (K distinct rows sampled with a seeded generator),
squared-Euclidean assignment with lowest-index tie-breaks, mean updates, and
farthest-point reseeding of empty clusters. The same determinism and repair
rule (partition.repair_empty) as the KL quantizer, so the two are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .errors import ParameterError
from .label_model import BLOCK_CELLS, as_queries, real_matrix, require_int, require_real
from .partition import Partition, alternate, repair_empty


@dataclass(frozen=True)
class KmeansModel:
    """Fitted centroids plus the inertia after each fit iteration; K,
    inertia and iterations_run are derived from them."""

    kind: ClassVar[str] = "kmeans"

    centroids: np.ndarray
    inertia_trace: tuple[float, ...]

    def __post_init__(self) -> None:
        centroids = real_matrix(self.centroids, "centroids")
        trace = tuple(require_real(v, "inertia_trace entries") for v in self.inertia_trace)
        if not trace or min(trace) < 0:
            raise ParameterError("inertia_trace must be a nonempty sequence of values >= 0")
        object.__setattr__(self, "centroids", centroids)
        object.__setattr__(self, "inertia_trace", trace)

    @property
    def K(self) -> int:
        return self.centroids.shape[0]

    @property
    def M(self) -> int:
        return self.K

    @property
    def inertia(self) -> float:
        return self.inertia_trace[-1]

    @property
    def iterations_run(self) -> int:
        return len(self.inertia_trace)

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    def codes(self, queries: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
        """Index of the centroid nearest to every query row, as an (n,) int64
        array (squared Euclidean, lowest index on ties)."""
        q = as_queries(queries, self.dim)
        out = np.empty(q.shape[0], dtype=np.int64)
        step = max(1, BLOCK_CELLS // self.centroids.size)
        for start in range(0, q.shape[0], step):
            out[start : start + step] = _nearest(q[start : start + step], self.centroids)[0]
        return out


def _nearest(features: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid assignment and the full squared-distance matrix."""
    sq = ((features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(sq, axis=1), sq


def _update_centroids(X: np.ndarray, assignment: np.ndarray, centroids: np.ndarray) -> None:
    """Set each centroid to the mean of its members (every cluster has one)."""
    for m in range(centroids.shape[0]):
        centroids[m] = X[assignment == m].mean(axis=0)


def kmeans_fit(
    features: np.ndarray,
    K: int,
    seed: int = 0,
    max_iters: int = 100,
) -> tuple[KmeansModel, Partition]:
    """Standard Lloyd iteration; stops at an assignment fixpoint or max_iters.

    The inertia recorded after each iteration (sum of squared distances of
    points to their updated centroids) is non-increasing and is kept on the
    model as inertia_trace. From the second iteration on, an iteration is a
    function of the repaired assignment the previous one left, so once such
    an assignment comes back the recorded cycle is replayed up to max_iters
    (partition.alternate): trace, centroids and partition are those that
    running every iteration gives.
    """
    X = real_matrix(features, "features")
    n = X.shape[0]
    if not 1 <= require_int(K, "K") <= n:
        raise ParameterError(f"K={K} must lie in [1, {n}]")
    if require_int(seed, "seed") < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {seed}")
    if require_int(max_iters, "max_iters") < 1:
        raise ParameterError(f"max_iters must be >= 1, got {max_iters}")

    rng = np.random.default_rng(seed)
    centroids = X[rng.choice(n, size=K, replace=False)].copy()

    def step(assignment: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[float, np.ndarray]]:
        proposed, sq = _nearest(X, centroids)
        repaired = repair_empty(proposed, K, lambda own: sq[np.arange(own.shape[0]), own])
        _update_centroids(X, repaired, centroids)
        return proposed, repaired, (float(((X - centroids[repaired]) ** 2).sum()), centroids.copy())

    # The all -1 start stands for the Forgy iteration; no proposal equals it.
    records, assignment, _ = alternate(np.full(n, -1, dtype=np.int64), step, max_iters)
    trace = tuple(inertia for inertia, _ in records)
    return KmeansModel(centroids=records[-1][1], inertia_trace=trace), Partition(assignment, K)


def kmeans_assign(model: KmeansModel, query: Sequence[float] | np.ndarray) -> int:
    """Index of the centroid nearest to one query; see KmeansModel.codes."""
    return int(model.codes([query])[0])
