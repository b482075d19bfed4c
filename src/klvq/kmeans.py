"""Plain Lloyd k-means over feature vectors, the unsupervised baseline quantizer.

Forgy initialization (K distinct rows sampled with a seeded generator),
squared-Euclidean assignment with lowest-index tie-breaks, mean updates, and
farthest-point reseeding of empty clusters. The same determinism and repair
rule (partition.repair_empty) as the KL quantizer, so the two are comparable.

Nearest centroids come from one matrix product, |c|^2 - 2 x.c per row and
centroid, screened by a bound on the rounding error of both it and the
direct sum ((x - c) ** 2).sum(axis=-1). A row takes the screen's argmin
only when every other centroid lies beyond the bound, so the direct sums
would rank that centroid strictly first; every other row (ties, near ties,
magnitudes that underflow or overflow) is summed directly. Codes, and so
centroids, traces and partitions, equal those of the direct (n, K, d)
computation bit for bit; label_model.screen_bound gives the full argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .errors import ParameterError
from .label_model import BLOCK_CELLS, as_queries, real_matrix, require_int, require_real, screen_bound
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
        step = max(1, BLOCK_CELLS // self.K)
        for start in range(0, q.shape[0], step):
            out[start : start + step] = _nearest(q[start : start + step], self.centroids)
        return out


def _nearest(features: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid to each row, as an (n,) int64 array:
    squared Euclidean distance computed as ((x - c) ** 2).sum(axis=-1),
    lowest index on ties.

    The rows are screened first. With G_m = |c_m|^2 - 2 x.c_m, which one
    matrix product gives, a row settles on code m* = argmin G when every
    other G_m exceeds G_m* + B, for the rounding bound B of screen_bound
    (R = |x| + max_m |c_m|). Every other row, and every row screen_bound
    does not certify (R > 2^508 or not finite), takes the argmin of the exact
    sums, in blocks of at most BLOCK_CELLS // (K d) rows.

    Why a settled code is exact: by screen_bound, G_m > G_m* + B makes
    D_m > D_m* in the exact sums for every m != m*, so m* is the exact
    argmin. A tie, or a gap within the bound, leaves more than one candidate
    and goes to the exact sums, with their lowest-index rule; so does every
    row that could overflow, which therefore warns as it always has.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # (K, n): the reductions over centroids run along whole rows.
        c_sq = np.einsum("md,md->m", centroids, centroids)
        screen = centroids @ features.T
        screen *= -2.0
        screen += c_sq[:, None]
        radius = np.sqrt(np.einsum("nd,nd->n", features, features)) + np.sqrt(c_sq.max())
        bound, certified = screen_bound(features.shape[1], radius)
        candidates = screen <= screen.min(axis=0) + bound
    # A row with one candidate takes it; it is the minimum of the row.
    codes = np.argmax(candidates, axis=0)
    single = np.count_nonzero(candidates, axis=0) == 1
    redo = np.flatnonzero(~(single & certified))
    step = max(1, BLOCK_CELLS // centroids.size)
    for start in range(0, redo.shape[0], step):
        rows = redo[start : start + step]
        codes[rows] = np.argmin(((features[rows][:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1)
    return codes


def _update_centroids(X: np.ndarray, assignment: np.ndarray, centroids: np.ndarray) -> None:
    """Set each centroid to the mean of its members (every cluster has one).

    One stable sort lists the members of each cluster in row order, as
    X[assignment == m] does, so each mean is taken over the same matrix."""
    members = X[np.argsort(assignment, kind="stable")]
    sizes = np.bincount(assignment, minlength=centroids.shape[0])
    for m, stop in enumerate(np.cumsum(sizes)):
        centroids[m] = members[stop - sizes[m] : stop].mean(axis=0)


def kmeans_fit(
    features: np.ndarray,
    K: int,
    seed: int = 0,
    max_iters: int = 100,
) -> tuple[KmeansModel, Partition]:
    """Standard Lloyd iteration; stops at an assignment fixpoint, at the
    first repeated assignment, or after max_iters (partition.alternate).

    The inertia recorded after each iteration (sum of squared distances of
    points to their updated centroids) is non-increasing and is kept on the
    model as inertia_trace. From the second iteration on, an iteration is a
    function of the repaired assignment the previous one left, so a fit that
    stops before max_iters off a fixpoint has entered a cycle. The centroids
    and partition are those of the last iteration.
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

    def step(assignment: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        proposed = _nearest(X, centroids)
        repaired = repair_empty(proposed, K, lambda own: ((X - centroids[own]) ** 2).sum(axis=1))
        _update_centroids(X, repaired, centroids)
        return proposed, repaired, float(((X - centroids[repaired]) ** 2).sum())

    # The all -1 start stands for the Forgy iteration; no assignment of the loop equals it.
    trace, assignment, _ = alternate(np.full(n, -1, dtype=np.int64), step, max_iters)
    return KmeansModel(centroids=centroids, inertia_trace=tuple(trace)), Partition(assignment, K)


def kmeans_assign(model: KmeansModel, query: Sequence[float] | np.ndarray) -> int:
    """Index of the centroid nearest to one query; see KmeansModel.codes."""
    return int(model.codes([query])[0])
