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
computation bit for bit; _nearest gives the full argument.
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
        step = max(1, BLOCK_CELLS // self.K)
        for start in range(0, q.shape[0], step):
            out[start : start + step] = _nearest(q[start : start + step], self.centroids)
        return out


# Unit roundoff of float64, and the smallest normal float64: results below it
# may lose their relative accuracy (or be flushed to zero).
_UNIT = 2.0**-53
_TINY = 2.0**-1022
# The screen settles only rows within this radius, far from overflow.
_MAX_RADIUS = 2.0**508


def _nearest(features: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid to each row, as an (n,) int64 array:
    squared Euclidean distance computed as ((x - c) ** 2).sum(axis=-1),
    lowest index on ties.

    The rows are screened first. With G_m = |c_m|^2 - 2 x.c_m, which one
    matrix product gives, a row settles on code m* = argmin G when every
    other G_m exceeds G_m* + B, where, for R = |x| + max_m |c_m| and
    gamma_j = j u / (1 - j u),

        B = 8 gamma_(d+4) R^2 + 32 (d + 1) tiny.

    Every other row, and every row with R > 2^508 or R not finite, takes the
    argmin of the exact sums, in blocks of at most BLOCK_CELLS // (K d) rows.

    Why a settled code is exact: let D_m be the computed exact sum and
    delta_m = |x - c_m|^2 <= R^2. Subtraction, squaring and the summation of
    d terms >= 0 in any order give |D_m - delta_m| <= gamma_(d+2) delta_m
    (Higham 2002, ch. 3); the sum of squares, the dot product in any order
    (blocked or fused, as a BLAS may do) and the subtraction give
    |G_m - (delta_m - |x|^2)| <= gamma_(d+1) R^2. So D_m - D_m* exceeds
    G_m - G_m* - 4 gamma_(d+2) R^2. The rounding of R, B and G_m* + B is
    covered by the factor 8 and by d+4 in place of d+2. An operation whose
    result lies below the smallest normal number, tiny, may err by up to
    tiny instead, even flushed to zero; such errors add up to less than
    (9d + 1) tiny in one D_m and G_m, so the absolute term covers two
    entries. Hence D_m > D_m* for every m != m*, and m* is the exact
    argmin: a tie, or a gap within the bound, leaves more than one
    candidate and goes to the exact sums, with their lowest-index rule. R <= 2^508 keeps every |c|^2,
    x.c and G far from overflow, while a squared difference or D_m
    overflows only if R > 2^512, so every row that overflows in the exact
    sums is summed that way and warns as it always has.
    """
    d = features.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        # (K, n): the reductions over centroids run along whole rows.
        c_sq = np.einsum("md,md->m", centroids, centroids)
        screen = centroids @ features.T
        screen *= -2.0
        screen += c_sq[:, None]
        radius = np.sqrt(np.einsum("nd,nd->n", features, features)) + np.sqrt(c_sq.max())
        nu = (d + 4) * _UNIT
        bound = 8.0 * nu / (1.0 - nu) * radius**2 + 32 * (d + 1) * _TINY
        candidates = screen <= screen.min(axis=0) + bound
    # A row with one candidate takes it; it is the minimum of the row.
    codes = np.argmax(candidates, axis=0)
    single = np.count_nonzero(candidates, axis=0) == 1
    redo = np.flatnonzero(~(single & (radius <= _MAX_RADIUS)))
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
        proposed = _nearest(X, centroids)
        repaired = repair_empty(proposed, K, lambda own: ((X - centroids[own]) ** 2).sum(axis=1))
        _update_centroids(X, repaired, centroids)
        return proposed, repaired, (float(((X - centroids[repaired]) ** 2).sum()), centroids.copy())

    # The all -1 start stands for the Forgy iteration; no proposal equals it.
    records, assignment, _ = alternate(np.full(n, -1, dtype=np.int64), step, max_iters)
    trace = tuple(inertia for inertia, _ in records)
    return KmeansModel(centroids=records[-1][1], inertia_trace=trace), Partition(assignment, K)


def kmeans_assign(model: KmeansModel, query: Sequence[float] | np.ndarray) -> int:
    """Index of the centroid nearest to one query; see KmeansModel.codes."""
    return int(model.codes([query])[0])
