"""k-nearest-neighbor estimation of per-vector class label distributions.

Neighbor search is exact brute force over the training rows (squared
Euclidean distance), which keeps results deterministic and oracle-checkable
at the dataset sizes this library targets. Distance ties are broken by the
lower row index.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError


def require_int(value: object, name: str) -> int:
    """value as an int; raises ParameterError unless it has an integer type (bool excluded)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_int_array(values: object, name: str) -> np.ndarray:
    """values as an int64 array; raises ParameterError if any entry is real or boolean."""
    array = np.asarray(values)
    # np.asarray turns a list mixing bools and ints into ints; look at the items.
    items = values if array.ndim == 1 and not isinstance(values, np.ndarray) else ()
    if array.size and (array.dtype.kind not in "iu" or any(isinstance(v, bool) for v in items)):
        raise ParameterError(f"{name} must be integers, not reals or booleans")
    return array.astype(np.int64, copy=False)


def require_real(value: object, name: str) -> float:
    """value as a float; raises ParameterError unless it is a finite real number (bool excluded)."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, (bool, np.bool_))
    # The bound test is false for NaN, infinities and integers beyond the float range.
    if not real or not abs(value) <= sys.float_info.max:
        raise ParameterError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def real_matrix(values: object, name: str) -> np.ndarray:
    """Integer or real values as a finite float64 (n, d) matrix with n, d >= 1;
    raises ParameterError otherwise."""
    matrix = np.asarray(values)
    if matrix.dtype.kind not in "iuf":
        raise ParameterError(f"{name} must hold real numbers, got {matrix.dtype} entries")
    matrix = matrix.astype(np.float64, copy=False)
    if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
        raise ParameterError(f"{name} must be a nonempty (N, d) matrix, got {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ParameterError(f"{name} contain NaN or Inf entries")
    return matrix


@dataclass(frozen=True)
class LabeledDataset:
    """N feature vectors with integer class labels.

    features: (N, d) array of finite reals.
    labels: (N,) array of class indices in [0, C).
    class_names: C distinct identifiers, indexed by label value.
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self) -> None:
        features = real_matrix(self.features, "features")
        labels = require_int_array(self.labels, "labels")
        names = tuple(str(name) for name in self.class_names)
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ParameterError(
                f"labels must be a length-{features.shape[0]} vector, got shape {labels.shape}"
            )
        if len(names) < 1 or len(set(names)) != len(names):
            raise ParameterError("class_names must be nonempty and distinct")
        if labels.min() < 0 or labels.max() >= len(names):
            raise ParameterError(f"labels must lie in [0, {len(names)})")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", names)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


@dataclass(frozen=True)
class KnnConfig:
    """Neighbor count and whether a training row may count as its own neighbor."""

    k: int = 10
    include_self: bool = True

    def __post_init__(self) -> None:
        if require_int(self.k, "k") < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if not isinstance(self.include_self, (bool, np.bool_)):
            raise ParameterError(f"include_self must be true or false, got {self.include_self!r}")

    def clipped(self, n_points: int) -> "KnnConfig":
        """Copy with k reduced to the largest legal value for n_points rows."""
        bound = n_points if self.include_self else n_points - 1
        if bound < 1:
            raise ParameterError(f"no legal k for {n_points} points with include_self={self.include_self}")
        return replace(self, k=min(self.k, bound))


# Query rows per block are chosen so that one (rows, N) float64 temporary
# stays near 1 MB, which keeps the peak memory of a batch flat in its size.
BLOCK_CELLS = 1 << 17


def _smallest_k(dists: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest entries, ordered by (value, index) ascending."""
    n = dists.shape[0]
    if k >= n:
        return np.lexsort((np.arange(n), dists))
    kth = np.partition(dists, k - 1)[k - 1]
    strict = np.flatnonzero(dists < kth)
    strict = strict[np.argsort(dists[strict], kind="stable")]
    ties = np.flatnonzero(dists == kth)
    return np.concatenate([strict, ties[: k - strict.shape[0]]])


def as_queries(queries: Sequence[Sequence[float]] | np.ndarray, dim: int) -> np.ndarray:
    """Query vectors as a finite float64 (n, dim) matrix; raises ParameterError otherwise."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != dim:
        raise ParameterError(f"query vectors must have dimension {dim}, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ParameterError("query contains NaN or Inf entries")
    return q


def _sq_dists(columns: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """(B, N) squared Euclidean distances from B queries to N rows given as (d, N) columns.

    The squares are added one coordinate at a time in index order, the
    summation order of a plain loop over coordinates.
    """
    out = np.subtract(columns[0], queries[:, :1])
    np.multiply(out, out, out=out)
    term = np.empty_like(out)
    for j in range(1, columns.shape[0]):
        np.subtract(columns[j], queries[:, j : j + 1], out=term)
        np.multiply(term, term, out=term)
        out += term
    return out


def _leave_out_rows(
    dataset: LabeledDataset,
    config: KnnConfig,
    leave_out: Optional[Sequence[int] | np.ndarray],
) -> Optional[np.ndarray]:
    """The honored leave-out rows (None when include_self is true), after
    checking them and that k does not exceed the candidates left."""
    if config.include_self or leave_out is None:
        leave_out, available = None, dataset.n
    else:
        leave_out = np.asarray(leave_out, dtype=np.int64)
        if leave_out.size and (leave_out.min() < 0 or leave_out.max() >= dataset.n):
            raise ParameterError(f"leave-out row index not in [0, {dataset.n})")
        available = dataset.n - 1
    if config.k > available:
        raise ParameterError(f"k={config.k} exceeds the {available} available neighbor candidates")
    return leave_out


def knn_indices(
    dataset: LabeledDataset,
    query: Sequence[float] | np.ndarray,
    config: KnnConfig,
    exclude_index: Optional[int] = None,
) -> np.ndarray:
    """Row indices of the k nearest dataset rows to query.

    Nearness is squared Euclidean distance; ties go to the lower row index
    and the result is sorted by (distance, index) ascending. exclude_index
    removes one row from the candidate set and is honored only when
    config.include_self is false (its intended use is leave-self-out queries).
    """
    q = as_queries([query], dataset.dim)
    leave_out = _leave_out_rows(dataset, config, None if exclude_index is None else [exclude_index])
    dists = _sq_dists(dataset.features.T, q)[0]
    if leave_out is not None:
        dists[leave_out[0]] = np.inf
    return _smallest_k(dists, config.k)


def label_distributions(
    dataset: LabeledDataset,
    queries: Sequence[Sequence[float]] | np.ndarray,
    config: KnnConfig,
    leave_out: Optional[Sequence[int] | np.ndarray] = None,
) -> np.ndarray:
    """Class label distributions of the k nearest neighbors of each query, as (n, C).

    Row i is the fraction of query i's k nearest dataset rows (squared
    Euclidean distance, ties to the lower row index) labeled c. leave_out,
    one dataset row per query, is removed from that query's candidates when
    config.include_self is false (leave-self-out estimates).

    Queries are processed in blocks of about BLOCK_CELLS distances. Where
    more than k rows lie within a query's kth-smallest distance the
    neighbor set is ambiguous, and that query is resolved by the exact
    (distance, index) rule instead.
    """
    q = as_queries(queries, dataset.dim)
    leave_out = _leave_out_rows(dataset, config, leave_out)
    if leave_out is not None and leave_out.shape != (q.shape[0],):
        raise ParameterError(f"leave_out must hold one row index per query, got shape {leave_out.shape}")
    k, C = config.k, dataset.num_classes
    columns = np.ascontiguousarray(dataset.features.T)
    step = max(1, BLOCK_CELLS // dataset.n)
    out = np.empty((q.shape[0], C), dtype=np.float64)
    for start in range(0, q.shape[0], step):
        dists = _sq_dists(columns, q[start : start + step])
        rows = np.arange(dists.shape[0])
        if leave_out is not None:
            dists[rows, leave_out[start : start + step]] = np.inf
        nearest = np.argpartition(dists, k - 1, axis=1)[:, :k]
        kth = dists[rows, nearest[:, k - 1]]
        ambiguous = np.count_nonzero(dists <= kth[:, None], axis=1) > k
        for row in np.flatnonzero(ambiguous):
            nearest[row] = _smallest_k(dists[row], k)
        flat = (rows[:, None] * C + dataset.labels[nearest]).ravel()
        counts = np.bincount(flat, minlength=dists.shape[0] * C).reshape(-1, C)
        out[start : start + step] = counts / float(k)
    return out


def estimate_all(dataset: LabeledDataset, config: KnnConfig) -> np.ndarray:
    """Label distribution for every training row, as an (N, C) array.

    Row i is label_distributions for query row i, leaving row i out of its
    own candidates when include_self is false.
    """
    return label_distributions(dataset, dataset.features, config, np.arange(dataset.n))
