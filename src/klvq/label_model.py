"""k-nearest-neighbor estimation of per-vector class label distributions.

Neighbor search is exact (squared Euclidean distance, ties to the lower
row index), which keeps results deterministic and oracle-checkable.
knn_indices and label_distributions run the same search. It splits the
training rows into k-d leaves and the queries into groups of nearby
queries, and for each group skips the leaves whose box-to-box gap exceeds a
bound on its queries' kth distances. The gap is summed in the order of the
distances and rounding is monotone, so a skipped row can neither beat nor
tie a kth neighbor. A group that can skip no leaf (high d) is screened
instead: one matrix product gives |y|^2 - 2 q.y for every row, and only the
rows within twice a certified rounding bound (screen_bound) of a query's
kth screened value are searched. Either way the result equals brute force
bit for bit.
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
    try:
        matrix = np.asarray(values)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise ParameterError(f"{name} must be an (N, d) matrix, got rows of unequal length") from None
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

# Training rows per k-d leaf and queries per group of the pruned search.
LEAF_SIZE = 32
GROUP_SIZE = 32

# Unit roundoff of float64, and the smallest normal float64: results below it
# may lose their relative accuracy (or be flushed to zero).
_UNIT = 2.0**-53
_TINY = 2.0**-1022
# A screen is certified only for radii up to this, far from overflow.
_MAX_RADIUS = 2.0**508


def screen_bound(d: int, radius: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, certified) for screening squared distances in d dimensions by one
    matrix product, for queries whose radius R is given.

    For a query x and rows y_m (centroids, or training rows), the screen
    value G_m = |y_m|^2 - 2 x.y_m comes from one matrix product, and the
    direct distance D_m sums (x_j - y_mj)^2 over the d coordinates (in index
    order, pairwise, or any other order). With R = |x| + max_m |y_m| and
    gamma_j = j u / (1 - j u),

        B = 8 gamma_(d+4) R^2 + 32 (d + 1) tiny,

    and certified is R <= 2^508 (false when R is not finite). For a
    certified query and any two rows m and m', the direct distances differ
    by more than G_m - G_m' - B: a row whose G exceeds another's by more
    than B is strictly farther in the direct sums too.

    Why: let delta_m = |x - y_m|^2 <= R^2. Subtraction, squaring and the
    summation of d terms >= 0 in any order give |D_m - delta_m| <=
    gamma_(d+2) delta_m (Higham 2002, ch. 3); the sum of squares, the dot
    product in any order (blocked or fused, as a BLAS may do) and the
    subtraction give |G_m - (delta_m - |x|^2)| <= gamma_(d+1) R^2. So
    D_m - D_m' exceeds G_m - G_m' - 4 gamma_(d+2) R^2. The rounding of R, of
    B and of adding a small multiple of B to a screen value is covered by the
    factor 8 and by d+4 in place of d+2. An operation whose result lies
    below the smallest normal number, tiny, may err by up to tiny instead,
    even flushed to zero; such errors add up to less than (9d + 1) tiny in
    one D_m and G_m, so the absolute term covers two entries. R <= 2^508
    keeps every |y|^2, x.y and G far from overflow, while a squared
    difference or D_m overflows only if R > 2^512, so a caller that sums
    every uncertified query directly warns as the direct sums always have.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        nu = (d + 4) * _UNIT
        bound = 8.0 * nu / (1.0 - nu) * radius**2 + 32 * (d + 1) * _TINY
    return bound, radius <= _MAX_RADIUS


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
    """Query vectors as a real_matrix with dim columns; raises ParameterError otherwise."""
    q = real_matrix(queries, "query vectors")
    if q.shape[1] != dim:
        raise ParameterError(f"query vectors must have dimension {dim}, got shape {q.shape}")
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


def _kd_leaves(points: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """k-d leaves of at most size rows each, as (order, starts, lo, hi).

    Leaf i holds the rows order[starts[i] : starts[i + 1]] and has the
    bounding box [lo[i], hi[i]]. Level by level, every leaf of more than
    size rows is split in half at the median of its widest coordinate.
    """
    n = points.shape[0]
    order, starts, block = np.arange(n), np.zeros(1, dtype=np.int64), points
    # Widths and positions may overflow or be 0 / 0; only the order they give matters.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while True:
            sizes = np.diff(starts, append=n)
            lo, hi = np.minimum.reduceat(block, starts), np.maximum.reduceat(block, starts)
            split = sizes > size
            if not split.any():
                return order, starts, lo, hi
            leaves = np.arange(starts.shape[0])
            axis = np.argmax(hi - lo, axis=1)
            leaf = np.repeat(leaves, sizes)
            low, high = lo[leaves, axis][leaf], hi[leaves, axis][leaf]
            # Leaf i's rows go to [i, i + 0.5] by their place along its axis,
            # so one sort orders every leaf at once and keeps the leaves apart.
            place = leaf + 0.5 * np.fmin((block[np.arange(n), axis[leaf]] - low) / (high - low), 1.0)
            ranked = np.argsort(place)
            order, block = order[ranked], block[ranked]
            starts = np.sort(np.concatenate([starts, (starts + sizes // 2)[split]]))


def _box_gaps(group_lo: np.ndarray, group_hi: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(G, L) squared gaps between G group boxes and L leaf boxes, added
    one coordinate at a time in index order, as in _sq_dists."""
    out = np.zeros((group_lo.shape[0], lo.shape[0]))
    for j in range(lo.shape[1]):
        sep = np.maximum(lo[:, j] - group_hi[:, j : j + 1], group_lo[:, j : j + 1] - hi[:, j])
        np.maximum(sep, 0.0, out=sep)
        np.multiply(sep, sep, out=sep)
        out += sep
    return out


def _group_bounds(
    columns: np.ndarray,
    queries: np.ndarray,
    members: np.ndarray,
    gaps: np.ndarray,
    leaves: tuple[np.ndarray, np.ndarray, np.ndarray],
    k: int,
    leave_out: Optional[np.ndarray],
) -> np.ndarray:
    """For each of G groups, the largest kth distance of its queries among
    the rows of the leaves nearest to it by gap, taken until they hold k
    rows besides a left-out one.

    members is (G, w): each group's query indices, padded by repeating one.
    leaves is (order, starts, sizes) of _kd_leaves. Distances are computed
    as in _sq_dists; padding and left-out rows count as infinitely far.
    """
    order, starts, sizes = leaves
    groups = np.arange(gaps.shape[0])
    by_gap = np.argsort(gaps, axis=1, kind="stable")
    held = np.cumsum(sizes[by_gap], axis=1)
    taken = np.argmax(held >= k + (leave_out is not None), axis=1) + 1
    chosen = by_gap[np.arange(gaps.shape[1]) < taken[:, None]]
    lengths = sizes[chosen]
    total = held[groups, taken - 1]
    # Row j of the chosen leaves sits at slot j - (rows before its group) of its group.
    flat = np.arange(lengths.sum())
    owner = np.repeat(np.repeat(groups, taken), lengths)
    source = flat + np.repeat(starts[chosen] - (np.cumsum(lengths) - lengths), lengths)
    candidates = np.full((gaps.shape[0], total.max()), -1)
    candidates[owner, flat - (np.cumsum(total) - total)[owner]] = order[source]
    dists = np.repeat(np.where(candidates < 0, np.inf, 0.0)[:, None, :], members.shape[1], axis=1)
    term = np.empty_like(dists)
    for j in range(columns.shape[0]):
        np.subtract(columns[j][candidates][:, None, :], queries[members, j][:, :, None], out=term)
        np.multiply(term, term, out=term)
        dists += term
    if leave_out is not None:
        dists[candidates[:, None, :] == leave_out[members][:, :, None]] = np.inf
    return np.partition(dists, k - 1, axis=2)[:, :, k - 1].max(axis=1)


def _k_nearest(
    columns: np.ndarray,
    queries: np.ndarray,
    rows: Optional[np.ndarray],
    leave_out: Optional[np.ndarray],
    k: int,
) -> np.ndarray:
    """(B, k) row indices of each query's k nearest candidates, ties to the
    lower row index, in no particular order. The candidates are the rows
    given in ascending order, or all rows, with no gather, when rows is
    None; columns holds every row as (d, N). leave_out, when given, holds
    one row per query to pass over."""
    dists = _sq_dists(columns if rows is None else columns[:, rows], queries)
    b = np.arange(dists.shape[0])
    if leave_out is not None:
        if rows is None:
            skipped = (b, leave_out)
        else:
            at = np.minimum(np.searchsorted(rows, leave_out), rows.shape[0] - 1)
            hit = rows[at] == leave_out
            skipped = (b[hit], at[hit])
        dists[skipped] = np.inf
    nearest = np.argpartition(dists, k - 1, axis=1)[:, :k]
    kth = dists[b, nearest[:, k - 1]]
    ambiguous = np.count_nonzero(dists <= kth[:, None], axis=1) > k
    if leave_out is not None:
        # A left-out row at inf ties a kth distance that overflowed to inf,
        # which makes its query ambiguous; NaN is neither below nor equal
        # to any kth distance, so the exact rule passes over it.
        dists[skipped] = np.nan
    for row in np.flatnonzero(ambiguous):
        nearest[row] = _smallest_k(dists[row], k)
    return nearest if rows is None else rows[nearest]


def _screened_rows(
    columns: np.ndarray,
    sq_norms: np.ndarray,
    queries: np.ndarray,
    bound: np.ndarray,
    leave_out: Optional[np.ndarray],
    k: int,
) -> np.ndarray:
    """The rows, ascending, whose screen value |y|^2 - 2 q.y lies within 2B
    of the kth smallest for some query q: a superset of each query's rows
    within its kth distance, ties included.

    columns holds every row y as (d, N), sq_norms their |y|^2 and bound the
    certified B of screen_bound for each query. Left-out rows count as
    infinitely far.

    Why every row i that ties or beats the kth distance D* (among the rows
    besides a left-out one) is kept: of k rows whose screen values are at
    most the kth smallest, none left out, at least one, j, has a direct
    distance D_j >= D*, or k rows would lie below D*. As D_i <= D* <= D_j,
    screen_bound gives G_i < G_j + B <= kth + B, and the second B covers the
    rounding of kth + 2B. The exact search over the kept rows then meets the
    same distances and the same ties as over all rows.
    """
    screen = queries @ columns
    screen *= -2.0
    screen += sq_norms
    if leave_out is not None:
        screen[np.arange(queries.shape[0]), leave_out] = np.inf
    kth = np.partition(screen, k - 1, axis=1)[:, k - 1]
    return np.flatnonzero((screen <= (kth + 2.0 * bound)[:, None]).any(axis=0))


def _neighbors(
    dataset: LabeledDataset,
    queries: Sequence[Sequence[float]] | np.ndarray,
    config: KnnConfig,
    leave_out: Optional[Sequence[int] | np.ndarray],
) -> np.ndarray:
    """(n, k) row indices of each query's k nearest dataset rows, ties to
    the lower row index, in no particular order; see label_distributions
    for the search."""
    q = as_queries(queries, dataset.dim)
    leave_out = _leave_out_rows(dataset, config, leave_out)
    if leave_out is not None and leave_out.shape != (q.shape[0],):
        raise ParameterError(f"leave_out must hold one row index per query, got shape {leave_out.shape}")
    k, n = config.k, dataset.n
    columns = np.ascontiguousarray(dataset.features.T)
    order, starts, lo, hi = _kd_leaves(dataset.features, LEAF_SIZE)
    sizes = np.diff(starts, append=n)
    leaf_of_row = np.empty(n, dtype=np.int64)
    leaf_of_row[order] = np.repeat(np.arange(starts.shape[0]), sizes)
    q_order, q_starts, q_lo, q_hi = _kd_leaves(q, max(1, min(GROUP_SIZE, BLOCK_CELLS // n)))
    q_sizes = np.diff(q_starts, append=q.shape[0])
    with np.errstate(over="ignore"):
        sq_norms = np.einsum("nd,nd->n", dataset.features, dataset.features)
        radius = np.sqrt(np.einsum("nd,nd->n", q, q)) + np.sqrt(sq_norms.max())
    screen_bounds, certified = screen_bound(dataset.dim, radius)
    # Chunks of groups keep the gaps and the bounds' distances within BLOCK_CELLS.
    chunk = max(1, BLOCK_CELLS // (q_sizes.max() * max(starts.shape[0], k + 1 + sizes.max())))
    out = np.empty((q.shape[0], k), dtype=np.int64)
    for first in range(0, q_starts.shape[0], chunk):
        part = slice(first, first + chunk)
        gaps = _box_gaps(q_lo[part], q_hi[part], lo, hi)
        width = np.arange(q_sizes[part].max())
        members = q_order[q_starts[part, None] + np.minimum(width, q_sizes[part, None] - 1)]
        bound = _group_bounds(columns, q, members, gaps, (order, starts, sizes), k, leave_out)
        for g, keep in enumerate(gaps <= bound[:, None], start=first):
            own = q_order[q_starts[g] : q_starts[g] + q_sizes[g]]
            skipped = None if leave_out is None else leave_out[own]
            if not keep.all():
                rows = np.flatnonzero(keep[leaf_of_row])
            elif certified[own].all():
                rows = _screened_rows(columns, sq_norms, q[own], screen_bounds[own], skipped, k)
            else:
                rows = None
            out[own] = _k_nearest(columns, q[own], rows, skipped, k)
    return out


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
    config.include_self is false (its intended use is leave-self-out
    queries). The search is that of label_distributions, for one query.
    """
    q = as_queries([query], dataset.dim)
    rows = _neighbors(dataset, q, config, None if exclude_index is None else [exclude_index])[0]
    # _sq_dists gives each found row's distance as the search computed it.
    return rows[np.lexsort((rows, _sq_dists(dataset.features[rows].T, q)[0]))]


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

    The search is exact and skips far rows for each group of nearby queries:
    1. The dataset rows are split into k-d leaves of at most LEAF_SIZE
       rows, and the queries into groups of at most GROUP_SIZE, fewer when
       a group's distances to all rows would exceed BLOCK_CELLS. Each leaf
       and group has a bounding box.
    2. For each group, the leaves nearest to its box by squared box-to-box
       gap are taken until they hold k rows besides a left-out one. The
       bound is the largest kth distance of the group's queries among them.
    3. Every leaf whose gap exceeds the bound is skipped. A group that can
       skip no leaf (all groups at d >= 8 on typical data) is screened
       instead: one matrix product gives each query's screen values
       |y|^2 - 2 q.y over all rows, and the group keeps the rows within
       twice the certified bound of screen_bound of some query's kth
       screened value (_screened_rows). A group with a query of radius
       above 2^508 searches all rows, with no gather: the brute-force search
       itself, with its overflow warnings. The kept rows, in row-index
       order, are searched as brute force would be: distances by _sq_dists,
       the k nearest by argpartition, and where more than k rows lie within
       a query's kth distance the exact (distance, index) rule.

    Why skipping is exact: the gap is added one coordinate at a time in the
    order of _sq_dists. A row x of a leaf and a query q of a group differ in
    coordinate j by at least the separation of their boxes in j, and
    correctly rounded subtraction, squaring and in-order addition of
    non-negative terms are monotone. So the computed distance from q to x
    is at least the computed gap, which exceeds the bound, which is at least
    q's kth distance among all rows. A skipped row can neither beat nor tie
    q's kth neighbor, so no margin and no fallback are needed. The screen
    likewise keeps every row that ties or beats a kth neighbor
    (_screened_rows), so the result equals the brute-force one bit for bit.
    """
    neighbors = _neighbors(dataset, queries, config, leave_out)
    n, C = neighbors.shape[0], dataset.num_classes
    flat = (np.arange(n)[:, None] * C + dataset.labels[neighbors]).ravel()
    return np.bincount(flat, minlength=n * C).reshape(-1, C) / float(config.k)


def estimate_all(dataset: LabeledDataset, config: KnnConfig) -> np.ndarray:
    """Label distribution for every training row, as an (N, C) array.

    Row i is label_distributions for query row i, leaving row i out of its
    own candidates when include_self is false.
    """
    return label_distributions(dataset, dataset.features, config, np.arange(dataset.n))
