"""Kullback-Leibler divergence between label distributions and the quantization objective.

Distributions are plain float64 vectors (rows of 2-D arrays for batches) that
are nonnegative and sum to 1. Natural logarithm throughout, with the standard
convention 0*ln(0/q) = 0. A zero in the reference distribution q at an index
where p is positive is a domain error rather than +inf: callers are expected
to route reference distributions through :func:`smooth` first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .label_model import require_real
from .partition import Partition


@dataclass(frozen=True)
class SmoothingConfig:
    """Additive smoothing applied to reference (subset) distributions.

    epsilon: finite nonnegative constant added to each class count before normalizing.
    """

    epsilon: float = 1e-6

    def __post_init__(self) -> None:
        if require_real(self.epsilon, "epsilon") < 0:
            raise ParameterError(f"epsilon must be >= 0, got {self.epsilon}")


def _kl_terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Elementwise p*ln(p/q) with 0*ln(0/.) := 0; inputs must broadcast."""
    support = p > 0.0
    if np.any(support & (q == 0.0)):
        raise DomainError("unsmoothed zero in reference distribution")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log(p / q)
    return np.where(support, terms, 0.0)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) = sum_c p[c]*ln(p[c]/q[c]), natural log.

    Raises DomainError if q has an unsmoothed zero where p is positive.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ParameterError(f"distribution length mismatch: {p.shape} vs {q.shape}")
    return float(_kl_terms(p, q).sum())


@dataclass(frozen=True)
class PointTable:
    """The distinct (value, class) pairs of N point distributions over C classes.

    values: (K,) the value of each pair; classes: (K,) its class;
    pair_index: (N, C) the pair of every cell. A kNN distribution is a count
    vector divided by k, so K is at most (k+1)*C however many rows there are.
    Built once, it serves any number of subset distributions (see kl).
    """

    values: np.ndarray
    classes: np.ndarray
    pair_index: np.ndarray

    @classmethod
    def of(cls, point_dists: np.ndarray) -> PointTable:
        P = np.asarray(point_dists, dtype=np.float64)
        if P.ndim != 2:
            raise ParameterError(f"expected (N, C) point distributions, got {P.shape}")
        C = P.shape[1]
        values, value_index = np.unique(P, return_inverse=True)
        pairs, pair_index = np.unique(value_index.reshape(P.shape) * C + np.arange(C), return_inverse=True)
        return cls(values[pairs // C], pairs % C, pair_index.reshape(P.shape))

    def kl(self, subset_dists: np.ndarray) -> np.ndarray:
        """(N, m) KL of every point distribution against each of m subset rows.

        The term p*ln(p/q) depends only on the value p, its class c and the
        subset, so it is evaluated once per pair and subset, in an (m, K)
        table. Each row's C terms are gathered from the table into a
        contiguous (m, N, C) array and summed over its last axis: the same
        terms added in the same order as a sum over the (N, m, C) broadcast,
        so every entry is bit-identical to it, and column j depends on
        subset row j alone.
        """
        Q = np.asarray(subset_dists, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[1] != self.pair_index.shape[1]:
            raise ParameterError(
                f"expected (N, C) and (M, C) distribution arrays, got {self.pair_index.shape} and {Q.shape}"
            )
        table = _kl_terms(self.values, Q[:, self.classes])
        return np.take(table, self.pair_index, axis=1).sum(axis=2).T


def kl_matrix(point_dists: np.ndarray, subset_dists: np.ndarray) -> np.ndarray:
    """KL of every point distribution against every subset distribution.

    point_dists: (N, C) rows; subset_dists: (M, C) rows. Returns an (N, M)
    array whose [i, m] entry equals kl_divergence(point_dists[i], subset_dists[m]).
    """
    return PointTable.of(point_dists).kl(subset_dists)


def smooth(raw_counts: np.ndarray, config: SmoothingConfig) -> np.ndarray:
    """Turn class counts into a distribution: (count_c + eps) / (total + eps*C).

    raw_counts is one count vector, or an (M, C) matrix whose rows are
    smoothed independently. With eps = 0 this is the raw empirical
    frequency; with total = 0 and eps > 0 it falls back to the uniform
    distribution. An all-zero count vector (or row) with eps = 0 is a
    domain error. A denominator that overflows to inf is a ParameterError:
    dividing by it would give a row of zeros, not a distribution.
    """
    counts = np.asarray(raw_counts, dtype=np.float64)
    if counts.ndim not in (1, 2):
        raise ParameterError(f"counts must be a vector or an (M, C) matrix, got shape {counts.shape}")
    if not np.all(np.isfinite(counts) & (counts >= 0)):
        raise ParameterError("counts must be finite and nonnegative")
    C = counts.shape[-1]
    with np.errstate(over="ignore"):
        denom = counts.sum(axis=-1, keepdims=True) + config.epsilon * C
    if not np.all(np.isfinite(denom)):
        raise ParameterError(
            f"smoothing denominator total + epsilon*C overflows with epsilon={config.epsilon!r}, C={C}"
        )
    if np.any(denom <= 0.0):
        raise DomainError("empty subset with no smoothing")
    return (counts + config.epsilon) / denom


def objective(
    point_dists: np.ndarray,
    partition: Partition,
    subset_dists: np.ndarray,
) -> float:
    """Total KL of each point distribution against its subset's distribution.

    Equals sum over subsets m and members i of S_m of
    kl_divergence(point_dists[i], subset_dists[m]).
    """
    P = np.asarray(point_dists, dtype=np.float64)
    Q = np.asarray(subset_dists, dtype=np.float64)
    assignment = partition.assignment
    if P.ndim != 2 or Q.shape != (partition.M, P.shape[1]):
        raise ParameterError(
            f"expected (N, C) point distributions and ({partition.M}, C) subset distributions, "
            f"got {P.shape} and {Q.shape}"
        )
    if P.shape[0] != assignment.shape[0]:
        raise ParameterError(
            f"{P.shape[0]} point distributions for {assignment.shape[0]} assigned points"
        )
    return float(_kl_terms(P, Q[assignment]).sum(axis=1).sum())
