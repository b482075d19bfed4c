"""KL-minimizing vector quantization.

Training vectors are partitioned into M subsets by alternating two steps:
recompute each subset's class label distribution from its members, then
reassign every vector to the subset whose distribution is closest in KL
divergence to the vector's own kNN-estimated label distribution. Unseen
vectors are quantized by the same argmin against the fitted subset
distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from .divergence import PointTable, SmoothingConfig, _kl_terms, kl_matrix, smooth
from .errors import ParameterError
from .kmeans import kmeans_fit
from .label_model import (
    BLOCK_CELLS,
    KnnConfig,
    LabeledDataset,
    estimate_all,
    label_distributions,
    real_matrix,
    require_int,
    require_int_array,
    require_real,
)
from .partition import Partition, alternate, repair_empty

INIT_MODES = ("random", "kmeans")
UPDATE_MODES = ("paper", "centroid")


@dataclass(frozen=True)
class QuantizerConfig:
    """Everything fit() needs beyond the dataset itself."""

    M: int
    knn: KnnConfig = KnnConfig()
    smoothing: SmoothingConfig = SmoothingConfig()
    max_iters: int = 100
    seed: int = 0
    init: str = "random"
    update_mode: str = "paper"

    def __post_init__(self) -> None:
        if require_int(self.M, "M") < 1:
            raise ParameterError(f"M must be >= 1, got {self.M}")
        if require_int(self.max_iters, "max_iters") < 1:
            raise ParameterError(f"max_iters must be >= 1, got {self.max_iters}")
        if require_int(self.seed, "seed") < 0:
            raise ParameterError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.init not in INIT_MODES:
            raise ParameterError(f"init must be one of {INIT_MODES}, got {self.init!r}")
        if self.update_mode not in UPDATE_MODES:
            raise ParameterError(f"update_mode must be one of {UPDATE_MODES}, got {self.update_mode!r}")


@dataclass(frozen=True)
class QuantizerModel:
    """A fitted quantizer: subset distributions plus the labeled training set
    needed to estimate label distributions for new vectors."""

    kind: ClassVar[str] = "klvq"

    subset_dists: np.ndarray
    config: QuantizerConfig
    training_set: LabeledDataset
    final_objective: float
    iterations_run: int
    converged: bool

    def __post_init__(self) -> None:
        M, C, n = self.config.M, self.training_set.num_classes, self.training_set.n
        dists = real_matrix(self.subset_dists, "subset_dists")
        if dists.shape != (M, C):
            raise ParameterError(f"subset_dists must be ({M}, {C}), got {dists.shape}")
        sums = dists.sum(axis=1)
        if np.any(dists < 0) or np.any(np.abs(sums - 1.0) > 1e-9):
            raise ParameterError("subset_dists rows must be distributions summing to 1")
        if self.config.smoothing.epsilon > 0 and np.any(dists <= 0):
            raise ParameterError("smoothed subset_dists must be strictly positive")
        if self.config.knn.k > n:
            raise ParameterError(f"k={self.config.knn.k} exceeds the {n} training rows")
        if require_real(self.final_objective, "final_objective") < -1e-9:
            raise ParameterError(f"final_objective must be >= -1e-9, got {self.final_objective}")
        max_iters = self.config.max_iters
        if not 1 <= require_int(self.iterations_run, "iterations_run") <= max_iters:
            raise ParameterError(f"iterations_run must lie in [1, max_iters={max_iters}], got {self.iterations_run}")
        if not isinstance(self.converged, (bool, np.bool_)):
            raise ParameterError(f"converged must be true or false, got {self.converged!r}")
        object.__setattr__(self, "subset_dists", dists)

    @property
    def M(self) -> int:
        return self.config.M

    def codes(self, queries: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
        """Subset index of every query row, as an (n,) int64 array.

        Each row's label distribution is estimated by kNN against the
        training set; its code is assign_step's KL argmin over the subset
        distributions (lowest index on ties), run on blocks of
        BLOCK_CELLS // subset_dists.size rows.
        """
        point_dists = label_distributions(self.training_set, queries, self.config.knn)
        step = max(1, BLOCK_CELLS // self.subset_dists.size)
        return np.concatenate(
            [
                assign_step(point_dists[start : start + step], self.subset_dists).assignment
                for start in range(0, point_dists.shape[0], step)
            ]
        )


def update_subset_distributions(
    partition: Partition,
    labels: np.ndarray,
    num_classes: int,
    mode: str,
    point_dists: np.ndarray,
    smoothing: SmoothingConfig,
) -> np.ndarray:
    """Per-subset class label distributions, as an (M, C) array.

    paper mode: smoothed empirical label frequency of each subset's members.
    centroid mode: smoothed mean of the members' point distributions (the KL
    centroid). Empty subsets come out uniform when smoothing is positive.
    """
    if mode not in UPDATE_MODES:
        raise ParameterError(f"mode must be one of {UPDATE_MODES}, got {mode!r}")
    M, C = partition.M, require_int(num_classes, "num_classes")
    labels = require_int_array(labels, "labels")
    if labels.shape != (partition.n,):
        raise ParameterError(f"{labels.shape} labels for {partition.n} assigned points")
    if labels.min() < 0 or labels.max() >= C:
        raise ParameterError(f"labels must lie in [0, {C})")
    if mode == "paper":
        weights = np.bincount(partition.assignment * C + labels, minlength=M * C).reshape(M, C)
    else:
        dists = np.asarray(point_dists, dtype=np.float64)
        if dists.shape != (partition.n, C):
            raise ParameterError(f"point_dists must be ({partition.n}, {C}), got {dists.shape}")
        # np.add.at sums each subset's rows in index order, as mean(axis=0) does.
        weights = np.zeros((M, C))
        np.add.at(weights, partition.assignment, dists)
        weights /= np.maximum(partition.subset_sizes(), 1)[:, None]
    return smooth(weights, smoothing)


def assign_step(point_dists: np.ndarray, subset_dists: np.ndarray) -> Partition:
    """Assign every point to the subset minimizing KL(point || subset).

    Ties go to the lowest subset index; the result does not depend on any
    previous assignment. The KL is computed once per distinct point
    distribution (kl_matrix).
    """
    kls = kl_matrix(point_dists, subset_dists)
    return Partition(np.argmin(kls, axis=1), kls.shape[1])


def _repair_empty_subsets(
    assignment: np.ndarray,
    M: int,
    kl_to_own: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """repair_empty with kl_to_own(assignment), each point's KL to its own
    subset's distribution, as the cost. fit and init_partition both repair
    through here, so the repairs of one fit can be observed in one place."""
    return repair_empty(assignment, M, kl_to_own)


def init_partition(
    dataset: LabeledDataset,
    config: QuantizerConfig,
    point_dists: np.ndarray | None = None,
) -> Partition:
    """Deterministic starting partition for fit(): seeded uniform assignment
    with empty subsets repaired (using point_dists, estimated if None and
    needed), or the k-means partition of the features."""
    if config.M > dataset.n:
        raise ParameterError(f"M={config.M} exceeds the {dataset.n} available points")
    if config.init == "kmeans":
        return kmeans_fit(dataset.features, config.M, config.seed, config.max_iters)[1]
    rng = np.random.default_rng(config.seed)
    assignment = rng.integers(0, config.M, size=dataset.n)
    occupied = np.bincount(assignment, minlength=config.M) > 0
    if not occupied.all():
        if point_dists is None:
            point_dists = estimate_all(dataset, config.knn)
        # The repair reads only the KL of each point to the subset it sits
        # in, so only the occupied subsets get a distribution: smoothing a
        # subset with no members is undefined at epsilon = 0, and compact
        # maps an occupied subset to its row.
        compact = np.cumsum(occupied) - 1
        subset_dists = update_subset_distributions(
            Partition(compact[assignment], int(occupied.sum())),
            dataset.labels,
            dataset.num_classes,
            config.update_mode,
            point_dists,
            config.smoothing,
        )
        assignment = _repair_empty_subsets(
            assignment,
            config.M,
            lambda own: _kl_terms(point_dists, subset_dists[compact[own]]).sum(axis=1),
        )
    return Partition(assignment, config.M)


def fit(
    dataset: LabeledDataset,
    config: QuantizerConfig,
) -> tuple[QuantizerModel, Partition, list[float]]:
    """Fit the KL quantizer by alternating distribution and assignment updates.

    Starts from init_partition. Empty subsets produced by an assignment step
    are repaired before the next update. The (U, M) KL matrix of the U
    distinct point distributions is kept across iterations, on one
    PointTable; each iteration recomputes only the columns of the subsets
    whose distributions changed, and reads from it assign_step's proposal,
    the repair costs and the objective of the repaired partition.

    The fit stops (partition.alternate) at an assignment fixpoint
    (converged), at the first repeated assignment, or after max_iters. An
    iteration is a function of the assignment it starts from, so a fit that
    stops before max_iters with converged false has entered a cycle. Returns
    the model and partition of the last iteration, and the objective value
    recorded after each iteration.
    """
    point_dists = estimate_all(dataset, config.knn)
    start = init_partition(dataset, config, point_dists).assignment
    table = PointTable.of(point_dists)
    inverse = table.inverse
    kls = np.empty((table.pair_index.shape[0], config.M))
    # NaN rows differ from every distribution, so iteration 1 fills every column.
    previous = np.full((config.M, dataset.num_classes), np.nan)

    def step(assignment: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        nonlocal previous
        subset_dists = update_subset_distributions(
            Partition(assignment, config.M),
            dataset.labels,
            dataset.num_classes,
            config.update_mode,
            point_dists,
            config.smoothing,
        )
        changed = np.flatnonzero((subset_dists != previous).any(axis=1))
        kls[:, changed] = table.kl(subset_dists[changed])
        previous = subset_dists
        proposed = np.argmin(kls, axis=1)[inverse]
        repaired = _repair_empty_subsets(proposed, config.M, lambda own: kls[inverse, own])
        return proposed, repaired, float(kls[inverse, repaired].sum())

    trace, assignment, converged = alternate(start, step, config.max_iters)
    model = QuantizerModel(
        subset_dists=previous,
        config=config,
        training_set=dataset,
        final_objective=trace[-1],
        iterations_run=len(trace),
        converged=converged,
    )
    return model, Partition(assignment, config.M), trace


def quantize(model: QuantizerModel, query: Sequence[float] | np.ndarray) -> int:
    """Subset index for one new vector; see QuantizerModel.codes."""
    return int(model.codes([query])[0])
