"""Bag-of-features evaluation harness.

Each item owns a bag of local descriptor vectors. A quantizer maps every
descriptor to a subset index, the item becomes a histogram over the M
subsets, and items are classified by 1-nearest-neighbor on normalized
histograms. A seeded synthetic generator provides desk-scale benchmark data:
one Gaussian descriptor mode per class plus an optional shared background
mode that contributes label-free clutter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ParameterError
from .label_model import BLOCK_CELLS, LabeledDataset, real_matrix, require_int, require_int_array, require_real

DISTANCES = ("l1", "l2")

DEFAULT_MODE_SEPARATION = 6.0
DEFAULT_BACKGROUND_RATE = 0.7
DEFAULT_BACKGROUND_SPREAD_FACTOR = 25.0


@dataclass(frozen=True)
class FeatureBag:
    """One item's local descriptors, plus its class label when known."""

    item_id: str
    descriptors: np.ndarray
    label: Optional[int] = None

    def __post_init__(self) -> None:
        descriptors = real_matrix(self.descriptors, f"descriptors of item {self.item_id!r}")
        object.__setattr__(self, "descriptors", descriptors)
        if self.label is not None:
            label = require_int(self.label, f"label of item {self.item_id!r}")
            if label < 0:
                raise ParameterError(f"label of item {self.item_id!r} must be >= 0, got {label}")
            object.__setattr__(self, "label", label)

    @property
    def size(self) -> int:
        return self.descriptors.shape[0]


@dataclass(frozen=True)
class EvalReport:
    """Classification outcome of one quantizer on one train/test split.

    confusion rows are true classes, columns predictions.
    """

    confusion: np.ndarray
    quantizer_tag: str

    def __post_init__(self) -> None:
        confusion = np.asarray(self.confusion, dtype=np.int64)
        if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1]:
            raise ParameterError(f"confusion must be square, got {confusion.shape}")
        object.__setattr__(self, "confusion", confusion)

    @property
    def per_class_accuracy(self) -> np.ndarray:
        """Diagonal over row total per true class; 0 for a class with no test items."""
        totals = self.confusion.sum(axis=1)
        return np.divide(np.diag(self.confusion), totals, out=np.zeros(totals.shape), where=totals > 0)

    @property
    def overall_accuracy(self) -> float:
        """Trace over total count."""
        return float(np.trace(self.confusion) / self.confusion.sum())


CodesFn = Callable[[np.ndarray], np.ndarray]


def build_histogram(codes: np.ndarray, sizes: Sequence[int], M: int) -> np.ndarray:
    """(B, M) int64 counts of the codes of B bags, bag b owning the next sizes[b] codes.

    codes holds the subset indices of all bags' descriptors, bag after bag,
    such as one call of a fitted model's codes method on the stacked bags.
    """
    if require_int(M, "M") < 1:
        raise ParameterError(f"M must be >= 1, got {M}")
    sizes = require_int_array(sizes, "sizes")
    if sizes.ndim != 1 or np.any(sizes < 1):
        raise ParameterError("sizes must be a vector of positive bag sizes")
    codes = np.asarray(codes)
    if codes.shape != (sizes.sum(),) or not np.issubdtype(codes.dtype, np.integer):
        raise ParameterError(f"codes must be {sizes.sum()} integer codes, got {codes.dtype} {codes.shape}")
    if codes.size and (codes.min() < 0 or codes.max() >= M):
        raise ParameterError(f"codes hold an index outside [0, {M})")
    owner = np.repeat(np.arange(sizes.shape[0]), sizes)
    return np.bincount(owner * M + codes.astype(np.int64, copy=False), minlength=sizes.shape[0] * M).reshape(-1, M)


def _require_distance(distance: str) -> None:
    if distance not in DISTANCES:
        raise ParameterError(f"distance must be one of {DISTANCES}, got {distance!r}")


def classify_1nn(
    train: np.ndarray,
    train_labels: Sequence[int],
    queries: np.ndarray,
    distance: str = "l1",
) -> np.ndarray:
    """(Q,) labels of each query row's nearest training row under L1 or L2 distance.

    train (N, M) and queries (Q, M) hold normalized histograms, one per row;
    ties go to the lowest training row. Queries are compared in blocks of
    BLOCK_CELLS // train.size rows.
    """
    _require_distance(distance)
    train, queries = real_matrix(train, "train"), real_matrix(queries, "queries")
    labels = require_int_array(train_labels, "train_labels")
    if labels.shape != train.shape[:1]:
        raise ParameterError(f"train_labels must hold one label per training row, got {labels.shape}")
    if train.shape[1] != queries.shape[1]:
        raise ParameterError(
            f"histogram length mismatch: train has {train.shape[1]} bins, queries have {queries.shape[1]}"
        )
    step = max(1, BLOCK_CELLS // train.size)
    nearest = np.empty(queries.shape[0], dtype=np.int64)
    for start in range(0, queries.shape[0], step):
        diff = train - queries[start : start + step, None]
        if distance == "l1":
            dists = np.abs(diff).sum(axis=2)
        else:
            dists = np.sqrt((diff**2).sum(axis=2))
        nearest[start : start + step] = np.argmin(dists, axis=1)
    return labels[nearest]


def evaluate(
    train_bags: Sequence[FeatureBag],
    test_bags: Sequence[FeatureBag],
    quantizer_tag: str,
    codes_fn: CodesFn,
    M: int,
    distance: str = "l1",
) -> EvalReport:
    """Histogram every bag, 1-NN classify the test bags, tally the confusion.

    codes_fn is called once, on the descriptors of all bags stacked, so
    every bag must have the first bag's descriptor dimension. build_histogram
    counts the codes, and classify_1nn labels the test bags' normalized
    histograms against the training bags' ones.
    """
    _require_distance(distance)
    if not train_bags or not test_bags:
        raise ParameterError("train and test bag sets must both be nonempty")
    bags = (*train_bags, *test_bags)
    dim = bags[0].descriptors.shape[1]
    for bag in bags:
        if bag.label is None:
            raise ParameterError(f"item {bag.item_id!r} has no label")
        if bag.descriptors.shape[1] != dim:
            raise ParameterError(
                f"item {bag.item_id!r} has descriptor dimension {bag.descriptors.shape[1]}, "
                f"the first item {bags[0].item_id!r} has {dim}"
            )
    labels = np.array([bag.label for bag in bags])
    sizes = np.array([bag.size for bag in bags])
    counts = build_histogram(codes_fn(np.vstack([bag.descriptors for bag in bags])), sizes, M)
    normalized = counts / sizes[:, None]
    n = len(train_bags)
    predicted = classify_1nn(normalized[:n], labels[:n], normalized[n:], distance)
    num_classes = labels.max() + 1
    confusion = np.bincount(labels[n:] * num_classes + predicted, minlength=num_classes**2)
    return EvalReport(confusion=confusion.reshape(num_classes, num_classes), quantizer_tag=quantizer_tag)


def class_mode_layout(
    num_classes: int,
    dim: int,
    separation: float = DEFAULT_MODE_SEPARATION,
) -> tuple[np.ndarray, np.ndarray]:
    """Descriptor-mode centers per class plus the shared background center.

    Classes get the vertices of a regular simplex (pairwise distance =
    separation) whenever num_classes <= dim + 1; otherwise they are spread on
    a circle in the first two dimensions (adjacent distance = separation), or
    evenly along the line for dim = 1. The background center is the centroid
    of the class modes.
    """
    if require_int(num_classes, "num_classes") < 1 or require_int(dim, "dim") < 1:
        raise ParameterError("num_classes and dim must be >= 1")
    separation = require_real(separation, "separation")
    modes = np.zeros((num_classes, dim))
    if num_classes == 1:
        pass
    elif num_classes <= dim + 1:
        centered = np.eye(num_classes) - 1.0 / num_classes
        _, _, vt = np.linalg.svd(centered)
        modes[:, : num_classes - 1] = (centered @ vt[: num_classes - 1].T) * (
            separation / np.sqrt(2.0)
        )
    elif dim >= 2:
        angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
        radius = separation / (2.0 * np.sin(np.pi / num_classes))
        modes[:, 0] = radius * np.cos(angles)
        modes[:, 1] = radius * np.sin(angles)
    else:
        modes[:, 0] = separation * (np.arange(num_classes) - (num_classes - 1) / 2.0)
    return modes, modes.mean(axis=0)


def generate_synthetic(
    seed: int,
    num_classes: int,
    items_per_class: int,
    descriptors_per_item: int,
    dim: int,
    noise: float,
    background_rate: float = DEFAULT_BACKGROUND_RATE,
) -> tuple[list[FeatureBag], list[FeatureBag], LabeledDataset]:
    """Seeded benchmark data: train and test bags plus the pooled training
    descriptors labeled by their item's class.

    Every class owns one compact Gaussian mode with isotropic spread equal to
    noise, laid out by class_mode_layout at its default separation. With
    probability background_rate a descriptor instead comes from the shared
    background mode, whose spread is DEFAULT_BACKGROUND_SPREAD_FACTOR times
    wider: broad label-free clutter covering the class structure, which is
    where unsupervised quantizers spend their subsets. noise = 0 with
    background_rate = 0 therefore puts every descriptor exactly on its class
    mode. Bags are generated train split first, then test, class-major, so a
    fixed seed reproduces identical bags.
    """
    counts = (num_classes, items_per_class, descriptors_per_item, dim)
    if min(map(require_int, counts, ("num_classes", "items_per_class", "descriptors_per_item", "dim"))) < 1:
        raise ParameterError("all generator counts must be >= 1")
    if require_int(seed, "seed") < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    if require_real(noise, "noise") < 0:
        raise ParameterError(f"noise must be >= 0, got {noise}")
    if not 0.0 <= require_real(background_rate, "background_rate") <= 1.0:
        raise ParameterError(f"background_rate must lie in [0, 1], got {background_rate}")
    modes, background = class_mode_layout(num_classes, dim)
    rng = np.random.default_rng(seed)
    splits: dict[str, list[FeatureBag]] = {"train": [], "test": []}
    for split, bags in splits.items():
        for c in range(num_classes):
            for item in range(items_per_class):
                from_background = rng.random(descriptors_per_item) < background_rate
                centers = np.where(from_background[:, None], background, modes[c])
                spreads = np.where(
                    from_background[:, None], noise * DEFAULT_BACKGROUND_SPREAD_FACTOR, noise
                )
                descriptors = centers + spreads * rng.standard_normal(
                    (descriptors_per_item, dim)
                )
                bags.append(
                    FeatureBag(
                        item_id=f"{split}-c{c}-i{item:03d}",
                        descriptors=descriptors,
                        label=c,
                    )
                )
    train_bags = splits["train"]
    features = np.vstack([bag.descriptors for bag in train_bags])
    labels = np.repeat(
        [bag.label for bag in train_bags], [bag.size for bag in train_bags]
    )
    dataset = LabeledDataset(
        features=features,
        labels=labels,
        class_names=tuple(f"class_{c}" for c in range(num_classes)),
    )
    return train_bags, splits["test"], dataset
