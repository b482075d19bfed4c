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
from .label_model import LabeledDataset, real_matrix, require_int

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
class BofHistogram:
    """Counts of an item's descriptors per quantization subset."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or np.any(counts < 0) or counts.sum() < 1:
            raise ParameterError("counts must be a nonnegative vector with a positive total")
        object.__setattr__(self, "counts", counts)

    @property
    def M(self) -> int:
        return self.counts.shape[0]

    @property
    def normalized(self) -> np.ndarray:
        """Each subset's share of the item's descriptors."""
        return self.counts / self.counts.sum()


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


def _checked_codes(codes_fn: CodesFn, descriptors: np.ndarray, M: int) -> np.ndarray:
    """codes_fn over a (P, d) descriptor matrix, checked to be P indices in [0, M)."""
    if M < 1:
        raise ParameterError(f"M must be >= 1, got {M}")
    codes = np.asarray(codes_fn(descriptors))
    if codes.shape != (descriptors.shape[0],) or not np.issubdtype(codes.dtype, np.integer):
        raise ParameterError(
            f"codes_fn must return {descriptors.shape[0]} integer codes, got {codes.dtype} {codes.shape}"
        )
    if codes.min() < 0 or codes.max() >= M:
        raise ParameterError(f"codes_fn produced an index outside [0, {M})")
    return codes


def build_histogram(bag: FeatureBag, codes_fn: CodesFn, M: int) -> BofHistogram:
    """Tally the codes of the bag's descriptors into an M-bin histogram.

    codes_fn maps a (P, d) descriptor matrix to its (P,) subset indices,
    such as a fitted model's codes method.
    """
    return BofHistogram(np.bincount(_checked_codes(codes_fn, bag.descriptors, M), minlength=M))


def _nearest_label(train: np.ndarray, labels: Sequence[int], query: np.ndarray, distance: str) -> int:
    """Label of the row of train nearest to query; ties go to the lowest row."""
    diff = train - query
    if distance == "l1":
        dists = np.abs(diff).sum(axis=1)
    else:
        dists = np.sqrt((diff**2).sum(axis=1))
    return labels[int(np.argmin(dists))]


def classify_1nn(
    train_histograms: Sequence[tuple[BofHistogram, int]],
    query: BofHistogram,
    distance: str = "l1",
) -> int:
    """Label of the nearest training histogram under L1 or L2 distance.

    Distances are taken between normalized histograms; ties go to the lowest
    training index.
    """
    if distance not in DISTANCES:
        raise ParameterError(f"distance must be one of {DISTANCES}, got {distance!r}")
    if not train_histograms:
        raise ParameterError("at least one training histogram is required")
    train = np.stack([h.normalized for h, _ in train_histograms])
    if train.shape[1] != query.M:
        raise ParameterError(
            f"histogram length mismatch: train has {train.shape[1]} bins, query has {query.M}"
        )
    return _nearest_label(train, [label for _, label in train_histograms], query.normalized, distance)


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
    every bag must have the first bag's descriptor dimension. The
    histograms equal build_histogram's, and each test bag gets the label
    classify_1nn gives it.
    """
    if distance not in DISTANCES:
        raise ParameterError(f"distance must be one of {DISTANCES}, got {distance!r}")
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
    num_classes = max(bag.label for bag in bags) + 1
    sizes = np.array([bag.size for bag in bags])
    codes = _checked_codes(codes_fn, np.vstack([bag.descriptors for bag in bags]), M)
    owner = np.repeat(np.arange(len(bags)), sizes)
    counts = np.bincount(owner * M + codes, minlength=len(bags) * M).reshape(len(bags), M)
    normalized = counts / sizes[:, None]
    train, train_labels = normalized[: len(train_bags)], [bag.label for bag in train_bags]
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    for bag, histogram in zip(test_bags, normalized[len(train_bags) :]):
        confusion[bag.label, _nearest_label(train, train_labels, histogram, distance)] += 1
    return EvalReport(confusion=confusion, quantizer_tag=quantizer_tag)


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
    if num_classes < 1 or dim < 1:
        raise ParameterError("num_classes and dim must be >= 1")
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
    if min(num_classes, items_per_class, descriptors_per_item, dim) < 1:
        raise ParameterError("all generator counts must be >= 1")
    if noise < 0:
        raise ParameterError(f"noise must be >= 0, got {noise}")
    if not 0.0 <= background_rate <= 1.0:
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
