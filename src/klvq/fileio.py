"""File formats: CSV datasets and descriptor bags, JSON model persistence.

Dataset CSV: header ``f1,...,fd,label``, one vector per row, label as a class
name string; class indices follow first appearance order. Bags are stored as
one descriptor CSV per item (header ``f1,...,fd``) plus a ``manifest.csv``
with columns ``item_id,path,label``. Models are JSON documents carrying a
``format_version`` and a ``kind`` of ``klvq`` or ``kmeans``; all reals are
serialized at full round-trip precision.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .bof import FeatureBag
from .divergence import SmoothingConfig
from .errors import DatasetFormatError, ModelFormatError, ParameterError
from .kmeans import KmeansModel
from .label_model import KnnConfig, LabeledDataset, require_int
from .quantizer import QuantizerConfig, QuantizerModel

FORMAT_VERSION = 1

Model = Union[QuantizerModel, KmeansModel]


def _feature_header(dim: int) -> list[str]:
    return [f"f{i}" for i in range(1, dim + 1)]


def _read_csv(path: Path) -> list[list[str]]:
    if not path.exists():
        raise DatasetFormatError(f"file not found: {path}")
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle)]
    if not rows:
        raise DatasetFormatError(f"{path}: empty file")
    return rows


def _parse_features(path: Path, rows: list[list[str]], dim: int) -> np.ndarray:
    features = np.empty((len(rows) - 1, dim), dtype=np.float64)
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise DatasetFormatError(
                f"{path}: line {lineno} has {len(row)} cells, expected {len(rows[0])}"
            )
        for j in range(dim):
            try:
                value = float(row[j])
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: line {lineno}, column {j + 1}: {row[j]!r} is not a real number"
                ) from None
            if not math.isfinite(value):
                raise DatasetFormatError(
                    f"{path}: line {lineno}, column {j + 1}: non-finite value {row[j]!r}"
                )
            features[lineno - 2, j] = value
    return features


def _check_feature_header(path: Path, header: list[str], expect_label: bool) -> int:
    """Validate ``f1..fd[,label]`` and return d."""
    columns = header[:-1] if expect_label else header
    if expect_label and (len(header) < 2 or header[-1] != "label"):
        raise DatasetFormatError(f'{path}: line 1: header must end with a "label" column')
    if not columns or columns != _feature_header(len(columns)):
        raise DatasetFormatError(
            f'{path}: line 1: header must be "f1,...,fd{",label" if expect_label else ""}"'
        )
    return len(columns)


def load_dataset(path: str | Path) -> LabeledDataset:
    """Read a labeled dataset CSV; class names take first-appearance order."""
    path = Path(path)
    rows = _read_csv(path)
    dim = _check_feature_header(path, rows[0], expect_label=True)
    if len(rows) < 2:
        raise DatasetFormatError(f"{path}: no data rows")
    features = _parse_features(path, rows, dim)
    names: list[str] = []
    labels = np.empty(len(rows) - 1, dtype=np.int64)
    for lineno, row in enumerate(rows[1:], start=2):
        name = row[-1]
        if name not in names:
            names.append(name)
        labels[lineno - 2] = names.index(name)
    return LabeledDataset(features=features, labels=labels, class_names=tuple(names))


def save_dataset(path: str | Path, dataset: LabeledDataset) -> None:
    path = Path(path)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_feature_header(dataset.dim) + ["label"])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [dataset.class_names[label]])


def load_feature_matrix(path: str | Path) -> np.ndarray:
    """Read feature vectors from a CSV whose label column is optional."""
    path = Path(path)
    rows = _read_csv(path)
    has_label = rows[0] and rows[0][-1] == "label"
    dim = _check_feature_header(path, rows[0], expect_label=has_label)
    if len(rows) < 2:
        raise DatasetFormatError(f"{path}: no data rows")
    return _parse_features(path, rows, dim)


def save_bags(bags: Sequence[FeatureBag], directory: str | Path, class_names: Sequence[str]) -> None:
    """Write one descriptor CSV per bag plus the manifest.csv index."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "manifest.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["item_id", "path", "label"])
        for bag in bags:
            if bag.label is None:
                raise ParameterError(f"item {bag.item_id!r} has no label to store")
            writer.writerow([bag.item_id, f"{bag.item_id}.csv", class_names[bag.label]])
    for bag in bags:
        with open(directory / f"{bag.item_id}.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(_feature_header(bag.descriptors.shape[1]))
            for row in bag.descriptors:
                writer.writerow([repr(float(v)) for v in row])


def load_bags(
    directory: str | Path,
    class_names: Optional[Sequence[str]] = None,
) -> tuple[list[FeatureBag], tuple[str, ...]]:
    """Read a bag directory; label names extend class_names in appearance order."""
    directory = Path(directory)
    manifest = directory / "manifest.csv"
    rows = _read_csv(manifest)
    if rows[0] != ["item_id", "path", "label"]:
        raise DatasetFormatError(f'{manifest}: line 1: header must be "item_id,path,label"')
    names = list(class_names) if class_names is not None else []
    bags: list[FeatureBag] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise DatasetFormatError(f"{manifest}: line {lineno} has {len(row)} cells, expected 3")
        item_id, rel_path, name = row
        if name not in names:
            names.append(name)
        item_path = directory / rel_path
        item_rows = _read_csv(item_path)
        dim = _check_feature_header(item_path, item_rows[0], expect_label=False)
        if len(item_rows) < 2:
            raise DatasetFormatError(f"{item_path}: no descriptor rows")
        descriptors = _parse_features(item_path, item_rows, dim)
        bags.append(FeatureBag(item_id=item_id, descriptors=descriptors, label=names.index(name)))
    return bags, tuple(names)


def save_model(model: Model, path: str | Path) -> None:
    """Serialize a fitted model to versioned JSON."""
    if isinstance(model, QuantizerModel):
        config = model.config
        fields = {
            "config": {
                "M": config.M,
                "knn": {"k": config.knn.k, "include_self": config.knn.include_self},
                "smoothing": {"epsilon": config.smoothing.epsilon},
                "max_iters": config.max_iters,
                "seed": config.seed,
                "init": config.init,
                "update_mode": config.update_mode,
            },
            "class_names": list(model.training_set.class_names),
            "subset_dists": model.subset_dists.tolist(),
            "training_features": model.training_set.features.tolist(),
            "training_labels": model.training_set.labels.tolist(),
            "final_objective": model.final_objective,
            "iterations_run": model.iterations_run,
            "converged": model.converged,
        }
    elif isinstance(model, KmeansModel):
        fields = {
            "config": {"K": model.K},
            "K": model.K,
            "centroids": model.centroids.tolist(),
            "inertia": model.inertia,
            "iterations_run": model.iterations_run,
            "inertia_trace": list(model.inertia_trace),
        }
    else:
        raise ParameterError(f"cannot save model of type {type(model).__name__}")
    payload = {"format_version": FORMAT_VERSION, "kind": model.kind, **fields}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def load_model(path: str | Path) -> Model:
    """Read a model JSON file back into its dataclass, re-validating invariants."""
    path = Path(path)
    if not path.exists():
        raise ModelFormatError(f"model file not found: {path}")
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: invalid or truncated JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ModelFormatError(f"{path}: expected a JSON object at top level")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported format_version {version!r}; supported versions: {FORMAT_VERSION}"
        )
    kind = payload.get("kind")
    try:
        if kind == "klvq":
            cfg = payload["config"]
            config = QuantizerConfig(
                M=cfg["M"],
                knn=KnnConfig(k=cfg["knn"]["k"], include_self=cfg["knn"]["include_self"]),
                smoothing=SmoothingConfig(epsilon=cfg["smoothing"]["epsilon"]),
                max_iters=cfg["max_iters"],
                seed=cfg["seed"],
                init=cfg["init"],
                update_mode=cfg["update_mode"],
            )
            names = payload["class_names"]
            if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
                raise TypeError("class_names must be a list of strings")
            training_set = LabeledDataset(
                payload["training_features"], payload["training_labels"], tuple(names)
            )
            return QuantizerModel(
                subset_dists=payload["subset_dists"],
                config=config,
                training_set=training_set,
                final_objective=payload["final_objective"],
                iterations_run=payload["iterations_run"],
                converged=payload["converged"],
            )
        if kind == "kmeans":
            model = KmeansModel(
                centroids=payload["centroids"],
                K=payload["K"],
                inertia=payload["inertia"],
                iterations_run=payload["iterations_run"],
                inertia_trace=tuple(payload.get("inertia_trace", ())),
            )
            if require_int(payload["config"]["K"], "config.K") != model.K:
                raise ValueError(f"config.K {payload['config']['K']} disagrees with K {model.K}")
            return model
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed {kind} model ({exc})") from None
    raise ModelFormatError(f"{path}: unknown model kind {kind!r}; expected klvq or kmeans")
