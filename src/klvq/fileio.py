"""File formats: CSV datasets and descriptor bags, JSON model persistence.

Dataset CSV: header ``f1,...,fd,label``, one vector per row, label as a class
name string. Bags are stored as one descriptor CSV per item (header
``f1,...,fd``) plus a ``manifest.csv`` with columns ``item_id,path,label``.
Every feature table is read by ``_read_table`` and every CSV is written by
``_write_csv``; class indices follow first appearance order in datasets and
manifests alike. Models are JSON documents carrying a
``format_version`` and a ``kind`` of ``klvq`` or ``kmeans``; all reals are
serialized at full round-trip precision.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .bof import FeatureBag
from .divergence import SmoothingConfig
from .errors import DatasetFormatError, ModelFormatError, ParameterError
from .kmeans import KmeansModel
from .label_model import KnnConfig, LabeledDataset, require_int, require_real
from .quantizer import QuantizerConfig, QuantizerModel

FORMAT_VERSION = 1
_MANIFEST_HEADER = ["item_id", "path", "label"]

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


def _read_table(path: Path, label: Optional[bool], rows_name: str = "data") -> tuple[np.ndarray, list[str]]:
    """Read a ``f1,...,fd[,label]`` CSV into its (N, d) float matrix and its N
    label cells (empty without a label column). label=None makes the label
    column optional; errors name the first bad line in file order."""
    rows = _read_csv(path)
    header = rows[0]
    if label is None:
        label = bool(header) and header[-1] == "label"
    columns = header[:-1] if label else header
    if label and (len(header) < 2 or header[-1] != "label"):
        raise DatasetFormatError(f'{path}: line 1: header must end with a "label" column')
    if not columns or columns != _feature_header(len(columns)):
        raise DatasetFormatError(f'{path}: line 1: header must be "f1,...,fd{",label" if label else ""}"')
    if len(rows) < 2:
        raise DatasetFormatError(f"{path}: no {rows_name} rows")
    features = np.empty((len(rows) - 1, len(columns)), dtype=np.float64)
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DatasetFormatError(f"{path}: line {lineno} has {len(row)} cells, expected {len(header)}")
        values = []
        for column, cell in enumerate(row[: len(columns)], start=1):
            try:
                value = float(cell)
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: line {lineno}, column {column}: {cell!r} is not a real number"
                ) from None
            if not math.isfinite(value):
                raise DatasetFormatError(f"{path}: line {lineno}, column {column}: non-finite value {cell!r}")
            values.append(value)
        features[lineno - 2] = values
    return features, [row[-1] for row in rows[1:]] if label else []


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    """Write header and rows; a float cell is written as its repr, which
    reads back to the same float."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _class_indices(cells: Iterable[str], known: Sequence[str] = ()) -> tuple[list[int], tuple[str, ...]]:
    """The class index of each name cell, and the class names: known first
    (a repeated name once), then each new name in order of first appearance."""
    index = {name: i for i, name in enumerate(dict.fromkeys(known))}
    return [index.setdefault(cell, len(index)) for cell in cells], tuple(index)


def load_dataset(path: str | Path) -> LabeledDataset:
    """Read a labeled dataset CSV; class names take first-appearance order."""
    features, cells = _read_table(Path(path), label=True)
    labels, names = _class_indices(cells)
    return LabeledDataset(features=features, labels=np.array(labels, dtype=np.int64), class_names=names)


def save_dataset(path: str | Path, dataset: LabeledDataset) -> None:
    # One row at a time: a whole-matrix tolist() would hold every cell as a
    # Python float at once, which raised peak memory and slowed later commands.
    names = dataset.class_names
    rows = (row.tolist() + [names[label]] for row, label in zip(dataset.features, dataset.labels))
    _write_csv(Path(path), _feature_header(dataset.dim) + ["label"], rows)


def load_feature_matrix(path: str | Path) -> np.ndarray:
    """Read feature vectors from a CSV whose label column is optional."""
    return _read_table(Path(path), label=None)[0]


def save_bags(bags: Sequence[FeatureBag], directory: str | Path, class_names: Sequence[str]) -> None:
    """Write one descriptor CSV per bag plus the manifest.csv index."""
    for bag in bags:
        if bag.label is None:
            raise ParameterError(f"item {bag.item_id!r} has no label to store")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = ([bag.item_id, f"{bag.item_id}.csv", class_names[bag.label]] for bag in bags)
    _write_csv(directory / "manifest.csv", _MANIFEST_HEADER, manifest)
    for bag in bags:
        header = _feature_header(bag.descriptors.shape[1])
        _write_csv(directory / f"{bag.item_id}.csv", header, bag.descriptors.tolist())


def load_bags(
    directory: str | Path,
    class_names: Optional[Sequence[str]] = None,
) -> tuple[list[FeatureBag], tuple[str, ...]]:
    """Read a bag directory; label names extend class_names in appearance order."""
    directory = Path(directory)
    manifest = directory / "manifest.csv"
    rows = _read_csv(manifest)
    if rows[0] != _MANIFEST_HEADER:
        raise DatasetFormatError(f'{manifest}: line 1: header must be "{",".join(_MANIFEST_HEADER)}"')
    descriptors = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise DatasetFormatError(f"{manifest}: line {lineno} has {len(row)} cells, expected 3")
        descriptors.append(_read_table(directory / row[1], label=False, rows_name="descriptor")[0])
    labels, names = _class_indices((row[2] for row in rows[1:]), () if class_names is None else class_names)
    bags = [
        FeatureBag(item_id=row[0], descriptors=matrix, label=label)
        for row, matrix, label in zip(rows[1:], descriptors, labels)
    ]
    return bags, names


def save_model(model: Model, path: str | Path) -> None:
    """Serialize a fitted model to versioned JSON."""
    if isinstance(model, QuantizerModel):
        config = model.config
        fields = {
            "config": dataclasses.asdict(model.config),
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
            model = KmeansModel(centroids=payload["centroids"], inertia_trace=tuple(payload["inertia_trace"]))
            # The file repeats facts the centroids and the trace already hold.
            copies = {
                "K": (require_int(payload["K"], "K"), model.K),
                "config.K": (require_int(payload["config"]["K"], "config.K"), model.K),
                "inertia": (require_real(payload["inertia"], "inertia"), model.inertia),
                "iterations_run": (require_int(payload["iterations_run"], "iterations_run"), model.iterations_run),
            }
            for name, (stored, derived) in copies.items():
                if stored != derived:
                    raise ValueError(f"{name} {stored!r} disagrees with {derived!r} from centroids and inertia_trace")
            return model
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed {kind} model ({exc})") from None
    raise ModelFormatError(f"{path}: unknown model kind {kind!r}; expected klvq or kmeans")
