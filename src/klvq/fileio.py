"""File formats: CSV datasets and descriptor bags, JSON model persistence.

Dataset CSV: header ``f1,...,fd,label``, one vector per row, label as a class
name string. Bags are stored as one descriptor CSV per item (header
``f1,...,fd``) plus a ``manifest.csv`` with columns ``item_id,path,label``.
Every feature table is read by ``_read_table``. Every CSV is written as
``csv.writer`` would write it, without running it: a float cell is its
``repr``, a text cell is quoted by ``_text_cell``, and lines end in ``\r\n``.
Class indices follow first appearance order in datasets and manifests alike.
Models are JSON documents carrying a ``format_version`` and a ``kind`` of
``klvq`` or ``kmeans``; all reals are serialized at full round-trip precision.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path
from typing import Iterable, Optional, Sequence, TextIO, Union

import numpy as np

from .bof import FeatureBag
from .divergence import SmoothingConfig
from .errors import DatasetFormatError, ModelFormatError, ParameterError
from .kmeans import KmeansModel
from .label_model import KnnConfig, LabeledDataset, require_int, require_real
from .quantizer import QuantizerConfig, QuantizerModel

FORMAT_VERSION = 1
_MANIFEST_HEADER = ["item_id", "path", "label"]
_LINE_END = "\r\n"
# Rows formatted per write by save_dataset, so its Python floats never hold the whole matrix.
_DATASET_BLOCK_ROWS = 4096
# A csv quote, or U+001C-U+001F, which loadtxt strips around a number and float() rejects.
_NOT_CLEAN = '"\x1c\x1d\x1e\x1f'

Model = Union[QuantizerModel, KmeansModel]


def _feature_header(dim: int) -> list[str]:
    return [f"f{i}" for i in range(1, dim + 1)]


def _read_csv(path: Path) -> list[list[str]]:
    if not path.exists():
        raise DatasetFormatError(f"file not found: {path}")
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            rows = list(reader)
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"{path}: not UTF-8 text ({exc})") from None
        except csv.Error as exc:
            raise DatasetFormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise DatasetFormatError(f"{path}: empty file")
    return rows


def _read_table(path: Path, label: Optional[bool], rows_name: str = "data") -> tuple[np.ndarray, list[str]]:
    """Read a ``f1,...,fd[,label]`` CSV into its (N, d) float matrix and its N
    label cells (empty without a label column). label=None makes the label
    column optional. A clean table is parsed by one np.loadtxt call, which rounds
    like float(); any other file, and so every error, goes to _parse_rows."""
    try:
        # Universal newlines, as csv ends a record at \r\n, \r or \n outside quotes.
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        text = ""  # _read_csv raises the error
    lines = text.removesuffix("\n").split("\n")
    header = lines[0].split(",")
    labeled = header[-1:] == ["label"] if label is None else label
    dim = len(header) - labeled
    split = [line.rpartition(",") for line in lines[1:]] if labeled else []
    body = [cells[0] for cells in split] if labeled else lines[1:]
    # loadtxt skips empty lines, so every data line must have a feature cell;
    # and it has no field limit, so a line longer than csv's goes to csv.
    clean = (
        body and all(body) and not any(char in text for char in _NOT_CLEAN)
        and max(map(len, lines)) <= csv.field_size_limit()
    )
    if clean and dim >= 1 and header == _feature_header(dim) + ["label"] * labeled:
        try:
            features = np.loadtxt(body, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
        except ValueError:
            features = None
        if features is not None and features.shape == (len(body), dim) and np.isfinite(features).all():
            return features, [cells[2] for cells in split]
    return _parse_rows(path, _read_csv(path), label, rows_name)


def _parse_rows(
    path: Path, rows: list[list[str]], label: Optional[bool], rows_name: str
) -> tuple[np.ndarray, list[str]]:
    """The per-cell reader behind _read_table; errors name the first bad line in file order."""
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


def _text_cell(value: object) -> str:
    """A text cell as csv.writer writes it in a row of two or more cells:
    quoted, with each quote doubled, when it holds a comma, a quote, a CR or an LF."""
    text = str(value)
    if any(char in text for char in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _float_rows(matrix: np.ndarray) -> list[str]:
    """Each row of a float matrix as the reprs of its cells joined by commas,
    which is what csv.writer writes for a row of Python floats and reads back
    to the same floats; the line ends are the caller's."""
    return [",".join(map(repr, row)) for row in matrix.tolist()]


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


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
    # A block of rows at a time: a whole-matrix tolist() would hold every cell as a
    # Python float at once, which raised peak memory and slowed later commands.
    ends = [f",{_text_cell(name)}{_LINE_END}" for name in dataset.class_names]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(_feature_header(dataset.dim) + ["label"]) + _LINE_END)
        for start in range(0, dataset.n, _DATASET_BLOCK_ROWS):
            stop = start + _DATASET_BLOCK_ROWS
            rows = _float_rows(dataset.features[start:stop])
            labels = dataset.labels[start:stop].tolist()
            handle.write("".join(row + ends[label] for row, label in zip(rows, labels)))


def load_feature_matrix(path: str | Path) -> np.ndarray:
    """Read feature vectors from a CSV whose label column is optional."""
    return _read_table(Path(path), label=None)[0]


def _check_bags(bags: Sequence[FeatureBag]) -> None:
    """Raise ParameterError for a bag that save_bags cannot store: one without
    a label, or whose item_id repeats another's, is not a plain file name, or
    names the manifest."""
    seen = set()
    for bag in bags:
        if bag.label is None:
            raise ParameterError(f"item {bag.item_id!r} has no label to store")
        item_id = str(bag.item_id)
        if "/" in item_id or "\\" in item_id or item_id in (".", ".."):
            raise ParameterError(f"item id {bag.item_id!r} is not a plain file name")
        if item_id == "manifest":
            raise ParameterError("item id 'manifest' would overwrite manifest.csv")
        if item_id in seen:
            raise ParameterError(f"item id {bag.item_id!r} is used by two bags")
        seen.add(item_id)


def _write_bags(
    bags: Sequence[FeatureBag], directory: Path, class_names: Sequence[str], pooled: Optional[TextIO] = None
) -> None:
    """save_bags on checked bags. With pooled, each bag's rows are also
    appended to it, every line carrying the bag's label cell, so the rows are
    formatted once for both files."""
    directory.mkdir(parents=True, exist_ok=True)
    label_cells = [_text_cell(name) for name in class_names]
    manifest = [",".join(_MANIFEST_HEADER)] + [
        f"{_text_cell(bag.item_id)},{_text_cell(f'{bag.item_id}.csv')},{label_cells[bag.label]}" for bag in bags
    ]
    _write_text(directory / "manifest.csv", _LINE_END.join(manifest) + _LINE_END)
    for bag in bags:
        rows = _float_rows(bag.descriptors)
        header = ",".join(_feature_header(bag.descriptors.shape[1]))
        _write_text(directory / f"{bag.item_id}.csv", _LINE_END.join([header] + rows) + _LINE_END)
        if pooled is not None:
            end = f",{label_cells[bag.label]}{_LINE_END}"
            pooled.write(end.join(rows) + end)


def save_bags(bags: Sequence[FeatureBag], directory: str | Path, class_names: Sequence[str]) -> None:
    """Write one descriptor CSV per bag plus the manifest.csv index. Raises
    ParameterError, before writing any file, for a bag without a label and for
    an item_id that repeats, is not a plain file name (it holds / or \\, or
    is . or ..) or is manifest."""
    _check_bags(bags)
    _write_bags(bags, Path(directory), class_names)


def save_synthetic(
    directory: str | Path,
    train_bags: Sequence[FeatureBag],
    test_bags: Sequence[FeatureBag],
    class_names: Sequence[str],
) -> None:
    """Write the layout of ``klvq synth``: the bag directories ``train`` and
    ``test``, and ``descriptors.csv``, the train descriptors pooled in bag
    order with each row labeled by its bag's class. That pooled file is
    byte for byte save_dataset of generate_synthetic's dataset, but each row
    is formatted once, for its bag file and the pooled file together, one bag
    at a time. The train bags share the first one's dimension, as
    generate_synthetic's do."""
    _check_bags(train_bags)
    _check_bags(test_bags)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "descriptors.csv", "w", encoding="utf-8", newline="") as pooled:
        pooled.write(",".join(_feature_header(train_bags[0].descriptors.shape[1]) + ["label"]) + _LINE_END)
        _write_bags(train_bags, directory / "train", class_names, pooled)
    _write_bags(test_bags, directory / "test", class_names)


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
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def load_model(path: str | Path) -> Model:
    """Read a model JSON file back into its dataclass, re-validating invariants."""
    path = Path(path)
    if not path.exists():
        raise ModelFormatError(f"model file not found: {path}")
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
