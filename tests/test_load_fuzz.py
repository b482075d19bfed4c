"""Malformed model and dataset files.

Each mutation of a valid saved file (a truncation, NaN or Infinity in a real
field, a wrong JSON type, a wrong shape, two copies of one fact that
disagree) must make the loader raise its
documented error type, and the CLI must exit 1 with nothing on standard
output. The cases are a fixed table, so every run checks the same inputs.
"""

import json

import numpy as np
import pytest

from klvq import (
    DatasetFormatError,
    KnnConfig,
    LabeledDataset,
    ModelFormatError,
    QuantizerConfig,
    fit,
    kmeans_fit,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)
from klvq.cli import cli

NAN, INF = float("nan"), float("inf")
TRUNCATIONS = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 12-row, 3-class dataset CSV and the text of a klvq and a kmeans model fitted on it."""
    base = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    dataset = LabeledDataset(rng.normal(size=(12, 2)), np.arange(12) % 3, ("a", "b", "c"))
    save_dataset(base / "data.csv", dataset)
    model, _, _ = fit(dataset, QuantizerConfig(M=2, knn=KnnConfig(k=3), seed=1))
    save_model(model, base / "klvq.json")
    save_model(kmeans_fit(dataset.features, 3, seed=1)[0], base / "kmeans.json")
    return {
        "data": base / "data.csv",
        "klvq": (base / "klvq.json").read_text(),
        "kmeans": (base / "kmeans.json").read_text(),
    }


def assert_model_rejected(path, data_csv, capsys):
    with pytest.raises(ModelFormatError):
        load_model(path)
    for argv in (["info", "--model", path], ["quantize", "--model", path, "--input", data_csv]):
        code = cli([str(a) for a in argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, ""), argv
        assert captured.err.startswith("error: "), argv


def mutated(text, field, value):
    """The model JSON text with the entry at path field replaced; a callable
    value maps the saved entry to its replacement."""
    payload = json.loads(text)
    parent = payload
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = value(parent[field[-1]]) if callable(value) else value
    return json.dumps(payload)


REAL_FIELDS = {
    "klvq": [
        ("config", "smoothing", "epsilon"),
        ("subset_dists", 1, 0),
        ("training_features", 3, 1),
        ("final_objective",),
    ],
    "kmeans": [("centroids", 2, 0), ("inertia",), ("inertia_trace", 0)],
}

NON_FINITE = [
    pytest.param(kind, field, value, id=f"{kind}-{'.'.join(map(str, field))}-{value}")
    for kind, fields in REAL_FIELDS.items()
    for field in fields
    for value in (NAN, INF, -INF)
]

WRONG_TYPES = [
    pytest.param(kind, field, value, id=f"{kind}-{'.'.join(map(str, field))}-{json.dumps(value)}")
    for kind, field, values in [
        ("klvq", ("config",), [[], "M"]),
        ("klvq", ("config", "M"), ["2", None]),
        ("klvq", ("config", "knn"), ["k"]),
        ("klvq", ("config", "knn", "k"), [None, "3"]),
        ("klvq", ("config", "smoothing", "epsilon"), ["1e-6", None, True, [1e-6]]),
        ("klvq", ("config", "max_iters"), [None, 1.5]),
        ("klvq", ("config", "seed"), ["1"]),
        ("klvq", ("config", "init"), [3, None]),
        ("klvq", ("config", "update_mode"), [None]),
        ("klvq", ("class_names",), ["abc", {"a": 0, "b": 1, "c": 2}, [0, 1, 2], None]),
        ("klvq", ("subset_dists",), ["x", None, True, {"a": 1}]),
        ("klvq", ("training_features",), ["x", None, {"a": 1}]),
        ("klvq", ("training_labels",), ["x", None, 1.5]),
        ("klvq", ("final_objective",), ["0", None, True, []]),
        ("klvq", ("iterations_run",), ["3", None]),
        ("klvq", ("converged",), [None, "true"]),
        ("klvq", ("format_version",), ["1", None]),
        ("klvq", ("kind",), [1, None]),
        ("kmeans", ("K",), ["3", None]),
        ("kmeans", ("centroids",), ["x", None, {"a": 1}]),
        ("kmeans", ("inertia",), ["1", None, True, []]),
        ("kmeans", ("iterations_run",), [None]),
        ("kmeans", ("inertia_trace",), ["12", 12, None, {"a": 1}, [True], ["1"]]),
    ]
    for value in values
]

WRONG_SHAPES = [
    pytest.param(kind, field, value, id=f"{kind}-{'.'.join(map(str, field))}-{name}")
    for kind, field, name, value in [
        ("klvq", ("subset_dists",), "one-column-short", lambda q: [[r[0], r[1] + r[2]] for r in q]),
        ("klvq", ("subset_dists",), "one-row-short", lambda q: q[:-1]),
        ("klvq", ("subset_dists",), "flat", lambda q: q[0]),
        ("klvq", ("subset_dists",), "three-dimensional", lambda q: [q]),
        ("klvq", ("training_features",), "ragged", lambda x: [x[0][:1]] + x[1:]),
        ("klvq", ("training_features",), "flat", lambda x: x[0]),
        ("klvq", ("training_features",), "empty", []),
        ("klvq", ("training_features",), "extra-row", lambda x: x + [x[0]]),
        ("klvq", ("training_labels",), "one-short", lambda y: y[:-1]),
        ("klvq", ("training_labels",), "nested", lambda y: [[v] for v in y]),
        ("klvq", ("class_names",), "one-short", lambda names: names[:-1]),
        ("klvq", ("config", "knn", "k"), "beyond-training-rows", 13),
        ("klvq", ("config", "M"), "more-than-subset-rows", 3),
        ("kmeans", ("centroids",), "one-row-short", lambda c: c[:-1]),
        ("kmeans", ("centroids",), "ragged", lambda c: [c[0][:1]] + c[1:]),
        ("kmeans", ("centroids",), "flat", lambda c: c[0]),
        ("kmeans", ("centroids",), "empty", []),
        ("kmeans", ("K",), "zero", 0),
    ]
]

WRONG_ENTRIES = [
    pytest.param(kind, field, value, id=f"{kind}-{'.'.join(map(str, field))}-{name}")
    for kind, field, name, value in [
        ("klvq", ("subset_dists",), "string-entries", lambda q: [[str(v) for v in row] for row in q]),
        ("klvq", ("subset_dists",), "boolean-entries", lambda q: [[True] + [False] * (len(row) - 1) for row in q]),
        ("klvq", ("training_features",), "string-entries", lambda x: [[str(v) for v in row] for row in x]),
        ("klvq", ("training_features",), "boolean-entries", lambda x: [[True for _ in row] for row in x]),
        ("kmeans", ("centroids",), "string-entries", lambda c: [[str(v) for v in row] for row in c]),
        ("kmeans", ("centroids",), "null-entry", lambda c: [[None] + row[1:] for row in c]),
    ]
]


DISAGREEING_COPIES = [
    pytest.param(kind, field, value, id=f"{kind}-{'.'.join(map(str, field))}-{name}")
    for kind, field, name, value in [
        ("kmeans", ("config", "K"), "one-more", lambda K: K + 1),
        ("kmeans", ("config", "K"), "boolean", True),
        ("kmeans", ("config", "K"), "string", "3"),
        ("kmeans", ("config",), "no-K", {}),
        ("kmeans", ("config",), "list", [3]),
        ("kmeans", ("inertia",), "not-last-trace-entry", lambda inertia: inertia + 1.0),
        ("kmeans", ("inertia_trace",), "one-more-entry", lambda trace: trace + [trace[-1] + 1.0]),
    ]
]

# The klvq fixture is fitted with the default max_iters of 100.
IMPOSSIBLE_ITERATIONS = [
    pytest.param(kind, ("iterations_run",), value, id=f"{kind}-iterations_run-{name}")
    for kind, name, value in [
        ("klvq", "negative", -5),
        ("klvq", "zero", 0),
        ("klvq", "beyond-max_iters", 101),
        ("klvq", "far-beyond-max_iters", 500),
        ("kmeans", "negative", -1),
        ("kmeans", "zero", 0),
        ("kmeans", "one-more-than-trace", lambda run: run + 1),
        ("kmeans", "one-less-than-trace", lambda run: run - 1),
        ("kmeans", "99", 99),
    ]
]


@pytest.mark.parametrize(
    "kind, field, value",
    NON_FINITE + WRONG_TYPES + WRONG_SHAPES + WRONG_ENTRIES + DISAGREEING_COPIES + IMPOSSIBLE_ITERATIONS,
)
def test_mutated_model_is_rejected(files, tmp_path, capsys, kind, field, value):
    path = tmp_path / "model.json"
    path.write_text(mutated(files[kind], field, value))
    assert_model_rejected(path, files["data"], capsys)


def test_kmeans_model_without_trace_is_rejected(files, tmp_path, capsys):
    # Every saved k-means model carries its trace; K, inertia and
    # iterations_run are derived from it and the centroids.
    path = tmp_path / "model.json"
    path.write_text(mutated(files["kmeans"], ("inertia_trace",), []))
    assert_model_rejected(path, files["data"], capsys)
    payload = json.loads(files["kmeans"])
    del payload["inertia_trace"]
    path.write_text(json.dumps(payload))
    assert_model_rejected(path, files["data"], capsys)


@pytest.mark.parametrize("fraction", TRUNCATIONS)
@pytest.mark.parametrize("kind", ["klvq", "kmeans"])
def test_truncated_model_is_rejected(files, tmp_path, capsys, kind, fraction):
    text = files[kind]
    path = tmp_path / "model.json"
    # Drop at least the closing brace; the trailing newline alone does not count.
    path.write_text(text[: min(int(len(text) * fraction), len(text) - 2)])
    assert_model_rejected(path, files["data"], capsys)


def test_top_level_array_is_rejected(files, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps([json.loads(files["klvq"])]))
    assert_model_rejected(path, files["data"], capsys)


def csv_with_cell(text, row, column, cell):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[column] = cell
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


DATASET_MUTATIONS = [
    *(
        pytest.param(lambda t, v=value, c=column: csv_with_cell(t, 4, c, v), id=f"f{column + 1}-{value}")
        for column in (0, 1)
        for value in ("nan", "NaN", "inf", "-inf", "Infinity")
    ),
    pytest.param(lambda t: csv_with_cell(t, 2, 0, "abc"), id="non-numeric-cell"),
    pytest.param(lambda t: csv_with_cell(t, 2, 1, ""), id="empty-cell"),
    pytest.param(lambda t: csv_with_cell(t, 3, 0, "1,2"), id="extra-cell"),
    pytest.param(lambda t: csv_with_cell(t, 3, 2, "a\n"), id="blank-line"),
    pytest.param(lambda t: t.replace(",", ";"), id="wrong-delimiter"),
    pytest.param(lambda t: "\n".join(line.rsplit(",", 1)[0] for line in t.splitlines()) + "\n", id="no-label-column"),
    pytest.param(lambda t: t.replace("f2", "f3", 1), id="wrong-header"),
    pytest.param(lambda t: t.splitlines()[0] + "\n", id="header-only"),
    pytest.param(lambda t: "", id="empty-file"),
]


@pytest.mark.parametrize("mutate", DATASET_MUTATIONS)
def test_mutated_dataset_is_rejected(files, tmp_path, capsys, mutate):
    path = tmp_path / "data.csv"
    path.write_text(mutate(files["data"].read_text()))
    with pytest.raises(DatasetFormatError):
        load_dataset(path)
    code = cli(["fit", "--input", str(path), "--subsets", "1", "--output", str(tmp_path / "m.json")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("fraction", TRUNCATIONS)
def test_truncated_dataset_loads_a_prefix_or_is_rejected(files, tmp_path, fraction):
    """A cut at a row boundary, or one that leaves a valid last row, is a
    shorter valid file; every other cut is a DatasetFormatError."""
    text = files["data"].read_text()
    full = load_dataset(files["data"])
    path = tmp_path / "data.csv"
    path.write_text(text[: int(len(text) * fraction)])
    try:
        got = load_dataset(path)
    except DatasetFormatError:
        return
    assert 1 <= got.n <= full.n
    np.testing.assert_array_equal(got.features[:-1], full.features[: got.n - 1])
