import json
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_model_json, oracle_model_payload, oracle_read_table, oracle_write_csv

from klvq import (
    DatasetFormatError,
    FeatureBag,
    KmeansModel,
    KnnConfig,
    LabeledDataset,
    ModelFormatError,
    ParameterError,
    QuantizerConfig,
    QuantizerModel,
    SmoothingConfig,
    fit,
    generate_synthetic,
    kmeans_fit,
    load_bags,
    load_dataset,
    load_feature_matrix,
    load_model,
    save_bags,
    save_dataset,
    save_model,
    smooth,
)
from klvq import fileio
from klvq.cli import cli


def write(path, text):
    path.write_text(text)
    return path


class TestLoadDataset:
    def test_two_row_file(self, tmp_path):
        path = write(tmp_path / "d.csv", "f1,f2,label\n0.5,1.5,a\n2.0,3.0,b\n")
        ds = load_dataset(path)
        assert (ds.n, ds.dim, ds.num_classes) == (2, 2, 2)
        assert ds.class_names == ("a", "b")
        np.testing.assert_allclose(ds.features, [[0.5, 1.5], [2.0, 3.0]])

    def test_class_names_take_first_appearance_order(self, tmp_path):
        path = write(tmp_path / "d.csv", "f1,label\n1,b\n2,a\n3,b\n")
        ds = load_dataset(path)
        assert ds.class_names == ("b", "a")
        assert ds.labels.tolist() == [0, 1, 0]

    def test_nan_cell_names_the_line(self, tmp_path):
        path = write(tmp_path / "d.csv", "f1,label\n1.0,a\nNaN,b\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(path)

    def test_non_numeric_cell_names_the_line(self, tmp_path):
        path = write(tmp_path / "d.csv", "f1,label\nfoo,a\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(path)

    def test_ragged_row_names_the_line(self, tmp_path):
        path = write(tmp_path / "d.csv", "f1,f2,label\n1.0,2.0,a\n1.0,b\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="not found"):
            load_dataset(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "d.csv", "")
        with pytest.raises(DatasetFormatError, match="empty"):
            load_dataset(path)

    def test_header_only_file(self, tmp_path):
        path = write(tmp_path / "d.csv", "f1,label\n")
        with pytest.raises(DatasetFormatError, match="no data rows"):
            load_dataset(path)

    def test_bad_header(self, tmp_path):
        path = write(tmp_path / "d.csv", "x,y,label\n1,2,a\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_dataset(path)

    def test_round_trip_preserves_rows_and_label_names(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = LabeledDataset(rng.normal(size=(20, 3)), rng.integers(0, 2, 20), ("x", "y"))
        path = tmp_path / "d.csv"
        save_dataset(path, ds)
        again = load_dataset(path)
        np.testing.assert_array_equal(again.features, ds.features)
        # Indices may be renumbered by first appearance; the name per row survives.
        assert [again.class_names[v] for v in again.labels] == [
            ds.class_names[v] for v in ds.labels
        ]


class TestLoadFeatureMatrix:
    def test_label_column_is_optional(self, tmp_path):
        with_label = write(tmp_path / "a.csv", "f1,f2,label\n1,2,a\n")
        without = write(tmp_path / "b.csv", "f1,f2\n1,2\n")
        np.testing.assert_array_equal(load_feature_matrix(with_label), [[1.0, 2.0]])
        np.testing.assert_array_equal(load_feature_matrix(without), [[1.0, 2.0]])

    @pytest.mark.parametrize("header", ["f1,f2,label", "f1,f2"])
    def test_header_only_file(self, tmp_path, header):
        path = write(tmp_path / "a.csv", header + "\n")
        with pytest.raises(DatasetFormatError, match="no data rows"):
            load_feature_matrix(path)


def load_bag_file(path):
    """Load path as the one descriptor file of a bag directory."""
    write(path.parent / "manifest.csv", f"item_id,path,label\nitem,{path.name},a\n")
    return load_bags(path.parent)


@pytest.mark.parametrize(
    "rows, want",
    [
        pytest.param([["1", "2"], ["1", "x"], ["3", "4"], ["5"]], "line 3, column 2: 'x' is not", id="cell-first"),
        pytest.param([["1", "2"], ["5"], ["3", "4"], ["1", "x"]], "line 3 has", id="short-row-first"),
    ],
)
@pytest.mark.parametrize(
    "load, label",
    [(load_dataset, True), (load_feature_matrix, True), (load_feature_matrix, False), (load_bag_file, False)],
)
def test_first_bad_line_in_file_order_is_reported(tmp_path, rows, want, load, label):
    """A bad cell on line 3 and a short row on line 5 report line 3, and so
    does the same pair in the other order."""
    lines = [["f1", "f2"]] + rows
    if label:
        lines = [line + ["label" if i == 0 else "a"] for i, line in enumerate(lines)]
    path = write(tmp_path / "item.csv", "".join(",".join(line) + "\n" for line in lines))
    with pytest.raises(DatasetFormatError) as excinfo:
        load(path)
    assert want in str(excinfo.value)
    assert "line 5" not in str(excinfo.value)


class TestModelRoundTrip:
    def make_klvq(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 30))
        ds = LabeledDataset(rng.normal(size=(n, 2)), rng.integers(0, 3, n), ("a", "b", "c"))
        config = QuantizerConfig(
            M=int(rng.integers(1, 5)),
            knn=KnnConfig(k=min(5, n)),
            smoothing=SmoothingConfig(1e-6),
            seed=seed,
            update_mode="paper" if seed % 2 else "centroid",
        )
        model, _, _ = fit(ds, config)
        return model

    def test_klvq_round_trip_is_exact(self, tmp_path):
        for seed in range(5):
            model = self.make_klvq(seed)
            path = tmp_path / f"m{seed}.json"
            save_model(model, path)
            again = load_model(path)
            assert again.config == model.config
            assert again.training_set.class_names == model.training_set.class_names
            np.testing.assert_array_equal(again.subset_dists, model.subset_dists)
            np.testing.assert_array_equal(again.training_set.features, model.training_set.features)
            np.testing.assert_array_equal(again.training_set.labels, model.training_set.labels)
            assert again.final_objective == model.final_objective
            assert again.iterations_run == model.iterations_run
            assert again.converged == model.converged

    def test_kmeans_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        model, _ = kmeans_fit(rng.normal(size=(30, 3)), 4, seed=5)
        path = tmp_path / "km.json"
        save_model(model, path)
        again = load_model(path)
        np.testing.assert_array_equal(again.centroids, model.centroids)
        assert again.K == model.K
        assert again.inertia == model.inertia
        assert again.iterations_run == model.iterations_run
        assert again.inertia_trace == model.inertia_trace

    def test_truncated_file_is_a_schema_error(self, tmp_path):
        model = self.make_klvq(3)
        path = tmp_path / "m.json"
        save_model(model, path)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(ModelFormatError, match="truncated|invalid"):
            load_model(path)

    def test_unknown_version_names_supported_versions(self, tmp_path):
        model = self.make_klvq(4)
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="supported versions: 1"):
            load_model(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = write(tmp_path / "m.json", '{"format_version": 1, "kind": "other"}')
        with pytest.raises(ModelFormatError, match="unknown model kind"):
            load_model(path)

    def test_missing_field_rejected(self, tmp_path):
        model = self.make_klvq(5)
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        del payload["subset_dists"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="malformed"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError, match="not found"):
            load_model(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            pytest.param("kmeans", ("K",), float, id="K-real"),
            pytest.param("kmeans", ("iterations_run",), 2.5, id="kmeans-iterations_run"),
            pytest.param("klvq", ("iterations_run",), 2.5, id="klvq-iterations_run"),
            pytest.param("klvq", ("converged",), "no", id="converged-string"),
            pytest.param("klvq", ("converged",), 1, id="converged-int"),
            pytest.param("klvq", ("training_labels", 0), 0.9, id="label-fraction"),
            pytest.param("klvq", ("training_labels", 0), True, id="label-bool"),
            pytest.param("klvq", ("config", "M"), float, id="M-real"),
            pytest.param("klvq", ("config", "knn", "k"), float, id="k-real"),
            pytest.param("klvq", ("config", "knn", "include_self"), "yes", id="include_self-string"),
        ],
    )
    def test_non_integral_or_non_bool_field_rejected(self, tmp_path, kind, field, value):
        """value replaces the field; a callable maps the saved value to its replacement."""
        if kind == "klvq":
            model = self.make_klvq(1)
        else:
            model, _ = kmeans_fit(np.random.default_rng(1).normal(size=(30, 3)), 3, seed=5)
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        parent = payload
        for key in field[:-1]:
            parent = parent[key]
        parent[field[-1]] = value(parent[field[-1]]) if callable(value) else value
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="malformed"):
            load_model(path)


class TestBagStorage:
    def test_round_trip(self, tmp_path):
        train_bags, _, dataset = generate_synthetic(2, 3, 2, 4, 2, 0.5)
        save_bags(train_bags, tmp_path / "train", dataset.class_names)
        loaded, names = load_bags(tmp_path / "train")
        assert names == dataset.class_names
        assert [bag.item_id for bag in loaded] == [bag.item_id for bag in train_bags]
        for got, want in zip(loaded, train_bags):
            assert got.label == want.label
            np.testing.assert_array_equal(got.descriptors, want.descriptors)

    def test_existing_class_names_are_extended(self, tmp_path):
        train_bags, _, dataset = generate_synthetic(2, 2, 1, 3, 2, 0.5)
        save_bags(train_bags, tmp_path / "bags", dataset.class_names)
        loaded, names = load_bags(tmp_path / "bags", ("other",))
        assert names == ("other", "class_0", "class_1")
        assert [bag.label for bag in loaded] == [1, 2]

    def test_repeated_known_class_name_counts_once(self, tmp_path):
        train_bags, _, dataset = generate_synthetic(2, 2, 1, 3, 2, 0.5)
        save_bags(train_bags, tmp_path / "bags", dataset.class_names)
        loaded, names = load_bags(tmp_path / "bags", ("class_1", "class_1"))
        assert names == ("class_1", "class_0")
        assert [bag.label for bag in loaded] == [1, 0]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="not found"):
            load_bags(tmp_path / "nowhere")

    def test_bad_manifest_header(self, tmp_path):
        directory = tmp_path / "bags"
        directory.mkdir()
        (directory / "manifest.csv").write_text("a,b,c\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_bags(directory)

    def test_manifest_row_with_two_cells(self, tmp_path):
        path = write(tmp_path / "manifest.csv", "item_id,path,label\nitem,item.csv\n")
        with pytest.raises(DatasetFormatError, match="line 2 has 2 cells, expected 3"):
            load_bags(tmp_path)

    def test_manifest_path_with_a_nul_byte_names_the_line(self, tmp_path):
        write(tmp_path / "item.csv", "f1\n1.0\n")
        write(tmp_path / "manifest.csv", "item_id,path,label\nitem,item.csv,a\nodd,it\x00em.csv,a\n")
        with pytest.raises(DatasetFormatError, match=r"manifest.csv: line 3: path 'it\\x00em.csv' holds a NUL byte"):
            load_bags(tmp_path)

    def test_header_only_bag_file(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="no descriptor rows"):
            load_bag_file(write(tmp_path / "item.csv", "f1,f2\n"))

    def test_unlabeled_bag_is_not_saved(self, tmp_path):
        bag = FeatureBag(item_id="item", descriptors=np.zeros((2, 2)))
        with pytest.raises(ParameterError, match="'item' has no label to store"):
            save_bags([bag], tmp_path / "bags", ("a",))

    def test_repeated_item_id_is_rejected_before_any_write(self, tmp_path):
        """Both bags would go to a.csv, and the first bag's rows would be lost."""
        bags = [FeatureBag("a", np.zeros((2, 2)), 0), FeatureBag("a", np.ones((3, 2)), 1)]
        with pytest.raises(ParameterError, match="'a' is used by two bags"):
            save_bags(bags, tmp_path / "bags", ("x", "y"))
        assert not (tmp_path / "bags").exists()

    def test_item_id_manifest_is_rejected_before_any_write(self, tmp_path):
        """Its descriptor file would overwrite manifest.csv."""
        with pytest.raises(ParameterError, match="would overwrite manifest.csv"):
            save_bags([FeatureBag("manifest", np.zeros((2, 2)), 0)], tmp_path / "bags", ("x",))
        assert not (tmp_path / "bags").exists()

    @pytest.mark.parametrize("item_id", ["../escaped", "sub/item", "sub\\item", ".", "..", "a\x00b"])
    def test_item_id_that_is_not_a_plain_file_name_is_rejected_before_any_write(self, tmp_path, item_id):
        """../escaped would write escaped.csv beside the bag directory."""
        bags = [FeatureBag("fine", np.zeros((2, 2)), 0), FeatureBag(item_id, np.zeros((2, 2)), 0)]
        with pytest.raises(ParameterError, match="is not a plain file name"):
            save_bags(bags, tmp_path / "bags", ("x",))
        assert list(tmp_path.iterdir()) == []


def test_oversized_quoted_cell_names_the_line(tmp_path):
    cell = '"' + "1" * 200_000 + '"'
    path = write(tmp_path / "item.csv", f"f1\n1.0\n{cell}\n")
    with pytest.raises(DatasetFormatError, match=r"item.csv: line 3: field larger than field limit"):
        load_feature_matrix(path)
    with pytest.raises(DatasetFormatError, match=r"manifest.csv: line 2: field larger than field limit"):
        load_bags(write(tmp_path / "manifest.csv", f"item_id,path,label\n{cell},item.csv,a\n").parent)


@pytest.mark.parametrize("last", ["1.0", '"1.0"'], ids=["clean", "quoted"])
def test_cell_over_the_field_limit_is_rejected_either_way(tmp_path, last):
    """loadtxt has no field limit; a line longer than csv's goes to the
    per-cell reader, so an otherwise clean file is rejected like one with
    a quoted cell elsewhere."""
    cell = "0." + "0" * 199_997 + "1"
    path = write(tmp_path / "item.csv", f"f1\n{cell}\n{last}\n")
    with pytest.raises(DatasetFormatError, match=r"item.csv: line 2: field larger than field limit"):
        load_feature_matrix(path)


# Good cells are read alike by loadtxt and float(). Odd cells are rejected by
# one of them or both, or are quoted, and send the file to the per-cell loop.
PADDING = st.sampled_from([" ", "\t", "\x0b", "\x0c", "\xa0", "\u2003"])
GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.tuples(PADDING, st.sampled_from(["1.5", "-2", "3e-3"])).map(lambda pair: pair[0] + pair[1] + pair[0]),
)
ODD_CELLS = st.sampled_from(
    ["1_0", "\u0661", "nan", "-inf", "Infinity", "1e400", "", "x", '"2.5"', '"1,5"', "-0.0", "0x10", "\x1c1.5", "2\x1f"]
)
ODD_LABELS = st.one_of(
    st.text(alphabet='ab,"\r\n ', max_size=4),
    st.text(alphabet='ab,"\r\n ', max_size=4).map(lambda text: '"' + text.replace('"', '""') + '"'),
)


@st.composite
def table_files(draw):
    """(file text, label argument): mostly clean tables, with now and then a
    wrong header, a short or long row, a blank line, an odd cell or label;
    any line ends, with or without a final line end."""

    def rarely(odd, usual, one_in=8):
        return draw(odd) if draw(st.integers(1, one_in)) == 1 else draw(usual)

    dim = draw(st.integers(1, 3))
    label = draw(st.sampled_from([True, False, None]))
    labeled = label if label is not None else draw(st.booleans())
    header = [f"f{i}" for i in range(1, dim + 1)] + ["label"] * labeled
    wrong = [header[:-1] or ["label"], header + ["label"], ["f2"] + header[1:]]
    header = rarely(st.sampled_from(wrong), st.just(header))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        width = dim + rarely(st.sampled_from([-1, 1]), st.just(0), 12)
        cells = [rarely(ODD_CELLS, GOOD_CELLS, 40) for _ in range(width)]
        cells += [rarely(ODD_LABELS, st.sampled_from(["a", "b", "label", ""]))] * labeled
        lines.append(rarely(st.just(""), st.just(",".join(cells)), 30))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return (text if draw(st.booleans()) else text.rstrip("\r\n")), label


def read(read_table, path, label):
    try:
        return read_table(path, label)
    except DatasetFormatError as exc:
        return str(exc)


def assert_reads_as_oracle(path, label):
    """Bit-identical matrices and the same label cells, or the same error."""
    got, want = read(fileio._read_table, path, label), read(oracle_read_table, path, label)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got[0].shape == want[0].shape
        assert got[0].view(np.uint64).tolist() == want[0].view(np.uint64).tolist()
        assert got[1] == want[1]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=table_files())
def test_reader_matches_the_per_cell_oracle(tmp_path_factory, case):
    text, label = case
    path = tmp_path_factory.getbasetemp() / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_reads_as_oracle(path, label)


@pytest.mark.parametrize(
    "cell", ["\x1c1.5", "1.5\x1d", "\x1e-2", "3\x1f", "1_0", "\u0661", "\xa01.5", '"1.5"', "1e400"]
)
@pytest.mark.parametrize("label", [True, False])
def test_cells_at_the_edge_of_loadtxt_syntax_read_as_float_reads_them(tmp_path, cell, label):
    """loadtxt strips U+001C-U+001F around a number and rejects underscores
    and non-ASCII digits; float() does the reverse."""
    path = write(tmp_path / "table.csv", "f1,f2" + ",label" * label + f"\n0.5,{cell}" + ",a" * label + "\n")
    assert_reads_as_oracle(path, label)


def test_clean_files_take_the_loadtxt_path(tmp_path, monkeypatch):
    """klvq's own CSVs (\\r\\n line ends) and \\n-ended files never reach the
    per-cell loop; a file with a quoted cell does."""
    parsed = []
    parse_rows = fileio._parse_rows
    monkeypatch.setattr(fileio, "_parse_rows", lambda path, *rest: parsed.append(path) or parse_rows(path, *rest))
    flags = {"--seed": 3, "--classes": 2, "--items-per-class": 2, "--descriptors": 4, "--dim": 3, "--noise": 1}
    assert cli(["synth", "--out-dir", str(tmp_path / "bench")] + [str(a) for pair in flags.items() for a in pair]) == 0
    assert b"\r\n" in (tmp_path / "bench/descriptors.csv").read_bytes()
    load_bags(tmp_path / "bench/train")
    load_bags(tmp_path / "bench/test")
    dataset = load_dataset(tmp_path / "bench/descriptors.csv")
    load_feature_matrix(tmp_path / "bench/descriptors.csv")
    save_dataset(tmp_path / "saved.csv", dataset)
    load_dataset(tmp_path / "saved.csv")
    load_feature_matrix(write(tmp_path / "queries.csv", "f1,f2\n0.5,-1e-3\n2,3\n"))
    assert parsed == []
    load_feature_matrix(write(tmp_path / "quoted.csv", 'f1,f2\n"0.5",1\n'))
    assert parsed == [tmp_path / "quoted.csv"]


# Cells at the edges of repr: signed zero, the smallest subnormal, the switch
# to exponent notation at both ends, and the largest finite magnitudes.
EDGE_FLOATS = [-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, -1.7976931348623157e308]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
# Text cells that csv quotes (a comma, a quote, CR, LF) or leaves bare (spaces, the empty name).
NAMES = st.text(alphabet='ab,"\r\n ', max_size=4)
ITEM_IDS = st.text(alphabet='ab,"\r\n .', min_size=1, max_size=4).filter(lambda text: text not in (".", ".."))


def oracle_save_bags(bags, directory, class_names):
    directory.mkdir(parents=True)
    manifest = [[bag.item_id, f"{bag.item_id}.csv", class_names[bag.label]] for bag in bags]
    oracle_write_csv(directory / "manifest.csv", ["item_id", "path", "label"], manifest)
    for bag in bags:
        header = [f"f{j}" for j in range(1, bag.descriptors.shape[1] + 1)]
        oracle_write_csv(directory / f"{bag.item_id}.csv", header, bag.descriptors.tolist())


def oracle_save_dataset(path, dataset):
    header = [f"f{j}" for j in range(1, dataset.dim + 1)] + ["label"]
    rows = [row + [dataset.class_names[label]] for row, label in zip(dataset.features.tolist(), dataset.labels)]
    oracle_write_csv(path, header, rows)


def file_bytes(directory):
    return {path.relative_to(directory): path.read_bytes() for path in directory.rglob("*") if path.is_file()}


@st.composite
def matrices(draw, dim=None):
    dim = dim or draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(FLOATS, min_size=dim, max_size=dim), min_size=1, max_size=4))
    return np.array(rows, dtype=np.float64).reshape(-1, dim)


@st.composite
def bag_sets(draw):
    names = draw(st.lists(NAMES, min_size=1, max_size=3))
    ids = draw(st.lists(ITEM_IDS, min_size=1, max_size=4, unique=True))
    return [FeatureBag(item_id, draw(matrices()), draw(st.integers(0, len(names) - 1))) for item_id in ids], names


@st.composite
def datasets(draw):
    features = draw(matrices())
    names = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    labels = draw(st.lists(st.integers(0, len(names) - 1), min_size=len(features), max_size=len(features)))
    return LabeledDataset(features, labels, tuple(names))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=bag_sets())
def test_save_bags_writes_what_csv_writer_writes(case):
    bags, names = case
    with tempfile.TemporaryDirectory() as root:
        save_bags(bags, Path(root, "got"), names)
        oracle_save_bags(bags, Path(root, "want"), names)
        assert file_bytes(Path(root, "got")) == file_bytes(Path(root, "want"))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dataset=datasets())
def test_save_dataset_writes_what_csv_writer_writes(tmp_path_factory, dataset):
    base = tmp_path_factory.getbasetemp()
    save_dataset(base / "got.csv", dataset)
    oracle_save_dataset(base / "want.csv", dataset)
    assert (base / "got.csv").read_bytes() == (base / "want.csv").read_bytes()


def test_edge_floats_and_quoted_names_are_written_as_csv_writer_writes_them(tmp_path):
    """Every edge float in one file; names with a comma, a quote, CR and LF
    are quoted; an empty name in a multi-cell row is written as nothing at
    all, where csv.writer writes a lone empty cell as \"\"."""
    features = np.array(EDGE_FLOATS).reshape(3, 2)
    names = ("", "a,b", 'say "hi"', "cr\rlf\n", "plain")
    dataset = LabeledDataset(features, [0, 1, 2], names[:3])
    save_dataset(tmp_path / "got.csv", dataset)
    oracle_save_dataset(tmp_path / "want.csv", dataset)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.splitlines()[1:4] == [
        b"-0.0,5e-324,",
        b'1e-05,1e+16,"a,b"',
        b'1.7976931348623157e+308,-1.7976931348623157e+308,"say ""hi"""',
    ]
    bags = [FeatureBag(f"item{i}", features, i) for i in range(len(names))]
    save_bags(bags, tmp_path / "got", names)
    oracle_save_bags(bags, tmp_path / "want", names)
    assert file_bytes(tmp_path / "got") == file_bytes(tmp_path / "want")
    oracle_write_csv(tmp_path / "lone.csv", [""], [])
    assert (tmp_path / "lone.csv").read_bytes() == b'""\r\n'


SYNTH_SHAPES = [(3, 4, 6, 2), (4, 2, 5, 8), (2, 3, 2, 16)]


@pytest.mark.parametrize("classes, items, descriptors, dim", SYNTH_SHAPES)
@pytest.mark.parametrize("seed", [0, 5])
def test_synth_writes_what_csv_writer_writes(tmp_path, seed, classes, items, descriptors, dim):
    """Every file of klvq synth, and descriptors.csv is save_dataset of
    generate_synthetic's dataset: the train bags pooled in order, each row
    labeled by its bag."""
    argv = ["synth", "--seed", str(seed), "--classes", str(classes), "--items-per-class", str(items),
            "--descriptors", str(descriptors), "--dim", str(dim), "--noise", "0.5", "--out-dir", str(tmp_path / "got")]
    assert cli(argv) == 0
    train_bags, test_bags, dataset = generate_synthetic(seed, classes, items, descriptors, dim, 0.5)
    want = tmp_path / "want"
    oracle_save_bags(train_bags, want / "train", dataset.class_names)
    oracle_save_bags(test_bags, want / "test", dataset.class_names)
    oracle_save_dataset(want / "descriptors.csv", dataset)
    assert file_bytes(tmp_path / "got") == file_bytes(want)
    save_dataset(tmp_path / "saved.csv", dataset)
    assert (tmp_path / "saved.csv").read_bytes() == (tmp_path / "got/descriptors.csv").read_bytes()


def test_save_synthetic_rejects_unsafe_ids_before_any_write(tmp_path):
    train_bags, test_bags, dataset = generate_synthetic(1, 2, 2, 3, 2, 0.5)
    test_bags[1] = FeatureBag("../escaped", test_bags[1].descriptors, test_bags[1].label)
    with pytest.raises(ParameterError, match="not a plain file name"):
        fileio.save_synthetic(tmp_path / "out", train_bags, test_bags, dataset.class_names)
    assert list(tmp_path.iterdir()) == []


def test_label_without_a_class_name_is_rejected_before_any_write(tmp_path):
    """The manifest would need class_names[3]: the directory was made, then IndexError."""
    with pytest.raises(ParameterError, match="item 'a' has label 3, but only 1 class names are given"):
        save_bags([FeatureBag("a", np.ones((2, 2)), 3)], tmp_path / "bags", ("c",))
    train_bags, test_bags, dataset = generate_synthetic(1, 2, 2, 3, 2, 0.5)
    test_bags[-1] = FeatureBag("odd", test_bags[-1].descriptors, 2)
    with pytest.raises(ParameterError, match="item 'odd' has label 2, but only 2 class names"):
        fileio.save_synthetic(tmp_path / "out", train_bags, test_bags, dataset.class_names)
    assert list(tmp_path.iterdir()) == []


def test_save_synthetic_rejects_train_bags_it_cannot_pool_before_any_write(tmp_path):
    """descriptors.csv has one header: train bags of d = 2 and d = 3 wrote rows
    of 3 feature cells under f1,f2,label, and no train bags raised IndexError."""
    bags = [FeatureBag("a", np.ones((2, 2)), 0), FeatureBag("b", np.ones((2, 3)), 0)]
    with pytest.raises(ParameterError, match="train item 'b' has dimension 3, but item 'a' has 2"):
        fileio.save_synthetic(tmp_path / "out", bags, [], ("c",))
    with pytest.raises(ParameterError, match="no train bags"):
        fileio.save_synthetic(tmp_path / "out", [], bags[:1], ("c",))
    assert list(tmp_path.iterdir()) == []


def synth_files(train_bags, dataset, directory, test_bags=None):
    """What the oracles write for save_synthetic; without test_bags, no test directory."""
    oracle_save_bags(train_bags, directory / "train", dataset.class_names)
    if test_bags is not None:
        oracle_save_bags(test_bags, directory / "test", dataset.class_names)
    oracle_save_dataset(directory / "descriptors.csv", dataset)
    return file_bytes(directory)


@pytest.mark.parametrize("first", ["train", "test"])
def test_synthetic_files_do_not_depend_on_which_directory_is_written_first(tmp_path, monkeypatch, first):
    """The directory not named first waits, at its first file, until every
    file of the other one is written, so each order of the two threads runs."""
    train_bags, test_bags, dataset = generate_synthetic(3, 3, 4, 5, 2, 0.5)
    count = len(train_bags if first == "train" else test_bags) + 1  # and the manifest
    written, first_done = [], threading.Event()
    write_text = fileio._write_text

    def ordered_write_text(path, text):
        if path.parent.name != first:
            assert first_done.wait(timeout=30)
        write_text(path, text)
        written.append(path.parent.name)
        if written.count(first) == count:
            first_done.set()

    monkeypatch.setattr(fileio, "_write_text", ordered_write_text)
    threads = threading.active_count()
    fileio.save_synthetic(tmp_path / "got", train_bags, test_bags, dataset.class_names)
    assert threading.active_count() == threads
    assert written[:count] == [first] * count and first not in written[count:]
    assert file_bytes(tmp_path / "got") == synth_files(train_bags, dataset, tmp_path / "want", test_bags)


def test_a_file_at_train_raises_the_train_sides_error(tmp_path, capsys):
    """The error is the one the single-threaded writer raised, and the CLI
    prints the same io error; the test directory is still written."""
    train_bags, test_bags, dataset = generate_synthetic(2, 2, 3, 4, 2, 0.5)
    out = tmp_path / "out"
    out.mkdir()
    (out / "train").write_text("not a directory", encoding="utf-8")
    with pytest.raises(FileExistsError) as expected:
        (out / "train").mkdir(parents=True, exist_ok=True)
    threads = threading.active_count()
    with pytest.raises(FileExistsError) as raised:
        fileio.save_synthetic(out, train_bags, test_bags, dataset.class_names)
    assert threading.active_count() == threads
    assert str(raised.value) == str(expected.value)
    oracle_save_bags(test_bags, tmp_path / "want", dataset.class_names)
    assert file_bytes(out / "test") == file_bytes(tmp_path / "want")
    argv = ["synth", "--seed", "2", "--classes", "2", "--items-per-class", "3", "--descriptors", "4", "--dim", "2",
            "--noise", "0.5", "--out-dir", str(out)]
    capsys.readouterr()
    assert cli(argv) == 1
    assert capsys.readouterr().err == f"io error: {expected.value}\n"


def test_a_file_at_test_raises_its_error_after_the_train_side_finishes(tmp_path):
    train_bags, test_bags, dataset = generate_synthetic(2, 2, 3, 4, 2, 0.5)
    out = tmp_path / "out"
    out.mkdir()
    (out / "test").write_text("not a directory", encoding="utf-8")
    with pytest.raises(FileExistsError) as expected:
        (out / "test").mkdir(parents=True, exist_ok=True)
    threads = threading.active_count()
    with pytest.raises(FileExistsError) as raised:
        fileio.save_synthetic(out, train_bags, test_bags, dataset.class_names)
    assert threading.active_count() == threads
    assert str(raised.value) == str(expected.value)
    (out / "test").unlink()
    assert file_bytes(out) == synth_files(train_bags, dataset, tmp_path / "want")


# Reals at the edges of repr: signed zero, the smallest subnormal and normal,
# the switch to exponent notation at both ends, a fraction with no short
# binary form, a long integer and the largest finite magnitude.
MODEL_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.1, 1e16, 123456789.0, 1.7976931348623157e308]
NONNEGATIVE = st.one_of(st.sampled_from(MODEL_FLOATS[1:]), st.floats(0, 1e300))
# Class names that json escapes: non-ASCII (two- and four-byte UTF-8), a quote,
# a backslash, a comma and a newline.
MODEL_NAMES = st.text(alphabet='aé☃𝄞"\\,\n', max_size=3)


@st.composite
def saved_models(draw):
    """(block, model): a klvq or k-means model whose row count is block - 1,
    block or block + 1, for _DATASET_BLOCK_ROWS patched to block."""
    block = draw(st.integers(1, 3))
    n = max(1, block + draw(st.sampled_from([-1, 0, 1])))
    dim = draw(st.sampled_from([1, 16]))
    cells = st.one_of(st.sampled_from(MODEL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    features = np.array(draw(st.lists(cells, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    if draw(st.booleans()):
        return block, KmeansModel(features, tuple(draw(st.lists(NONNEGATIVE, min_size=1, max_size=3))))
    names = draw(st.lists(MODEL_NAMES, min_size=1, max_size=3, unique=True))
    labels = draw(st.lists(st.integers(0, len(names) - 1), min_size=n, max_size=n))
    M = draw(st.integers(1, n + 1))
    counts = np.array(draw(st.lists(st.integers(0, 9), min_size=M * len(names), max_size=M * len(names))))
    epsilon = draw(st.sampled_from([1e-6, 0.1, 1e-05, 123456789.0]))
    config = QuantizerConfig(
        M=M,
        knn=KnnConfig(k=draw(st.integers(1, n)), include_self=draw(st.booleans())),
        smoothing=SmoothingConfig(epsilon),
        max_iters=3,
        seed=draw(st.integers(0, 2**40)),
        init=draw(st.sampled_from(["random", "kmeans"])),
        update_mode=draw(st.sampled_from(["paper", "centroid"])),
    )
    model = QuantizerModel(
        subset_dists=smooth(counts.reshape(M, len(names)), config.smoothing),
        config=config,
        training_set=LabeledDataset(features, labels, tuple(names)),
        final_objective=draw(NONNEGATIVE),
        iterations_run=draw(st.integers(1, 3)),
        converged=draw(st.booleans()),
    )
    return block, model


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=saved_models())
def test_save_model_writes_what_json_dump_writes(case):
    block, model = case
    with tempfile.TemporaryDirectory() as root, mock.patch.object(fileio, "_DATASET_BLOCK_ROWS", block):
        save_model(model, Path(root, "model.json"))
        assert Path(root, "model.json").read_bytes() == oracle_model_json(model).encode("utf-8")


def test_save_model_holds_less_memory_than_json_dump(tmp_path):
    """The writer formats a block of rows at a time; the stdlib path holds
    every cell as a Python float at once, which raised peak memory and could
    slow the commands that follow (see save_dataset)."""
    rng = np.random.default_rng(0)
    names = tuple(f"class_{c}" for c in range(8))
    dataset = LabeledDataset(rng.normal(size=(20_000, 16)), rng.integers(0, 8, 20_000), names)
    config = QuantizerConfig(M=16, knn=KnnConfig(k=10), smoothing=SmoothingConfig(1e-6))
    subset_dists = smooth(rng.integers(0, 50, size=(16, 8)), config.smoothing)
    model = QuantizerModel(subset_dists, config, dataset, 1.0, 1, True)

    def peak(write):
        tracemalloc.start()
        try:
            write()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def stdlib_write():
        with open(tmp_path / "want.json", "w", encoding="utf-8") as handle:
            json.dump(oracle_model_payload(model), handle, indent=2)
            handle.write("\n")

    got = peak(lambda: save_model(model, tmp_path / "got.json"))
    want = peak(stdlib_write)
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
    assert got < 0.75 * want, (got, want)
