import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_read_table

from klvq import (
    DatasetFormatError,
    FeatureBag,
    KnnConfig,
    LabeledDataset,
    ModelFormatError,
    ParameterError,
    QuantizerConfig,
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

    def test_header_only_bag_file(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="no descriptor rows"):
            load_bag_file(write(tmp_path / "item.csv", "f1,f2\n"))

    def test_unlabeled_bag_is_not_saved(self, tmp_path):
        bag = FeatureBag(item_id="item", descriptors=np.zeros((2, 2)))
        with pytest.raises(ParameterError, match="'item' has no label to store"):
            save_bags([bag], tmp_path / "bags", ("a",))


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
