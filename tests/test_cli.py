import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from klvq import LabeledDataset, save_dataset
from klvq.cli import cli


@pytest.fixture
def dataset_csv(tmp_path):
    rng = np.random.default_rng(0)
    ds = LabeledDataset(
        rng.normal(size=(30, 2)), rng.integers(0, 2, size=30), ("left", "right")
    )
    path = tmp_path / "data.csv"
    save_dataset(path, ds)
    return path


def run(capsys, *argv):
    code = cli([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFitCommand:
    def test_single_subset_fit_succeeds(self, dataset_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code, out, _ = run(
            capsys, "fit", "--input", dataset_csv, "--subsets", 1, "--output", model_path
        )
        assert code == 0
        lines = out.splitlines()
        iterations = int(lines[0].split(": ")[1])
        assert lines[1] == "converged: true"
        assert lines[3] == "iteration,objective"
        assert len(lines) - 4 == iterations
        assert model_path.exists()

    def test_trace_lines_match_iterations(self, dataset_csv, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "fit",
            "--input", dataset_csv,
            "--subsets", 3,
            "--knn", 5,
            "--seed", 9,
            "--output", tmp_path / "m.json",
        )
        assert code == 0
        lines = out.splitlines()
        iterations = int(lines[0].split(": ")[1])
        assert len(lines) - 4 == iterations

    def test_bad_subsets_exits_one(self, dataset_csv, tmp_path, capsys):
        code, _, err = run(
            capsys, "fit", "--input", dataset_csv, "--subsets", 999, "--output", tmp_path / "m.json"
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_exits_one_before_fitting(self, dataset_csv, tmp_path, capsys, epsilon):
        model_path = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "fit", "--input", dataset_csv, "--subsets", 2, "--epsilon", epsilon,
                "--output", model_path,
            )
        assert (code, out) == (1, "")
        assert f"epsilon must be a finite real number, got {epsilon}" in err
        assert not model_path.exists()

    def test_epsilon_that_overflows_the_smoothing_exits_one_naming_it(self, dataset_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "fit", "--input", dataset_csv, "--subsets", 2, "--epsilon", "1e308",
                "--output", model_path,
            )
        assert (code, out) == (1, "")
        assert "epsilon=1e+308, C=2" in err
        assert "unsmoothed zero" not in err
        assert not model_path.exists()

    def test_byte_identical_reruns(self, dataset_csv, tmp_path, capsys):
        args = (
            "fit", "--input", dataset_csv, "--subsets", 4, "--knn", 6,
            "--seed", 3, "--output", tmp_path / "m.json",
        )
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b


class TestKmeansFitCommand:
    def test_prints_inertia_trace(self, dataset_csv, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "kmeans-fit",
            "--input", dataset_csv,
            "--clusters", 3,
            "--seed", 2,
            "--output", tmp_path / "km.json",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[2] == "iteration,inertia"
        inertias = [float(line.split(",")[1]) for line in lines[3:]]
        assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_label_column_is_optional(self, dataset_csv, tmp_path, capsys):
        unlabeled = tmp_path / "unlabeled.csv"
        lines = dataset_csv.read_text(encoding="utf-8").splitlines()
        unlabeled.write_text("".join(line.rpartition(",")[0] + "\n" for line in lines), encoding="utf-8")
        results = []
        for name, data in (("labeled", dataset_csv), ("unlabeled", unlabeled)):
            model_path = tmp_path / f"{name}.json"
            code, out, err = run(
                capsys, "kmeans-fit", "--input", data, "--clusters", 3, "--seed", 4, "--output", model_path,
            )
            assert (code, err) == (0, "")
            results.append((out, model_path.read_bytes()))
        assert results[0] == results[1]

    def test_negative_seed_exits_one(self, dataset_csv, tmp_path, capsys):
        code, out, err = run(
            capsys, "kmeans-fit", "--input", dataset_csv, "--clusters", 3, "--seed", -1,
            "--output", tmp_path / "km.json",
        )
        assert (code, out) == (1, "")
        assert "seed must be a nonnegative integer" in err


class TestQuantizeCommand:
    def test_prints_one_index_per_row(self, dataset_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        run(capsys, "fit", "--input", dataset_csv, "--subsets", 2, "--knn", 4,
            "--output", model_path)
        code, out, _ = run(capsys, "quantize", "--model", model_path, "--input", dataset_csv)
        assert code == 0
        values = out.splitlines()
        assert len(values) == 30
        assert all(v in {"0", "1"} for v in values)

    def test_dimension_mismatch_exits_one(self, dataset_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        run(capsys, "fit", "--input", dataset_csv, "--subsets", 2, "--output", model_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("f1,f2,f3\n1.0,2.0,3.0\n")
        code, _, err = run(capsys, "quantize", "--model", model_path, "--input", bad)
        assert code == 1
        assert "dimension" in err

    def test_non_finite_subset_dists_exit_one_without_codes(self, dataset_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        run(capsys, "fit", "--input", dataset_csv, "--subsets", 2, "--output", model_path)
        payload = json.loads(model_path.read_text())
        payload["subset_dists"] = [[math.nan] * len(row) for row in payload["subset_dists"]]
        model_path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "quantize", "--model", model_path, "--input", dataset_csv)
        assert code == 1
        assert out == ""
        assert "NaN" in err

    def test_kmeans_model_quantizes_too(self, dataset_csv, tmp_path, capsys):
        model_path = tmp_path / "km.json"
        run(capsys, "kmeans-fit", "--input", dataset_csv, "--clusters", 2,
            "--output", model_path)
        code, out, _ = run(capsys, "quantize", "--model", model_path, "--input", dataset_csv)
        assert code == 0
        assert len(out.splitlines()) == 30


class TestSynthAndEvalCommands:
    def synth(self, capsys, out_dir, seed=5):
        return run(
            capsys, "synth", "--seed", seed, "--classes", 3, "--items-per-class", 3,
            "--descriptors", 8, "--dim", 2, "--noise", 1.0, "--out-dir", out_dir,
        )

    def test_synth_writes_manifests_and_descriptors(self, tmp_path, capsys):
        code, out, _ = self.synth(capsys, tmp_path / "bench")
        assert code == 0
        assert (tmp_path / "bench/train/manifest.csv").exists()
        assert (tmp_path / "bench/test/manifest.csv").exists()
        assert (tmp_path / "bench/descriptors.csv").exists()
        assert "train items: 9" in out

    @pytest.mark.parametrize(
        ("flag", "value", "message"),
        [
            ("--seed", "-1", "seed must be >= 0, got -1"),
            ("--noise", "inf", "noise must be a finite real number, got inf"),
        ],
        ids=["seed", "noise"],
    )
    def test_synth_names_a_bad_flag(self, tmp_path, capsys, flag, value, message):
        flags = {
            "--seed": 5, "--classes": 3, "--items-per-class": 3, "--descriptors": 8,
            "--dim": 2, "--noise": 1.0, "--out-dir": tmp_path / "bench", flag: value,
        }
        code, out, err = run(capsys, "synth", *[item for pair in flags.items() for item in pair])
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not (tmp_path / "bench").exists()

    def test_synth_then_eval_is_byte_deterministic(self, tmp_path, capsys):
        outputs = []
        for attempt in ("one", "two"):
            base = tmp_path / attempt
            self.synth(capsys, base / "bench")
            model_path = base / "model.json"
            code, fit_out, _ = run(
                capsys, "fit", "--input", base / "bench/descriptors.csv",
                "--subsets", 4, "--knn", 5, "--seed", 7, "--output", model_path,
            )
            assert code == 0
            code, eval_out, _ = run(
                capsys, "eval-bof", "--train-dir", base / "bench/train",
                "--test-dir", base / "bench/test", "--model", model_path,
                "--distance", "l1",
            )
            assert code == 0
            outputs.append(fit_out + eval_out)
            assert "overall_accuracy:" in eval_out
            assert "confusion matrix CSV" in eval_out
        assert outputs[0] == outputs[1]

    def test_eval_with_kmeans_model(self, tmp_path, capsys):
        self.synth(capsys, tmp_path / "bench")
        model_path = tmp_path / "km.json"
        run(capsys, "kmeans-fit", "--input", tmp_path / "bench/descriptors.csv",
            "--clusters", 4, "--output", model_path)
        code, out, _ = run(
            capsys, "eval-bof", "--train-dir", tmp_path / "bench/train",
            "--test-dir", tmp_path / "bench/test", "--model", model_path,
        )
        assert code == 0
        assert "quantizer: kmeans" in out

    def test_real_valued_cluster_count_exits_one(self, tmp_path, capsys):
        self.synth(capsys, tmp_path / "bench")
        model_path = tmp_path / "km.json"
        run(capsys, "kmeans-fit", "--input", tmp_path / "bench/descriptors.csv",
            "--clusters", 3, "--output", model_path)
        payload = json.loads(model_path.read_text())
        payload["K"] = 3.0
        model_path.write_text(json.dumps(payload))
        code, out, err = run(
            capsys, "eval-bof", "--train-dir", tmp_path / "bench/train",
            "--test-dir", tmp_path / "bench/test", "--model", model_path,
        )
        assert code == 1
        assert out == ""
        assert "K must be an integer" in err

    def test_mixed_descriptor_dimensions_exit_one(self, tmp_path, capsys):
        self.synth(capsys, tmp_path / "bench")
        descriptors = tmp_path / "bench/descriptors.csv"
        run(capsys, "fit", "--input", descriptors, "--subsets", 3, "--knn", 5, "--output", tmp_path / "klvq.json")
        run(capsys, "kmeans-fit", "--input", descriptors, "--clusters", 3, "--output", tmp_path / "km.json")
        item = (tmp_path / "bench/test/manifest.csv").read_text().splitlines()[1].split(",")
        (tmp_path / "bench/test" / item[1]).write_text("f1,f2,f3\n1.0,2.0,3.0\n")
        for model_path in (tmp_path / "klvq.json", tmp_path / "km.json"):
            code, out, err = run(
                capsys, "eval-bof", "--train-dir", tmp_path / "bench/train",
                "--test-dir", tmp_path / "bench/test", "--model", model_path,
            )
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and f"item {item[0]!r}" in err

    def test_nul_byte_in_a_manifest_path_exits_one(self, tmp_path, capsys):
        self.synth(capsys, tmp_path / "bench")
        run(capsys, "kmeans-fit", "--input", tmp_path / "bench/descriptors.csv",
            "--clusters", 3, "--output", tmp_path / "km.json")
        manifest = tmp_path / "bench/test/manifest.csv"
        manifest.write_text(manifest.read_text().replace(".csv,", "\x00.csv,", 1))
        code, out, err = run(
            capsys, "eval-bof", "--train-dir", tmp_path / "bench/train",
            "--test-dir", tmp_path / "bench/test", "--model", tmp_path / "km.json",
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {manifest}: line 2: path ") and "holds a NUL byte" in err


GOLDEN_PAPER_FIT = """\
iterations: 5
converged: false
final_objective: 5.5706838061937267
iteration,objective
1,4.887602206167502
2,6.4671763441825423
3,16.578646467269753
4,12.624553274071852
5,5.5706838061937267
"""

GOLDEN_CENTROID_FIT = """\
iterations: 2
converged: true
final_objective: 2.4938664710459428
iteration,objective
1,4.5790331772772426
2,2.4938664710459428
"""

GOLDEN_KMEANS_FIT = """\
iterations: 3
inertia: 10956.100063008869
iteration,inertia
1,11462.427660628913
2,10956.100063008869
3,10956.100063008869
"""


GOLDEN_KLVQ_EVAL = """\
quantizer: klvq
overall_accuracy: 0.5
class    accuracy
class_0  0.5
class_1  1
class_2  0
confusion matrix CSV (rows = true class, columns = predicted):
class,class_0,class_1,class_2
class_0,1,1,0
class_1,0,2,0
class_2,0,2,0
"""

GOLDEN_KMEANS_EVAL = """\
quantizer: kmeans
overall_accuracy: 0
class    accuracy
class_0  0
class_1  0
class_2  0
confusion matrix CSV (rows = true class, columns = predicted):
class,class_0,class_1,class_2
class_0,0,2,0
class_1,2,0,0
class_2,2,0,0
"""

GOLDEN_KLVQ_INFO = """\
format_version: 1
kind: klvq
subsets: 4
classes: 3 (class_0,class_1,class_2)
training_vectors: 30
dimension: 2
knn_k: 4
include_self: true
epsilon: 9.9999999999999995e-07
max_iters: 8
seed: 0
init: random
update_mode: paper
iterations_run: 5
converged: false
final_objective: 5.5706838061937267
"""

GOLDEN_KMEANS_INFO = """\
format_version: 1
kind: kmeans
clusters: 4
dimension: 2
iterations_run: 3
inertia: 10956.100063008869
"""

GOLDEN_REPAIR_FIT = """\
iterations: 3
converged: false
final_objective: 47.218627310325388
iteration,objective
1,52.660055254124543
2,57.926144901474125
3,47.218627310325388
"""

GOLDEN_REPAIR_SHA256 = "d6142335efd5043e4515e5db449122a8ea856bdae0b6f2ff5ca0debb1265e80a"

GOLDEN_WIDE_FIT = """\
iterations: 6
converged: false
final_objective: 469.61170170862903
iteration,objective
1,526.19893156153364
2,599.31415175515747
3,545.63753239026028
4,488.4155145488553
5,452.34745699301288
6,469.61170170862903
"""

GOLDEN_WIDE_SHA256 = {
    "wide.json": "a3c23e3f8012974ee36ee368bf29cd8e07eaf2d4711d97e9449a329f8539d614",
    "quantize stdout": "0aefe5da2d87fe0c626bf5bf508f3fd0c835209ac5c1ed81b422761171905010",
}

GOLDEN_MODEL_SHA256 = {
    "paper.json": "34af458e1daf5f8699540dc068e3470055c01abebf307c87a8125a07bf60601f",
    "centroid.json": "3afb3fa9694616c0f7061d27f29e02379646de7080045550cef9c9ea7d948abe",
    "kmeans.json": "f48b10d29356091c96fb9bfea816874c81ee3691741cb6a91ad020a79b75656c",
}

GOLDEN_SYNTH_SHA256 = {
    "descriptors.csv": "04dc98f60eb7b3dda87baf0488ae73aff06474aa2689626091687ffafd2932c0",
    "train/manifest.csv": "ba271fe6b49ba70dd8c6b07ac5684e6ed37d5add427f5aa96122189a4dd35946",
    "train/train-c1-i001.csv": "89b867eca48fab7b12a22f199e64c71dedfdfd1e3692abae66a157a8ca867151",
}


class TestGoldenOutput:
    """Exact stdout of seeded runs. A change to any printed value or trace
    line shows here; a change that alters them on purpose updates the pins
    and says which lines changed and why."""

    def synth(self, tmp_path, capsys):
        """Write the seeded benchmark; returns the synth stdout."""
        code, synth_out, _ = run(
            capsys, "synth", "--seed", 2, "--classes", 3, "--items-per-class", 2,
            "--descriptors", 5, "--dim", 2, "--noise", 1.0, "--out-dir", tmp_path / "bench",
        )
        assert code == 0
        return synth_out

    def synth_and_fit(self, tmp_path, capsys):
        """Write the seeded benchmark and fit the three pinned models; returns
        the synth stdout, then each fit's (exit code, stdout)."""
        synth_out = self.synth(tmp_path, capsys)
        data = tmp_path / "bench" / "descriptors.csv"
        # Paper mode, random init: iterations 2-5 each repair one empty
        # subset, and the repair of iteration 5 hands back the assignment
        # iteration 5 started from, so the fit stops there, not converged.
        paper = run(
            capsys, "fit", "--input", data, "--subsets", 4, "--knn", 4, "--seed", 0,
            "--max-iters", 8, "--output", tmp_path / "paper.json",
        )[:2]
        centroid = run(
            capsys, "fit", "--input", data, "--subsets", 4, "--knn", 4, "--mode", "centroid",
            "--init", "kmeans", "--seed", 1, "--output", tmp_path / "centroid.json",
        )[:2]
        kmeans = run(
            capsys, "kmeans-fit", "--input", data, "--clusters", 4, "--seed", 2,
            "--output", tmp_path / "kmeans.json",
        )[:2]
        return synth_out, paper, centroid, kmeans

    def test_synth_and_fits_print_pinned_text(self, tmp_path, capsys):
        synth_out, paper, centroid, kmeans = self.synth_and_fit(tmp_path, capsys)
        bench = tmp_path / "bench"
        assert synth_out == (
            "train items: 6\ntest items: 6\npooled training descriptors: 30\n"
            f"wrote {bench / 'train'}, {bench / 'test'}, {bench / 'descriptors.csv'}\n"
        )
        assert paper == (0, GOLDEN_PAPER_FIT)
        assert centroid == (0, GOLDEN_CENTROID_FIT)
        assert kmeans == (0, GOLDEN_KMEANS_FIT)
        for name, digest in GOLDEN_SYNTH_SHA256.items():
            assert hashlib.sha256((bench / name).read_bytes()).hexdigest() == digest, name

    def test_eval_info_and_model_files_are_pinned(self, tmp_path, capsys):
        self.synth_and_fit(tmp_path, capsys)
        bench = tmp_path / "bench"
        for name, want in (("paper.json", GOLDEN_KLVQ_EVAL), ("kmeans.json", GOLDEN_KMEANS_EVAL)):
            for distance in ("l1", "l2"):
                got = run(
                    capsys, "eval-bof", "--train-dir", bench / "train", "--test-dir",
                    bench / "test", "--model", tmp_path / name, "--distance", distance,
                )
                assert got == (0, want, ""), (name, distance)
        assert run(capsys, "info", "--model", tmp_path / "paper.json") == (0, GOLDEN_KLVQ_INFO, "")
        assert run(capsys, "info", "--model", tmp_path / "kmeans.json") == (0, GOLDEN_KMEANS_INFO, "")
        for name, digest in GOLDEN_MODEL_SHA256.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_repair_heavy_paper_fit_is_pinned(self, tmp_path, capsys):
        # 12 subsets on 30 rows of at most 15 distinct kNN distributions:
        # init_partition repairs 2 empty subsets, iteration 1 repairs 7 and
        # every later iteration 9.
        self.synth(tmp_path, capsys)
        model = tmp_path / "repair.json"
        got = run(
            capsys, "fit", "--input", tmp_path / "bench" / "descriptors.csv", "--subsets", 12,
            "--knn", 4, "--seed", 0, "--max-iters", 8, "--output", model,
        )
        assert got == (0, GOLDEN_REPAIR_FIT, "")
        assert hashlib.sha256(model.read_bytes()).hexdigest() == GOLDEN_REPAIR_SHA256

    def test_many_class_paper_fit_and_quantize_are_pinned(self, tmp_path, capsys):
        # 16 classes, 32 subsets and k = 8: each class column of the kNN
        # distributions takes up to 9 values, so kl_matrix sees many rows
        # that share (value, class) pairs. The quantize run reads all 192
        # training rows and prints 9 distinct codes.
        code, _, _ = run(
            capsys, "synth", "--seed", 5, "--classes", 16, "--items-per-class", 3,
            "--descriptors", 4, "--dim", 8, "--noise", 0.5, "--out-dir", tmp_path / "bench",
        )
        assert code == 0
        data, model = tmp_path / "bench" / "descriptors.csv", tmp_path / "wide.json"
        got = run(
            capsys, "fit", "--input", data, "--subsets", 32, "--knn", 8, "--seed", 0,
            "--max-iters", 6, "--output", model,
        )
        assert got == (0, GOLDEN_WIDE_FIT, "")
        code, out, err = run(capsys, "quantize", "--model", model, "--input", data)
        assert (code, err, len(out.splitlines())) == (0, "", 192)
        digests = {
            "wide.json": hashlib.sha256(model.read_bytes()).hexdigest(),
            "quantize stdout": hashlib.sha256(out.encode()).hexdigest(),
        }
        assert digests == GOLDEN_WIDE_SHA256


class TestInfoCommand:
    def test_klvq_metadata(self, dataset_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        run(capsys, "fit", "--input", dataset_csv, "--subsets", 2, "--seed", 4,
            "--output", model_path)
        code, out, _ = run(capsys, "info", "--model", model_path)
        assert code == 0
        assert "kind: klvq" in out
        assert "subsets: 2" in out
        assert "seed: 4" in out

    def test_kmeans_metadata(self, dataset_csv, tmp_path, capsys):
        model_path = tmp_path / "km.json"
        run(capsys, "kmeans-fit", "--input", dataset_csv, "--clusters", 3,
            "--output", model_path)
        code, out, _ = run(capsys, "info", "--model", model_path)
        assert code == 0
        assert "kind: kmeans" in out
        assert "clusters: 3" in out


class TestExitCodes:
    def test_unknown_flag_exits_two(self, capsys):
        assert cli(["fit", "--bogus"]) == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        assert cli(["frobnicate"]) == 2

    def test_no_arguments_exits_two(self, capsys):
        assert cli([]) == 2

    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "fit", "--input", tmp_path / "none.csv", "--subsets", 1,
            "--output", tmp_path / "m.json",
        )
        assert code == 1
        assert "not found" in err

    @pytest.mark.parametrize("command", [["fit", "--subsets", 2], ["kmeans-fit", "--clusters", 2]])
    def test_failed_model_write_prints_nothing(self, dataset_csv, tmp_path, capsys, command):
        code, out, err = run(
            capsys, command[0], "--input", dataset_csv, *command[1:],
            "--output", tmp_path / "missing" / "m.json",
        )
        assert (code, out) == (1, "")
        assert err.startswith("io error: ")

    def test_help_exits_zero(self, capsys):
        assert cli(["--help"]) == 0

    def test_exit_codes_from_a_real_process(self, dataset_csv, tmp_path):
        base = [sys.executable, "-m", "klvq"]
        # The child imports klvq from this process's import path, so the test
        # runs the same with or without PYTHONPATH set.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        usage = subprocess.run(base + ["fit", "--bogus"], capture_output=True, env=env)
        assert usage.returncode == 2
        ok = subprocess.run(
            base + ["fit", "--input", str(dataset_csv), "--subsets", "1",
                    "--output", str(tmp_path / "m.json")],
            capture_output=True,
            env=env,
        )
        assert ok.returncode == 0
        bad = subprocess.run(
            base + ["fit", "--input", str(tmp_path / "none.csv"), "--subsets", "1",
                    "--output", str(tmp_path / "m.json")],
            capture_output=True,
            env=env,
        )
        assert bad.returncode == 1
        assert b"not found" in bad.stderr
