import json
import math
import subprocess
import sys

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


GOLDEN_PAPER_FIT = """\
iterations: 8
converged: false
final_objective: 5.5706838061937267
iteration,objective
1,4.887602206167502
2,6.4671763441825423
3,16.578646467269753
4,12.624553274071852
5,5.5706838061937267
6,5.5706838061937267
7,5.5706838061937267
8,5.5706838061937267
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


class TestGoldenOutput:
    """Exact stdout of seeded runs. A change to any printed value or trace
    line shows here; a change that alters them on purpose updates the pins
    and says which lines changed and why."""

    def test_synth_and_fits_print_pinned_text(self, tmp_path, capsys):
        bench = tmp_path / "bench"
        code, out, _ = run(
            capsys, "synth", "--seed", 2, "--classes", 3, "--items-per-class", 2,
            "--descriptors", 5, "--dim", 2, "--noise", 1.0, "--out-dir", bench,
        )
        assert code == 0
        assert out == (
            "train items: 6\ntest items: 6\npooled training descriptors: 30\n"
            f"wrote {bench / 'train'}, {bench / 'test'}, {bench / 'descriptors.csv'}\n"
        )
        data = bench / "descriptors.csv"
        # Paper mode, random init: iterations 2-8 each repair one empty
        # subset, and the fit cycles until --max-iters.
        code, out, _ = run(
            capsys, "fit", "--input", data, "--subsets", 4, "--knn", 4, "--seed", 0,
            "--max-iters", 8, "--output", tmp_path / "paper.json",
        )
        assert (code, out) == (0, GOLDEN_PAPER_FIT)
        code, out, _ = run(
            capsys, "fit", "--input", data, "--subsets", 4, "--knn", 4, "--mode", "centroid",
            "--init", "kmeans", "--seed", 1, "--output", tmp_path / "centroid.json",
        )
        assert (code, out) == (0, GOLDEN_CENTROID_FIT)
        code, out, _ = run(
            capsys, "kmeans-fit", "--input", data, "--clusters", 4, "--seed", 2,
            "--output", tmp_path / "kmeans.json",
        )
        assert (code, out) == (0, GOLDEN_KMEANS_FIT)


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

    def test_help_exits_zero(self, capsys):
        assert cli(["--help"]) == 0

    def test_exit_codes_from_a_real_process(self, dataset_csv, tmp_path):
        base = [sys.executable, "-m", "klvq"]
        usage = subprocess.run(base + ["fit", "--bogus"], capture_output=True)
        assert usage.returncode == 2
        ok = subprocess.run(
            base + ["fit", "--input", str(dataset_csv), "--subsets", "1",
                    "--output", str(tmp_path / "m.json")],
            capture_output=True,
        )
        assert ok.returncode == 0
        bad = subprocess.run(
            base + ["fit", "--input", str(tmp_path / "none.csv"), "--subsets", "1",
                    "--output", str(tmp_path / "m.json")],
            capture_output=True,
        )
        assert bad.returncode == 1
        assert b"not found" in bad.stderr
