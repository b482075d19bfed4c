"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest -q perfbench/test_checks.py

Each check must pass on real outputs and fail when one code, one confusion
cell or one objective value is changed.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import bench  # noqa: E402
import checks  # noqa: E402
import klvq.cli  # noqa: E402
import klvq.quantizer  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402

TINY = dataclasses.replace(
    bench.WORKLOADS["desk"], name="tiny", items_per_class=4, descriptors=6,
    subsets=4, knn=5, clusters=4, quantize_rows=100, synth=(3, 4, 6, 2),
    repeats=(("quantize", 2),),
)


def run_tiny(tmp_path: Path, seed: int = 5, tracer=None):
    inputs = bench.make_inputs(TINY, seed, tmp_path / "work")
    bench.write_inputs(inputs)
    synth_failures = []

    def after_synth(op):
        synth_failures.extend(checks.check_synth(TINY, op, inputs.synth_dir))

    reference = bench.Reference(inputs.workdir)
    rounds = [bench.run_round(klvq.cli.cli, TINY, inputs, seed, after_synth, reference, tracer)
              for _ in range(2)]
    return inputs, rounds, synth_failures


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    return run_tiny(tmp_path_factory.mktemp("tiny"))


def first(rounds, command, model=None):
    return next(op for op in rounds[0].ops if op.command == command and (model is None or op.model == model))


def load(inputs, kind):
    return json.loads(inputs.model_path(kind).read_text())


def test_real_outputs_pass(tiny):
    inputs, rounds, synth_failures = tiny
    assert all(op.code == 0 for r in rounds for op in r.ops)
    assert synth_failures == []
    assert checks.check_run(TINY, inputs, rounds) == []


def test_one_changed_klvq_code_fails(tiny):
    inputs, rounds, _ = tiny
    op = first(rounds, "quantize")
    codes = op.out.splitlines()
    assert checks.check_quantize(op.out, load(inputs, "klvq"), inputs.queries, {}) == []
    codes[7] = str((int(codes[7]) + 1) % TINY.subsets)
    assert checks.check_quantize("\n".join(codes) + "\n", load(inputs, "klvq"), inputs.queries, {})


def test_one_changed_kmeans_code_fails(tiny):
    inputs, _, _ = tiny
    model = load(inputs, "kmeans")
    expected, _, _ = checks.nearest_codes(inputs.queries, np.asarray(model["centroids"]))
    out = "".join(f"{code}\n" for code in expected)
    assert checks.check_quantize(out, model, inputs.queries, {}) == []
    expected[3] = (expected[3] + 1) % TINY.clusters
    out = "".join(f"{code}\n" for code in expected)
    assert checks.check_quantize(out, model, inputs.queries, {})


@pytest.mark.parametrize("kind", ["klvq", "kmeans"])
def test_one_changed_confusion_cell_fails(tiny, kind):
    inputs, rounds, _ = tiny
    op = first(rounds, "eval-bof", kind)
    args = (load(inputs, kind), inputs.train_bags, inputs.test_bags, inputs.class_names, {})
    assert checks.check_eval_bof(op.out, *args) == []
    lines = op.out.splitlines()
    row = lines.index("confusion matrix CSV (rows = true class, columns = predicted):") + 2
    cells = lines[row].split(",")
    moved = list(cells)
    # Move one item of the first class to another predicted class: row and
    # matrix sums stay the same.
    source = 1 if int(cells[1]) > 0 else 2
    moved[source] = str(int(cells[source]) - 1)
    moved[3 - source] = str(int(cells[3 - source]) + 1)
    assert checks.check_eval_bof("\n".join(lines[:row] + [",".join(moved)] + lines[row + 1:]), *args)
    bumped = list(cells)
    bumped[1] = str(int(cells[1]) + 1)
    assert checks.check_eval_bof("\n".join(lines[:row] + [",".join(bumped)] + lines[row + 1:]), *args)


def test_one_changed_objective_fails(tiny):
    inputs, rounds, _ = tiny
    op = first(rounds, "fit")
    model = load(inputs, "klvq")
    args = (inputs.fit_features, inputs.fit_labels, inputs.class_names, TINY.subsets, TINY.knn)
    assert checks.check_fit(op.out, model, *args, {}) == []
    lines = op.out.splitlines()
    lines[2] = f"final_objective: {model['final_objective'] * 0.5!r}"
    assert checks.check_fit("\n".join(lines), model, *args, {})
    # The same lowered objective everywhere falls below sum_i min_m KL(p_i||q_m).
    low = 0.5 * model["final_objective"]
    last = lines[-1].split(",")[0]
    lines[-1] = f"{last},{low!r}"
    assert checks.check_fit("\n".join(lines), {**model, "final_objective": low}, *args, {})


def test_one_changed_subset_distribution_fails(tiny):
    inputs, rounds, _ = tiny
    model = load(inputs, "klvq")
    model["subset_dists"][0][0] = float("nan")
    args = (inputs.fit_features, inputs.fit_labels, inputs.class_names, TINY.subsets, TINY.knn)
    assert checks.check_fit(first(rounds, "fit").out, model, *args, {})


def test_rising_inertia_fails(tiny):
    inputs, rounds, _ = tiny
    op = first(rounds, "kmeans-fit")
    model = load(inputs, "kmeans")
    assert checks.check_kmeans_fit(op.out, model, inputs.train_features, TINY.clusters) == []
    trace = list(model["inertia_trace"])
    if len(trace) < 2:
        pytest.skip("k-means converged in one iteration")
    trace[0] = trace[1] * 0.5
    lines = op.out.splitlines()
    lines[lines.index("iteration,inertia") + 1] = f"1,{trace[0]!r}"
    assert checks.check_kmeans_fit("\n".join(lines), {**model, "inertia_trace": trace},
                                   inputs.train_features, TINY.clusters)


def test_wrong_program_output_makes_run_incorrect(tmp_path, monkeypatch):
    real = klvq.quantizer.quantize
    calls = []

    def off_by_one(model, query):
        calls.append(1)
        code = real(model, query)
        return (code + 1) % model.config.M if len(calls) == 7 else code

    monkeypatch.setattr(klvq.cli, "quantize", off_by_one)
    inputs, rounds, _ = run_tiny(tmp_path)
    failures = checks.check_run(TINY, inputs, rounds)
    assert any("quantize (klvq): 1 of 100 codes differ" in failure for failure in failures)


def test_synth_check_sees_a_changed_descriptor(tmp_path):
    inputs = bench.make_inputs(TINY, 5, tmp_path / "work")
    inputs.workdir.mkdir(parents=True)
    argv, _ = bench.round_argvs(TINY, inputs, 5)[0]
    op = bench.run_cli(klvq.cli.cli, argv)
    assert checks.check_synth(TINY, op, inputs.synth_dir) == []
    pooled = inputs.synth_dir / "descriptors.csv"
    lines = pooled.read_text().splitlines()
    cells = lines[1].split(",")
    cells[0] = repr(float(cells[0]) + 1.0)
    pooled.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
    assert checks.check_synth(TINY, op, inputs.synth_dir)


def test_tracer_reports_every_layer_metric(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        _, rounds, _ = run_tiny(tmp_path, tracer=tracer)
    finally:
        tracer.uninstall()
    values = tracer.round_metrics()
    assert set(values) == set(LAYER_METRICS)
    assert tracer.missing_metrics() == []
    assert values["quantizer.quantize.calls"] > 0 and values["kmeans.kmeans_assign.calls"] > 0
    assert values["label_model.knn_queries"] > 0 and values["fileio.bytes_read"] > 0
    assert values["quantizer.fit.iterations"] == sum(
        int(op.out.splitlines()[0].split(": ")[1]) for r in rounds for op in r.ops if op.command == "fit")
    spans = [span for span in tracer.spans if span is not None]
    assert all(parent < index for index, (_, _, _, parent) in enumerate(spans))
    # The originals are back in place.
    assert klvq.quantizer.quantize.__module__ == "klvq.quantizer" and not hasattr(klvq.quantizer.quantize, "__wrapped__")


def test_tracer_reports_a_removed_function_as_missing(tmp_path, monkeypatch):
    repair = klvq.quantizer._repair_empty_subsets
    monkeypatch.delattr(klvq.quantizer, "_repair_empty_subsets")
    tracer = Tracer()
    tracer.install()
    monkeypatch.setattr(klvq.quantizer, "_repair_empty_subsets", repair, raising=False)
    try:
        run_tiny(tmp_path, tracer=tracer)
    finally:
        tracer.uninstall()
    assert set(tracer.missing_metrics()) == {"quantizer.repair.self_s", "quantizer.repair.points_moved"}
    assert tracer.round_metrics()["quantizer.repair.self_s"] == 0.0
