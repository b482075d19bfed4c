"""Workloads of the klvq benchmark: seeded inputs, the CLI rounds, the metrics.

Every workload writes its own seeded inputs in the documented formats (a
labeled dataset CSV, a feature CSV without a label column and two bag
directories), then runs rounds of the same ``klvq`` commands in-process
through ``klvq.cli.cli(argv)`` with standard output captured in memory. A
round runs, in order: ``synth``, ``fit``, ``kmeans-fit``, ``quantize`` and
one ``eval-bof`` per listed model. The workloads differ in the shapes that
decide which layer carries the load.

Every command is bracketed by a run of the reference block, a fixed piece of
numpy, Python-loop and CSV work of the benchmark's own that does not depend
on the seed or on klvq. A command's time is reported as its wall time over
the mean time of the two reference blocks around it, times ``REF_SECONDS``:
the wall time it would take on a machine where the reference block takes
``REF_SECONDS``. On a shared machine whose speed drifts by a third or more
over minutes, this ratio varies far less from run to run than the wall time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Class modes sit on signed coordinate axes, pairwise distance MODE_SEPARATION
# (or more); a share BACKGROUND_RATE of the descriptors comes from one broad
# label-free mode at the origin with spread BACKGROUND_FACTOR * noise.
MODE_SEPARATION = 6.0
BACKGROUND_RATE = 0.5
BACKGROUND_FACTOR = 4.0
EPSILON = "1e-6"
# Wall time of one reference block that the reported command times are scaled to.
REF_SECONDS = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    items_per_class: int  # per split
    descriptors: int  # per item
    dim: int
    noise: float
    subsets: int  # M of klvq fit
    knn: int
    mode: str
    init: str
    fit_max_iters: int
    fit_rows: int  # rows of the pooled training descriptors given to fit; 0 = all
    clusters: int  # K of kmeans-fit
    kmeans_max_iters: int
    quantize_model: str  # "klvq" or "kmeans"
    quantize_rows: int  # rows of the quantize input; the pooled test descriptors come first
    eval_models: tuple[str, ...]
    synth: tuple[int, int, int, int]  # classes, items per class, descriptors, dim
    repeats: tuple[tuple[str, int], ...] = ()  # commands run more than once per round


# Iteration counts are fixed per workload, so that the work of a command does
# not depend on the seed: paper-mode fits at M=16 (desk) and M=64 (wide) hit
# the empty-subset repair cycle and run all max_iters iterations on every seed
# tried (at M=8 about half of the desk seeds converge within 10 iterations);
# Lloyd and centroid-mode fits are capped below the iteration count at which
# they converge.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            classes=3, items_per_class=20, descriptors=50, dim=2, noise=1.0,
            subsets=16, knn=10, mode="paper", init="random", fit_max_iters=100, fit_rows=0,
            clusters=16, kmeans_max_iters=20, quantize_model="klvq", quantize_rows=3000,
            eval_models=("klvq", "kmeans"), synth=(3, 40, 200, 2),
            repeats=(("kmeans-fit", 3),),
        ),
        Workload(
            name="wide",
            classes=16, items_per_class=10, descriptors=20, dim=8, noise=1.0,
            subsets=64, knn=10, mode="paper", init="random", fit_max_iters=100, fit_rows=800,
            clusters=16, kmeans_max_iters=10, quantize_model="kmeans", quantize_rows=20000,
            eval_models=("kmeans",), synth=(16, 12, 60, 8),
            repeats=(("kmeans-fit", 3), ("eval-bof", 2)),
        ),
        Workload(
            name="io",
            classes=8, items_per_class=50, descriptors=10, dim=16, noise=1.0,
            subsets=16, knn=10, mode="centroid", init="kmeans", fit_max_iters=10, fit_rows=1200,
            clusters=16, kmeans_max_iters=15, quantize_model="kmeans", quantize_rows=16000,
            eval_models=("kmeans",), synth=(8, 50, 10, 16),
        ),
    )
}

END_TO_END_UNITS = {
    "fit_s": "s",
    "kmeans_fit_s": "s",
    "quantize_vps": "rows/s",
    "eval_bof_s": "s",
    "synth_s": "s",
}


@dataclass
class Bag:
    item_id: str
    descriptors: np.ndarray
    label: int


@dataclass
class Inputs:
    """The files a workload hands to the program, and what they hold."""

    workdir: Path
    class_names: tuple[str, ...]
    train_bags: list[Bag]
    test_bags: list[Bag]
    train_features: np.ndarray  # pooled training descriptors, train bag order
    train_labels: np.ndarray
    fit_features: np.ndarray
    fit_labels: np.ndarray
    queries: np.ndarray

    @property
    def train_dir(self) -> Path:
        return self.workdir / "train"

    @property
    def test_dir(self) -> Path:
        return self.workdir / "test"

    @property
    def descriptors_csv(self) -> Path:
        return self.workdir / "descriptors.csv"

    @property
    def fit_csv(self) -> Path:
        return self.workdir / "fit.csv"

    @property
    def queries_csv(self) -> Path:
        return self.workdir / "queries.csv"

    @property
    def synth_dir(self) -> Path:
        return self.workdir / "synth"

    def model_path(self, kind: str) -> Path:
        return self.workdir / f"{kind}.json"


def class_modes(classes: int, dim: int) -> np.ndarray:
    """Mode c on axis c mod dim, sign flipped on every second pass over the
    axes, pushed outward on every second pair of passes."""
    modes = np.zeros((classes, dim))
    for c in range(classes):
        sweep = c // dim
        sign = -1.0 if sweep % 2 else 1.0
        modes[c, c % dim] = sign * (MODE_SEPARATION / np.sqrt(2.0)) * (1 + sweep // 2)
    return modes


def draw(rng: np.random.Generator, modes: np.ndarray, classes_of_rows: np.ndarray, noise: float) -> np.ndarray:
    """One descriptor per entry of classes_of_rows: class mode or background."""
    n, dim = classes_of_rows.shape[0], modes.shape[1]
    background = rng.random(n) < BACKGROUND_RATE
    centers = np.where(background[:, None], 0.0, modes[classes_of_rows])
    spread = np.where(background, noise * BACKGROUND_FACTOR, noise)[:, None]
    return centers + spread * rng.standard_normal((n, dim))


def make_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the workload's seeded inputs (nothing is written yet)."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    w = workload
    modes = class_modes(w.classes, w.dim)
    splits = {}
    for split in ("train", "test"):
        labels = np.repeat(np.arange(w.classes), w.items_per_class)
        rows = draw(rng, modes, np.repeat(labels, w.descriptors), w.noise)
        rows = rows.reshape(labels.shape[0], w.descriptors, w.dim)
        splits[split] = [
            Bag(f"{split}-{i:05d}", rows[i], int(labels[i])) for i in range(labels.shape[0])
        ]
    train_features = np.concatenate([bag.descriptors for bag in splits["train"]])
    train_labels = np.repeat([bag.label for bag in splits["train"]], w.descriptors)
    if w.fit_rows:
        picked = np.sort(rng.choice(train_features.shape[0], size=w.fit_rows, replace=False))
        fit_features, fit_labels = train_features[picked], train_labels[picked]
    else:
        fit_features, fit_labels = train_features, train_labels
    test_pooled = np.concatenate([bag.descriptors for bag in splits["test"]])
    extra = w.quantize_rows - test_pooled.shape[0]
    queries = test_pooled[: w.quantize_rows]
    if extra > 0:
        queries = np.concatenate([queries, draw(rng, modes, rng.integers(0, w.classes, extra), w.noise)])
    return Inputs(
        workdir=workdir,
        class_names=tuple(f"class_{c}" for c in range(w.classes)),
        train_bags=splits["train"],
        test_bags=splits["test"],
        train_features=train_features,
        train_labels=train_labels,
        fit_features=fit_features,
        fit_labels=fit_labels,
        queries=queries,
    )


def _csv_text(features: np.ndarray, labels=None) -> str:
    header = [f"f{j}" for j in range(1, features.shape[1] + 1)]
    lines = [",".join(header + (["label"] if labels is not None else []))]
    for i, row in enumerate(features.tolist()):
        line = ",".join(map(repr, row))
        lines.append(line if labels is None else f"{line},{labels[i]}")
    return "\n".join(lines) + "\n"


def _write_bags(bags: list[Bag], directory: Path, class_names) -> None:
    directory.mkdir(parents=True)
    manifest = ["item_id,path,label"]
    for bag in bags:
        manifest.append(f"{bag.item_id},{bag.item_id}.csv,{class_names[bag.label]}")
        (directory / f"{bag.item_id}.csv").write_text(_csv_text(bag.descriptors))
    (directory / "manifest.csv").write_text("\n".join(manifest) + "\n")


def write_inputs(inputs: Inputs) -> None:
    names = np.asarray(inputs.class_names)
    _write_bags(inputs.train_bags, inputs.train_dir, inputs.class_names)
    _write_bags(inputs.test_bags, inputs.test_dir, inputs.class_names)
    inputs.descriptors_csv.write_text(_csv_text(inputs.train_features, names[inputs.train_labels]))
    inputs.fit_csv.write_text(_csv_text(inputs.fit_features, names[inputs.fit_labels]))
    inputs.queries_csv.write_text(_csv_text(inputs.queries))


class Reference:
    """The reference block: the kinds of work klvq's layers do, on fixed data.

    A KL-matrix-like broadcast over an (N, M, C) array, a Python loop of small
    nearest-row searches, a matrix product, and a CSV written, read back and
    parsed."""

    def __init__(self, workdir: Path) -> None:
        rng = np.random.default_rng(20150127)
        self.p = rng.random((400, 64, 16)) + 0.01
        self.q = rng.random((64, 16)) + 0.01
        self.square = rng.standard_normal((200, 200))
        self.rows = rng.standard_normal((2000, 8))
        self.path = workdir / "reference.csv"

    def run(self) -> float:
        """Run the block once; return its wall time."""
        start = time.perf_counter()
        for _ in range(2):
            (self.p * np.log(self.p / self.q[None])).sum(axis=2).argmin(axis=1)
        self.square @ self.square
        for row in self.rows[:300]:
            np.argmin(((self.rows[:200] - row) ** 2).sum(axis=1))
        self.path.write_text(_csv_text(self.rows))
        lines = self.path.read_text().splitlines()[1:]
        np.array([[float(v) for v in line.split(",")] for line in lines])
        return time.perf_counter() - start


@dataclass
class Op:
    """One CLI invocation of a round."""

    argv: list[str]
    model: str | None  # model kind a quantize or eval-bof command reads
    code: int
    out: str
    err: str
    seconds: float
    ref_seconds: float = 0.0  # mean time of the reference blocks before and after

    @property
    def scaled(self) -> float:
        """Wall time scaled to a reference block of REF_SECONDS."""
        return self.seconds / self.ref_seconds * REF_SECONDS

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Round:
    ops: list[Op]
    model_digests: dict[str, str]

    def op(self, command: str) -> list[Op]:
        return [op for op in self.ops if op.command == command]


def round_argvs(workload: Workload, inputs: Inputs, seed: int):
    """(argv, model kind read or None) of every command of a round, in order."""
    w = workload
    classes, items, descriptors, dim = w.synth
    fit_input = inputs.fit_csv if w.fit_rows else inputs.descriptors_csv
    argvs = [
        (["synth", "--seed", str(seed), "--classes", str(classes), "--items-per-class", str(items),
          "--descriptors", str(descriptors), "--dim", str(dim), "--noise", repr(w.noise),
          "--out-dir", str(inputs.synth_dir)], None),
        (["fit", "--input", str(fit_input), "--subsets", str(w.subsets), "--knn", str(w.knn),
          "--epsilon", EPSILON, "--seed", str(seed), "--max-iters", str(w.fit_max_iters),
          "--init", w.init, "--mode", w.mode, "--output", str(inputs.model_path("klvq"))], None),
        (["kmeans-fit", "--input", str(inputs.descriptors_csv), "--clusters", str(w.clusters),
          "--seed", str(seed), "--max-iters", str(w.kmeans_max_iters),
          "--output", str(inputs.model_path("kmeans"))], None),
        (["quantize", "--model", str(inputs.model_path(w.quantize_model)),
          "--input", str(inputs.queries_csv)], w.quantize_model),
    ]
    for model in w.eval_models:
        argvs.append((["eval-bof", "--train-dir", str(inputs.train_dir), "--test-dir",
                       str(inputs.test_dir), "--model", str(inputs.model_path(model)),
                       "--distance", "l1"], model))
    repeats = dict(w.repeats)
    return [entry for entry in argvs for _ in range(repeats.get(entry[0][0], 1))]


def run_cli(cli, argv: list[str], model: str | None = None, tracer=None) -> Op:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        if tracer is None:
            code = cli(argv)
        else:
            code = tracer.call(f"cli.{argv[0]}", cli, argv)
        seconds = time.perf_counter() - start
    return Op(argv, model, code, out.getvalue(), err.getvalue(), seconds)


def run_round(cli, workload: Workload, inputs: Inputs, seed: int, after_synth, reference: Reference,
              tracer=None) -> Round:
    """One round of commands, each followed by the reference block, which
    also opens the round. after_synth(op) runs after each synth command,
    outside the timed part, and must remove the synth output directory."""
    ops = []
    ref_before = reference.run()
    for argv, model in round_argvs(workload, inputs, seed):
        op = run_cli(cli, argv, model, tracer)
        if op.command == "synth":
            after_synth(op)
        ref_after = reference.run()
        op.ref_seconds = (ref_before + ref_after) / 2
        ref_before = ref_after
        ops.append(op)
    digests = {}
    for kind in ("klvq", "kmeans"):
        path = inputs.model_path(kind)
        digests[kind] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""
    return Round(ops, digests)


def end_to_end(rounds: list[Round], workload: Workload) -> dict[str, float]:
    """Median scaled time of each command over the run; eval_bof_s adds the
    medians of the workload's eval-bof commands, one per model."""
    def median(command: str, model: str | None = None) -> float:
        return float(np.median([op.scaled for r in rounds for op in r.op(command)
                                if model is None or op.model == model]))

    return {
        "fit_s": median("fit"),
        "kmeans_fit_s": median("kmeans-fit"),
        "quantize_vps": workload.quantize_rows / median("quantize"),
        "eval_bof_s": sum(median("eval-bof", model) for model in workload.eval_models),
        "synth_s": median("synth"),
    }
