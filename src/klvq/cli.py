"""Command-line interface.

Subcommands: fit, kmeans-fit, quantize, synth, eval-bof, info. All output is
deterministic for fixed inputs and flags; reals on standard output are
printed with 17 significant digits, and reports are emitted both as a human
table and as machine-readable CSV suitable for external plotting.

Exit codes: 0 success, 1 domain/parameter/file-format errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import bof, fileio
from .divergence import SmoothingConfig
from .errors import KlvqError
from .kmeans import kmeans_fit
from .label_model import KnnConfig
from .quantizer import INIT_MODES, UPDATE_MODES, QuantizerConfig, QuantizerModel, fit


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _cmd_fit(args: argparse.Namespace) -> int:
    dataset = fileio.load_dataset(args.input)
    knn = KnnConfig(k=args.knn) if args.knn is not None else KnnConfig().clipped(dataset.n)
    config = QuantizerConfig(
        M=args.subsets,
        knn=knn,
        smoothing=SmoothingConfig(epsilon=args.epsilon),
        max_iters=args.max_iters,
        seed=args.seed,
        init=args.init,
        update_mode=args.mode,
    )
    model, _, trace = fit(dataset, config)
    fileio.save_model(model, args.output)
    print(f"iterations: {model.iterations_run}")
    print(f"converged: {str(model.converged).lower()}")
    print(f"final_objective: {_fmt(model.final_objective)}")
    print("iteration,objective")
    for step, value in enumerate(trace, start=1):
        print(f"{step},{_fmt(value)}")
    return 0


def _cmd_kmeans_fit(args: argparse.Namespace) -> int:
    features = fileio.load_feature_matrix(args.input)
    model, _ = kmeans_fit(features, args.clusters, args.seed, args.max_iters)
    fileio.save_model(model, args.output)
    print(f"iterations: {model.iterations_run}")
    print(f"inertia: {_fmt(model.inertia)}")
    print("iteration,inertia")
    for step, value in enumerate(model.inertia_trace, start=1):
        print(f"{step},{_fmt(value)}")
    return 0


def _cmd_quantize(args: argparse.Namespace) -> int:
    model = fileio.load_model(args.model)
    codes = model.codes(fileio.load_feature_matrix(args.input))
    sys.stdout.write("".join(f"{code}\n" for code in codes.tolist()))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    train_bags, test_bags, dataset = bof.generate_synthetic(
        seed=args.seed,
        num_classes=args.classes,
        items_per_class=args.items_per_class,
        descriptors_per_item=args.descriptors,
        dim=args.dim,
        noise=args.noise,
    )
    out_dir = Path(args.out_dir)
    fileio.save_bags(train_bags, out_dir / "train", dataset.class_names)
    fileio.save_bags(test_bags, out_dir / "test", dataset.class_names)
    fileio.save_dataset(out_dir / "descriptors.csv", dataset)
    print(f"train items: {len(train_bags)}")
    print(f"test items: {len(test_bags)}")
    print(f"pooled training descriptors: {dataset.n}")
    print(f"wrote {out_dir / 'train'}, {out_dir / 'test'}, {out_dir / 'descriptors.csv'}")
    return 0


def _cmd_eval_bof(args: argparse.Namespace) -> int:
    model = fileio.load_model(args.model)
    train_bags, class_names = fileio.load_bags(args.train_dir)
    test_bags, class_names = fileio.load_bags(args.test_dir, class_names)
    report = bof.evaluate(train_bags, test_bags, model.kind, model.codes, model.M, args.distance)
    print(f"quantizer: {report.quantizer_tag}")
    print(f"overall_accuracy: {_fmt(report.overall_accuracy)}")
    width = max(len(name) for name in class_names) + 2
    print(f"{'class'.ljust(width)}accuracy")
    for name, acc in zip(class_names, report.per_class_accuracy):
        print(f"{name.ljust(width)}{_fmt(acc)}")
    print("confusion matrix CSV (rows = true class, columns = predicted):")
    print("class," + ",".join(class_names))
    for name, row in zip(class_names, report.confusion):
        print(name + "," + ",".join(str(int(v)) for v in row))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    model = fileio.load_model(args.model)
    print(f"format_version: {fileio.FORMAT_VERSION}")
    print(f"kind: {model.kind}")
    if isinstance(model, QuantizerModel):
        config = model.config
        print(f"subsets: {config.M}")
        training_set = model.training_set
        print(f"classes: {training_set.num_classes} ({','.join(training_set.class_names)})")
        print(f"training_vectors: {training_set.n}")
        print(f"dimension: {training_set.dim}")
        print(f"knn_k: {config.knn.k}")
        print(f"include_self: {str(config.knn.include_self).lower()}")
        print(f"epsilon: {_fmt(config.smoothing.epsilon)}")
        print(f"max_iters: {config.max_iters}")
        print(f"seed: {config.seed}")
        print(f"init: {config.init}")
        print(f"update_mode: {config.update_mode}")
        print(f"iterations_run: {model.iterations_run}")
        print(f"converged: {str(model.converged).lower()}")
        print(f"final_objective: {_fmt(model.final_objective)}")
    else:
        print(f"clusters: {model.K}")
        print(f"dimension: {model.dim}")
        print(f"iterations_run: {model.iterations_run}")
        print(f"inertia: {_fmt(model.inertia)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klvq",
        description="Supervised vector quantization by KL-divergence minimization.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit_cmd = commands.add_parser("fit", help="train the KL quantizer on a labeled CSV")
    fit_cmd.add_argument("--input", required=True, help="labeled dataset CSV (f1,...,fd,label)")
    fit_cmd.add_argument("--subsets", required=True, type=int, help="number of quantization subsets M")
    fit_cmd.add_argument("--knn", type=int, default=None, help=f"neighbor count (default {KnnConfig.k}, clipped to N)")
    fit_cmd.add_argument("--epsilon", type=float, default=SmoothingConfig.epsilon, help="additive smoothing constant")
    fit_cmd.add_argument("--seed", type=int, default=QuantizerConfig.seed, help="initialization seed")
    fit_cmd.add_argument("--max-iters", type=int, default=QuantizerConfig.max_iters)
    fit_cmd.add_argument("--init", choices=INIT_MODES, default=QuantizerConfig.init)
    fit_cmd.add_argument("--mode", choices=UPDATE_MODES, default=QuantizerConfig.update_mode)
    fit_cmd.add_argument("--output", required=True, help="model JSON path")
    fit_cmd.set_defaults(func=_cmd_fit)

    kmeans_cmd = commands.add_parser("kmeans-fit", help="fit the k-means baseline quantizer")
    kmeans_cmd.add_argument("--input", required=True, help="feature CSV; label column optional")
    kmeans_cmd.add_argument("--clusters", required=True, type=int, help="number of clusters K")
    kmeans_cmd.add_argument("--seed", type=int, default=0)
    kmeans_cmd.add_argument("--max-iters", type=int, default=100)
    kmeans_cmd.add_argument("--output", required=True, help="model JSON path")
    kmeans_cmd.set_defaults(func=_cmd_kmeans_fit)

    quantize_cmd = commands.add_parser("quantize", help="print one subset index per input row")
    quantize_cmd.add_argument("--model", required=True)
    quantize_cmd.add_argument("--input", required=True, help="feature CSV; label column optional")
    quantize_cmd.set_defaults(func=_cmd_quantize)

    synth_cmd = commands.add_parser("synth", help="write a seeded synthetic bag-of-features benchmark")
    synth_cmd.add_argument("--seed", required=True, type=int)
    synth_cmd.add_argument("--classes", required=True, type=int)
    synth_cmd.add_argument("--items-per-class", required=True, type=int)
    synth_cmd.add_argument("--descriptors", required=True, type=int, help="descriptors per item")
    synth_cmd.add_argument("--dim", required=True, type=int)
    synth_cmd.add_argument("--noise", required=True, type=float, help="descriptor spread around the modes")
    synth_cmd.add_argument("--out-dir", required=True)
    synth_cmd.set_defaults(func=_cmd_synth)

    eval_cmd = commands.add_parser("eval-bof", help="bag-of-features classification report")
    eval_cmd.add_argument("--train-dir", required=True)
    eval_cmd.add_argument("--test-dir", required=True)
    eval_cmd.add_argument("--model", required=True)
    eval_cmd.add_argument("--distance", choices=bof.DISTANCES, default="l1")
    eval_cmd.set_defaults(func=_cmd_eval_bof)

    info_cmd = commands.add_parser("info", help="print model metadata")
    info_cmd.add_argument("--model", required=True)
    info_cmd.set_defaults(func=_cmd_info)
    return parser


def cli(argv: Optional[Sequence[str]] = None) -> int:
    """Run one CLI invocation and return its exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except KlvqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli())
