"""Span tracing for the traced benchmark run, installed from outside the program.

Each traced function of a klvq module is replaced by a wrapper in every
``klvq`` module namespace that binds it, so calls made through
``from .x import f`` bindings are caught too. A wrapper records a span
(name, start, end, parent) and keeps per-name totals of inclusive time,
self time (inclusive time minus the time of child spans) and calls, plus
counters that a hook derives from the arguments and the result.

A traced name that the program no longer defines, or whose hook no longer
understands its arguments or result, is reported as missing and its
metrics read 0.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

# Raw spans kept for the trace file; the aggregates are always complete.
MAX_KEPT_SPANS = 300_000


def _kl_matrix_bytes(args, result) -> float:
    """Bytes of one (N, M, C) float64 term array for (N, C) against (M, C)."""
    (n, c), (m, _) = np.shape(args[0]), np.shape(args[1])
    return 8.0 * n * m * c


def _points_moved(args, result) -> float:
    return float(np.count_nonzero(np.asarray(args[0]) != np.asarray(result)))


def _iterations_run(args, result) -> float:
    model = result[0] if isinstance(result, tuple) else getattr(result, "model", result)
    return float(model.iterations_run)


def _path_bytes(position: int):
    """Size of the file, or of the files in the directory, named by an argument."""

    def hook(args, result) -> float:
        path = Path(args[position])
        if path.is_dir():
            return float(sum(entry.stat().st_size for entry in path.iterdir() if entry.is_file()))
        return float(path.stat().st_size)

    return hook


# span name -> (defining module, attribute, counter name, counter hook)
TRACED = {
    "label_model.estimate_all": ("klvq.label_model", "estimate_all", None, None),
    "label_model.knn_indices": ("klvq.label_model", "knn_indices", None, None),
    "divergence.kl_matrix": ("klvq.divergence", "kl_matrix", "divergence.kl_matrix.bytes", _kl_matrix_bytes),
    "divergence.objective": ("klvq.divergence", "objective", None, None),
    "quantizer.fit": ("klvq.quantizer", "fit", "quantizer.fit.iterations", _iterations_run),
    "quantizer.update_subset_distributions": ("klvq.quantizer", "update_subset_distributions", None, None),
    "quantizer.assign_step": ("klvq.quantizer", "assign_step", None, None),
    "quantizer.repair": ("klvq.quantizer", "_repair_empty_subsets", "quantizer.repair.points_moved", _points_moved),
    "quantizer.quantize": ("klvq.quantizer", "quantize", None, None),
    "kmeans.kmeans_fit": ("klvq.kmeans", "kmeans_fit", "kmeans.kmeans_fit.iterations", _iterations_run),
    "kmeans.kmeans_assign": ("klvq.kmeans", "kmeans_assign", None, None),
    "bof.build_histogram": ("klvq.bof", "build_histogram", None, None),
    "bof.classify_1nn": ("klvq.bof", "classify_1nn", None, None),
    "bof.generate_synthetic": ("klvq.bof", "generate_synthetic", None, None),
    "fileio.save_bags": ("klvq.fileio", "save_bags", "fileio.bytes_written", _path_bytes(1)),
    "fileio.save_dataset": ("klvq.fileio", "save_dataset", "fileio.bytes_written", _path_bytes(0)),
    "fileio.save_model": ("klvq.fileio", "save_model", "fileio.bytes_written", _path_bytes(1)),
    "fileio.load_bags": ("klvq.fileio", "load_bags", "fileio.bytes_read", _path_bytes(0)),
    "fileio.load_dataset": ("klvq.fileio", "load_dataset", "fileio.bytes_read", _path_bytes(0)),
    "fileio.load_feature_matrix": ("klvq.fileio", "load_feature_matrix", "fileio.bytes_read", _path_bytes(0)),
    "fileio.load_model": ("klvq.fileio", "load_model", "fileio.bytes_read", _path_bytes(0)),
}

CLI_COMMANDS = ("synth", "fit", "kmeans-fit", "quantize", "eval-bof")

# metric -> (unit, source, kind). kind is "s" (inclusive seconds), "self_s",
# "calls" or "counter"; source is a span name, or a counter name.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "label_model.estimate_all.s": ("s", "label_model.estimate_all", "s"),
    "label_model.knn_queries": ("count", "label_model.knn_indices", "calls"),
    "label_model.knn_indices.self_s": ("s", "label_model.knn_indices", "self_s"),
    "divergence.kl_matrix.calls": ("count", "divergence.kl_matrix", "calls"),
    "divergence.kl_matrix.self_s": ("s", "divergence.kl_matrix", "self_s"),
    "divergence.kl_matrix.bytes": ("bytes", "divergence.kl_matrix.bytes", "counter"),
    "divergence.objective.self_s": ("s", "divergence.objective", "self_s"),
    "quantizer.fit.iterations": ("count", "quantizer.fit.iterations", "counter"),
    "quantizer.update_subset_distributions.self_s": ("s", "quantizer.update_subset_distributions", "self_s"),
    "quantizer.assign_step.self_s": ("s", "quantizer.assign_step", "self_s"),
    "quantizer.repair.self_s": ("s", "quantizer.repair", "self_s"),
    "quantizer.repair.points_moved": ("count", "quantizer.repair.points_moved", "counter"),
    "quantizer.quantize.calls": ("count", "quantizer.quantize", "calls"),
    "quantizer.quantize.self_s": ("s", "quantizer.quantize", "self_s"),
    "kmeans.kmeans_fit.self_s": ("s", "kmeans.kmeans_fit", "self_s"),
    "kmeans.kmeans_fit.iterations": ("count", "kmeans.kmeans_fit.iterations", "counter"),
    "kmeans.kmeans_assign.calls": ("count", "kmeans.kmeans_assign", "calls"),
    "kmeans.kmeans_assign.self_s": ("s", "kmeans.kmeans_assign", "self_s"),
    "bof.build_histogram.self_s": ("s", "bof.build_histogram", "self_s"),
    "bof.classify_1nn.self_s": ("s", "bof.classify_1nn", "self_s"),
    "bof.classify_1nn.calls": ("count", "bof.classify_1nn", "calls"),
    "bof.generate_synthetic.s": ("s", "bof.generate_synthetic", "s"),
    **{f"fileio.{fn}.s": ("s", f"fileio.{fn}", "s")
       for fn in ("save_bags", "save_dataset", "save_model", "load_bags", "load_dataset",
                  "load_feature_matrix", "load_model")},
    "fileio.bytes_written": ("bytes", "fileio.bytes_written", "counter"),
    "fileio.bytes_read": ("bytes", "fileio.bytes_read", "counter"),
    # A command's wall time minus the traced layer spans inside it.
    **{f"cli.{command}.self_s": ("s", f"cli.{command}", "self_s") for command in CLI_COMMANDS},
}


class Tracer:
    """Records spans and per-name aggregates; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list = []
        self.keep_spans = True
        self._stack: list[list[int]] = []  # per open span: [kept index or -1, child ns]
        self._patched: list[tuple[object, str, object]] = []
        self._missing: set[str] = set()
        self.reset()

    def reset(self) -> None:
        """Start new aggregates (one set per benchmark round)."""
        self.totals: dict[str, list[int]] = {}  # name -> [inclusive ns, self ns, calls]
        self.counters: dict[str, float] = {}

    def call(self, name: str, fn, *args, hook=None, counter=None):
        """Run fn(*args) inside a span called name."""
        parent = self._stack[-1][0] if self._stack else -1
        index = -1
        if self.keep_spans and len(self.spans) < MAX_KEPT_SPANS:
            index = len(self.spans)
            self.spans.append(None)
        frame = [index, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            total = self.totals.setdefault(name, [0, 0, 0])
            total[0] += duration
            total[1] += duration - frame[1]
            total[2] += 1
            if index >= 0:
                self.spans[index] = (name, start, end, parent)
        if hook is not None and counter not in self._missing:
            try:
                value = hook(args, result)
            except (AttributeError, TypeError, IndexError, ValueError, OSError):
                self._missing.add(counter)
            else:
                self.counters[counter] = self.counters.get(counter, 0.0) + value
        return result

    def _wrap(self, name: str, fn, counter, hook):
        tracer = self

        def traced(*args, **kwargs):
            call = (lambda *a: fn(*a, **kwargs)) if kwargs else fn
            return tracer.call(name, call, *args, hook=hook, counter=counter)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function in every klvq module that binds it."""
        modules = [module for key, module in sorted(sys.modules.items())
                   if module is not None and (key == "klvq" or key.startswith("klvq."))]
        for name, (module_name, attr, counter, hook) in TRACED.items():
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                self._missing.add(name)
                continue
            wrapper = self._wrap(name, original, counter, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def missing_metrics(self) -> list[str]:
        """Layer metrics whose function or counter the program no longer provides."""
        fed_by: dict[str, set[str]] = {}
        for name, (_, _, counter, _) in TRACED.items():
            if counter is not None:
                fed_by.setdefault(counter, set()).add(name)
        out = []
        for metric, (_, source, kind) in LAYER_METRICS.items():
            if source in self._missing or (kind == "counter" and fed_by[source] <= self._missing):
                out.append(metric)
        return out

    def round_metrics(self) -> dict[str, float]:
        """Per-layer metric values of the aggregates since the last reset."""
        values = {}
        for metric, (_, source, kind) in LAYER_METRICS.items():
            if kind == "counter":
                values[metric] = float(self.counters.get(source, 0.0))
            else:
                inclusive, self_ns, calls = self.totals.get(source, (0, 0, 0))
                values[metric] = {"s": inclusive / 1e9, "self_s": self_ns / 1e9, "calls": float(calls)}[kind]
        return values

    def write(self, path: Path, summary: dict) -> None:
        """Write the summary and the kept spans as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({**summary, "missing": self.missing_metrics(),
                       "span_fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, handle)
