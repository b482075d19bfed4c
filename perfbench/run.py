"""klvq benchmark: run one workload for a while, check its outputs, print metrics.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Run from the root of a klvq checkout; the program is imported from its
``src`` directory. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones (each command's median
time over the run, scaled by the reference block run around it; see
``bench.py``); with ``--trace 1`` the same rounds run with every layer traced
and the metrics are the per-layer ones (medians of the rounds' totals), and
the spans are written to ``.perfbench_out/trace-<workload>-<seed>.json``.
"""

import time

_START = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402

# One thread for BLAS and OpenMP, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _import_program():
    """Import klvq from the checkout's src directory, and nowhere else."""
    src = ROOT / "src"
    if not (src / "klvq" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no klvq sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import klvq.cli

    if Path(klvq.__file__).resolve().parent != (src / "klvq").resolve():
        raise SystemExit(f"perfbench: imported klvq from {klvq.__file__}, not from {src}")
    return klvq.cli


def main(argv=None) -> int:
    import bench
    import checks
    from spans import LAYER_METRICS, Tracer

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    cli_module = _import_program()
    workload = bench.WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        inputs = bench.make_inputs(workload, args.seed, workdir)
        bench.write_inputs(inputs)
        setup_wall_s = time.perf_counter() - _START
        reference = bench.Reference(workdir)

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        synth_failures: list[str] = []

        def after_synth(op) -> None:
            if op.code == 0 and not synth_failures:
                synth_failures.append("")  # the first synth output is checked, once
                synth_failures.extend(checks.check_synth(workload, op, inputs.synth_dir))
            shutil.rmtree(inputs.synth_dir, ignore_errors=True)

        rounds, layer_rounds = [], []
        started = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            if tracer is not None:
                tracer.reset()
                tracer.keep_spans = not rounds
            rounds.append(bench.run_round(cli_module.cli, workload, inputs, args.seed, after_synth,
                                          reference, tracer))
            if tracer is not None:
                layer_rounds.append(tracer.round_metrics())
            now = time.perf_counter()
            if now - started + (now - round_start) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        failures = [f for f in synth_failures if f] + checks.check_run(workload, inputs, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r.ops) for r in rounds)
    failed = sum(op.code != 0 for r in rounds for op in r.ops)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)

    e2e = bench.end_to_end(rounds, workload)
    # The set-up ran before any reference block, so it is scaled by the
    # median reference time of the whole run.
    reference_s = statistics.median(op.ref_seconds for r in rounds for op in r.ops)
    setup_s = setup_wall_s / reference_s * bench.REF_SECONDS
    units = dict(bench.END_TO_END_UNITS)
    if tracer is None:
        metrics = {**e2e, "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
        units.update(peak_rss_mb="MB", setup_s="s")
    else:
        metrics = {name: statistics.median(r[name] for r in layer_rounds) for name in LAYER_METRICS}
        units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
        missing = tracer.missing_metrics()
        if missing:
            print("missing layer metrics (reported as 0): " + ", ".join(missing))
        print("traced end-to-end figures: " + json.dumps(e2e))
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.json", {
            "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
            "end_to_end_traced": e2e, "layer_metrics": metrics,
            "layer_rounds": layer_rounds,
        })
    samples = [[op.command, op.model, op.seconds, op.ref_seconds] for r in rounds for op in r.ops]
    (OUT_DIR / f"samples-{args.workload}-{args.seed}-{args.trace}.json").write_text(json.dumps(samples))
    for op in rounds[0].op("eval-bof"):
        if op.code == 0:
            print(f"eval-bof {op.model} {op.out.splitlines()[1]}")  # reported, not gated
    print(f"{args.workload}: {len(rounds)} rounds, set-up wall time {setup_wall_s:.3f} s, "
          f"reference block median {reference_s:.4f} s (scaled to {bench.REF_SECONDS} s)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
