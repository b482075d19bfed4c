"""Steadiness of the benchmark: run workloads repeatedly, print median and quartiles.

    python3 perfbench/steady.py --workloads desk wide io --runs 10 --seconds 30

Run from the root of a klvq checkout. Each run is one ``perfbench/run.py``
process with its own seed (first seed, first seed + 1, ...), run one after
the other. For every workload and metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the bound
in ``BENCHMARK.json``. The runs are untraced.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text()) if Path("BENCHMARK.json").exists() else {}
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    seconds = args.seconds or spec.get("run_seconds", 30)

    results: dict[str, list[dict]] = {}
    for workload in args.workloads:
        runs = results[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(workload, seed, seconds))
            print(f"# {workload} seed {seed}: " + " ".join(
                f"{name}={metric['value']:.5g}" for name, metric in runs[-1]["metrics"].items()),
                flush=True)
    print(f"{'workload':8} {'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for workload, runs in results.items():
        incorrect = sum(not run["correct"] for run in runs)
        failed = sorted({(run["failed"], run["attempted"]) for run in runs})
        for name in runs[0]["metrics"]:
            median, q1, q3, spread = summarize([run["metrics"][name]["value"] for run in runs])
            bound = bounds.get(name)
            print(f"{workload:8} {name:44} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
                  f"{'' if bound is None else bound:>6}")
        print(f"{workload:8} runs={len(runs)} incorrect={incorrect} failed/attempted={failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
