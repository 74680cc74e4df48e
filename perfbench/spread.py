"""Run one workload once per seed and report every metric's median and spread.

    python3 perfbench/spread.py --workload ann_churn --seeds 1-10 --seconds 10 [--trace 1]

The spread is the distance between the first and the third quartile of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median: the figure each end-to-end bound in ``BENCHMARK.json`` is set
against.  Runs go one at a time, each in its own process, from the root of
the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def spread(values: "list[float]") -> float:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(median)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        bounds = {metric["name"]: metric["bound"] for metric in json.loads(spec_path.read_text())["end_to_end"]}

    values: dict[str, list[float]] = {}
    failed_shares = []
    for seed in parse_seeds(args.seeds):
        command = [
            sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        started = time.perf_counter()
        finished = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        wall = time.perf_counter() - started
        lines = finished.stdout.strip().splitlines()
        if finished.returncode != 0 or not lines:
            print(f"seed {seed}: exit {finished.returncode}\n{finished.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        failed_shares.append(result["failed"] / result["attempted"])
        print(
            f"seed {seed}: wall {wall:.1f}s correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}",
            flush=True,
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"failed share per run: {sorted(set(failed_shares))}")
    print(f"{'metric':40s} {'median':>14s} {'spread':>8s} {'bound':>6s}  values")
    for name, series in values.items():
        bound = bounds.get(name)
        shown = "" if bound is None else f"{bound:.2f}"
        print(
            f"{name:40s} {statistics.median(series):14.6g} {spread(series):8.4f} {shown:>6s}  "
            + " ".join(f"{value:.5g}" for value in series)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
