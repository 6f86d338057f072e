#!/usr/bin/env python3
"""How steady is the benchmark?  The acceptance test the PR driver applies.

    python benchmarks/layered/spread.py [--runs 10] [--workload NAME ...]

Runs every workload ``--runs`` times, each time with another seed, as
the driver does (``run.py --workload W --seed N --seconds S --trace 0``),
and prints for each end-to-end metric the distance between the first and
third quartile of the values as a share of their median, next to a third
of the metric's bound (the target) and the bound itself (the limit;
``setup_s`` has none).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--workload", action="append", choices=list(metrics.WORKLOADS))
    args = parser.parse_args()
    seconds = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text("utf-8"))[
        "run_seconds"
    ]
    status = 0
    for name in args.workload or metrics.WORKLOADS:
        values: dict[str, list[float]] = {m.name: [] for m in metrics.END_TO_END}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            line = json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])
            if not line["correct"]:
                status = 1
            for key, entry in line["metrics"].items():
                values[key].append(entry["value"])
        for metric in metrics.END_TO_END:
            samples = values[metric.name]
            q1, median, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median
            mark = ""
            if metric.name != "setup_s":
                mark = "ok" if spread <= metric.bound / 3 else (
                    "above target" if spread <= metric.bound else "ABOVE BOUND"
                )
                status = status or spread > metric.bound
            print(f"{name:<20}{metric.name:<13} median {median:<12.6g} "
                  f"spread {spread:6.2%}  target {metric.bound / 3:5.2%} "
                  f"bound {metric.bound:4.0%}  {mark}", flush=True)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
