#!/usr/bin/env python3
"""The layered benchmark's one command.

::

    python benchmarks/layered/run.py                      # all six workloads
    python benchmarks/layered/run.py --trace              # … plus a traced run of each
    python benchmarks/layered/run.py --workload wide-flat --seed 7 --trace
    python benchmarks/layered/run.py --smoke --trace      # one-tenth sizes, < 1 min
    python benchmarks/layered/run.py --compare A.json B.json

With ``--workload`` the workload runs in this process and the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``) — the form the PR driver reads; it passes
``--workload NAME --seed N --seconds S --trace 0|1``.  Without it every
workload runs in a fresh subprocess of its own (so ``peak_rss_mb`` is
per workload) and the records are gathered into one result file under
``benchmarks/layered/results/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE_ROOT = HERE.parent.parent / "src"

SCHEMA = "layered-bench/1"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, help="workload seed (default: metrics.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed runs of one workload go on "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--runs", type=int, default=None, metavar="K",
                        help="least number of timed runs (default 5)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="also (with --workload: only) report the per-layer "
                             "metrics of a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="one-tenth sizes, two timed runs")
    parser.add_argument("--out", type=Path, help="where to write the result file")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite expected.json: the output digests of the "
                             "default and held-out seeds at full and smoke size")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), type=Path,
                        help="compare two result files and exit")
    return parser


def _run_seconds() -> float:
    benchmark = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text("utf-8"))
    return float(benchmark["run_seconds"])


def _one(args, seed: int, seconds: float) -> int:
    import harness

    record = harness.measure(
        args.workload, seed, seconds,
        trace=bool(args.trace), smoke=args.smoke, min_runs=args.runs,
    )
    harness.print_record(record)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps(harness.contract_line(record)))
    return 1 if record["failures"] else 0


def _all(args, seed: int, seconds: float) -> int:
    import harness
    import metrics

    results_dir = harness.RESULTS_DIR
    results_dir.mkdir(parents=True, exist_ok=True)
    workloads: dict[str, dict] = {}
    status = 0
    for name in metrics.WORKLOADS:
        merged: dict | None = None
        for trace in (0, 1) if args.trace else (0,):
            part = results_dir / f"part-{name}-{trace}.json"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--out", str(part),
            ]
            if args.smoke:
                command.append("--smoke")
            if args.runs is not None:
                command += ["--runs", str(args.runs)]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            # The child's table, without its machine-readable last line.
            print(done.stdout.rsplit("\n", 2)[0], flush=True)
            if not part.exists():
                print(f"{name}: no result (exit {done.returncode})", file=sys.stderr)
                status = 1
                continue
            status = status or done.returncode
            record = json.loads(part.read_text("utf-8"))
            part.unlink()
            if merged is None:
                merged = record
            else:
                merged["per_layer"] = record["per_layer"]
                merged["trace_file"] = record["trace_file"]
                merged["ops_total"] += record["ops_total"]
                merged["ops_failed"] += record["ops_failed"]
                merged["failures"] += record["failures"]
        if merged is not None:
            workloads[name] = merged
    document = {
        "schema": SCHEMA,
        "seed": seed,
        "size": "smoke" if args.smoke else "full",
        "seconds": seconds,
        "machine": next(iter(workloads.values()))["machine"] if workloads else {},
        "workloads": workloads,
    }
    serial = workloads.get("dedup-skewed")
    dist = workloads.get("dedup-skewed-dist")
    if serial and dist:
        ratio = serial["end_to_end"]["wall_s"]["value"] / dist["end_to_end"]["wall_s"]["value"]
        document["dist_speedup"] = ratio
        print(f"wall_s(dedup-skewed) / wall_s(dedup-skewed-dist) = {ratio:.3f} "
              f"({metrics.PARALLELISM} workers)")
    out = args.out or results_dir / (
        f"run-seed{seed}{'-smoke' if args.smoke else ''}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return status


def _record_expected() -> int:
    import harness
    import metrics
    import verify

    verify.EXPECTED_FILE.write_text("{}\n", encoding="utf-8")
    expected = {}
    for seed in (metrics.DEFAULT_SEED, metrics.HELD_OUT_SEED):
        for smoke in (False, True):
            for name in metrics.WORKLOADS:
                record = harness.measure(
                    name, seed, 0.0, trace=False, smoke=smoke, min_runs=1
                )
                if record["failures"]:
                    print("\n".join(record["failures"]), file=sys.stderr)
                    return 1
                key = verify.expected_key(name, seed, record["size"])
                expected[key] = record["digest"]
    verify.EXPECTED_FILE.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(expected)} digests to {verify.EXPECTED_FILE}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare)
    if not (SOURCE_ROOT / "repro").is_dir():
        print(f"run.py: {SOURCE_ROOT / 'repro'} not found; the benchmark runs "
              "the repository's own sources", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE_ROOT))
    import metrics

    if args.workload is not None and args.workload not in metrics.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; known: "
              f"{', '.join(metrics.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.record_expected:
        return _record_expected()
    seed = args.seed if args.seed is not None else metrics.DEFAULT_SEED
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else _run_seconds()
    if args.workload is not None:
        return _one(args, seed, seconds)
    return _all(args, seed, seconds)


if __name__ == "__main__":
    sys.exit(main())
