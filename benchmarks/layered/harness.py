"""Runs one workload in this process and reports every metric.

``measure`` is what one invocation of ``run.py --workload NAME`` does:

1. set-up, three times or more; ``setup_s`` is the median (the last one
   is kept);
2. one untimed warm-up at one-tenth size;
3. timed runs with tracing off until ``seconds`` have passed (at least
   ``min_runs``), ``gc.collect()`` before each and output checks after
   each, both untimed;
4. with ``trace``: one traced run and the replays that follow it.

Timings are reported as the median of the timed runs together with the
samples and quartiles.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import metrics
from tracing import Tracer
from workloads import SIZES, WORKLOAD_CLASSES, Run, Workload, scaled

from repro.er.batch_kernel import active_numpy

HERE = Path(__file__).resolve().parent
RESULTS_DIR = HERE / "results"

#: Set-up is repeated at least this often, and further (up to
#: SETUP_MAX_REPEATS) while all repeats together took under a second, so
#: that a set-up of a few milliseconds still yields a steady median.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 15
MIN_RUNS = 5
#: Timed runs of a ``--trace`` invocation before its traced run; their
#: median is what ``trace.overhead_share`` compares the traced wall to.
TRACE_MIN_RUNS = 3


def machine_info() -> dict[str, Any]:
    numpy = active_numpy()
    try:
        import numpy as installed

        numpy_version = installed.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numpy_kernel_active": numpy is not None,
        "loadavg_1m": os.getloadavg()[0],
    }


def summarize(samples: list[float]) -> dict[str, Any]:
    """Median and quartiles of ``samples`` with the sample count."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "value": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": samples,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it has
    waited for, in MB (Linux reports ``ru_maxrss`` in KB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def workdir_for(name: str) -> Path:
    """A fresh scratch directory inside the benchmark's own tree; also
    made the process's temp dir, so that the engine's spill files and
    the workers' temp files stay inside the checkout."""
    path = RESULTS_DIR / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    tempfile.tempdir = str(path)
    os.environ["TMPDIR"] = str(path)
    return path


def _checked(workload: Workload, run: Run, failures: list[str], label: str = "") -> int:
    """Apply the per-run checks; returns the operations that failed."""
    problems = run.failures + workload.verify(run)
    failures.extend(f"{workload.name}{label}: {problem}" for problem in problems)
    return run.ops if problems else 0


def measure(
    name: str,
    seed: int,
    seconds: float,
    *,
    trace: bool,
    smoke: bool = False,
    min_runs: int | None = None,
) -> dict[str, Any]:
    """Run workload ``name`` and return its result record."""
    cls = WORKLOAD_CLASSES[name]
    small = scaled(SIZES[name], 0.1)
    sizes = small if smoke else SIZES[name]
    size_label = "smoke" if smoke else "full"
    if min_runs is None:
        min_runs = 2 if smoke else TRACE_MIN_RUNS if trace else MIN_RUNS
    workdir = workdir_for(name)
    info = machine_info()
    failures: list[str] = []
    attempted = failed = 0
    workload = None
    try:
        # 1. set-up: repeated so that setup_s is a median, not one draw.
        setup_samples: list[float] = []
        while not setup_samples or (
            not (trace or smoke)
            and (
                len(setup_samples) < SETUP_REPEATS
                or (sum(setup_samples) < 1.0 and len(setup_samples) < SETUP_MAX_REPEATS)
            )
        ):
            if workload is not None:
                workload.teardown()
            workload = cls(sizes, seed, workdir, size_label)
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            setup_samples.append(time.perf_counter() - start)

        # 2. warm-up at one-tenth size: imports, lazily built tables.
        if not smoke:
            (workdir / "warm").mkdir()
            warm = cls(small, seed, workdir / "warm", "smoke")
            warm.setup()
            try:
                warm.run()
            finally:
                warm.teardown()

        # 3. timed runs, tracing off.
        budget = seconds / 2 if trace else seconds
        runs: list[Run] = []
        started = time.perf_counter()
        while len(runs) < min_runs or time.perf_counter() - started < budget:
            if runs:
                runs[-1].payload = None
            gc.collect()
            run = workload.run()
            runs.append(run)
            attempted += run.ops
            failed += _checked(workload, run, failures)
        checked = runs[-1]
        if not trace:
            # Stop servers and workers first: ru_maxrss only covers
            # children that have been waited for.
            workload.teardown()
        rss = peak_rss_mb()

        walls = [run.wall_s for run in runs]
        pairs = runs[0].pairs
        record: dict[str, Any] = {
            "workload": name,
            "seed": seed,
            "size": size_label,
            "sizes": sizes,
            "seconds": seconds,
            "K": len(runs),
            "trace": trace,
            "machine": info,
            "end_to_end": {
                "wall_s": summarize(walls),
                "pairs_per_s": summarize([run.pairs / run.wall_s for run in runs]),
                "peak_rss_mb": summarize([rss]),
                "setup_s": summarize(setup_samples),
            },
        }
        for metric in metrics.END_TO_END:
            record["end_to_end"][metric.name].update(unit=metric.unit, bound=metric.bound)

        # 4. the traced run, its replays, and the layer metrics.
        if trace:
            layer = dict.fromkeys(metrics.LAYER_NAMES, 0.0)
            layer.update(_untraced_layer_metrics(runs))
            tracer = Tracer()
            gc.collect()
            checked = traced = workload.traced_run(tracer)
            attempted += traced.ops
            if traced.pairs != pairs:
                traced.failures.append("compared a different number of pairs")
            failed += _checked(workload, traced, failures, " (traced)")
            layer.update(traced.layer)
            layer.update(workload.replay(tracer, traced))
            untraced = statistics.median(walls)
            layer["trace.overhead_share"] = (traced.wall_s - untraced) / untraced
            layer.update(workload.teardown(measure_shutdown=True))
            unknown = set(layer) - set(metrics.LAYER_NAMES)
            if unknown:
                raise RuntimeError(f"unregistered layer metrics: {sorted(unknown)}")
            units = {m.name: m.unit for m in metrics.LAYER}
            record["per_layer"] = {
                key: {"value": float(value), "unit": units[key]}
                for key, value in layer.items()
            }
            trace_path = RESULTS_DIR / f"trace-{name}.json"
            tracer.write(trace_path)
            record["trace_file"] = str(trace_path.relative_to(HERE))

        # 5. checks against an independent recomputation, on one run.
        problems = workload.verify_reference(checked)
        failures.extend(f"{name}: {problem}" for problem in problems)
        if problems and not checked.failures:
            failed += checked.ops
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    record["digest"] = workload.output_digest
    record["ops_total"] = attempted
    record["ops_failed"] = failed
    record["failures"] = failures
    return record


def _untraced_layer_metrics(runs: list[Run]) -> dict[str, float]:
    """The workload-specific user-facing numbers of the untraced runs."""
    out: dict[str, float] = {}
    firsts = [run.extra["first_match_s"] for run in runs if run.extra.get("first_match_s")]
    if firsts:
        out["first_match_s"] = statistics.median(firsts)
    latencies = [x for run in runs for x in run.extra.get("latencies", ())]
    if latencies:
        latencies.sort()
        out["job_latency_p50_s"] = statistics.median(latencies)
        out["job_latency_p90_s"] = latencies[min(len(latencies) - 1, int(0.9 * len(latencies)))]
        out["jobs_per_s"] = statistics.median(run.ops / run.wall_s for run in runs)
    return out


def contract_line(record: dict[str, Any]) -> dict[str, Any]:
    """The driver's result object for one invocation."""
    section = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {
        "correct": not record["failures"],
        "attempted": record["ops_total"],
        "failed": record["ops_failed"],
        "metrics": {
            key: {"value": entry["value"], "unit": entry["unit"]}
            for key, entry in section.items()
        },
    }


def print_record(record: dict[str, Any], out=sys.stdout) -> None:
    """Every metric by name with its unit, human-readable."""
    print(f"== {record['workload']}  seed={record['seed']} size={record['size']} "
          f"K={record['K']} ==", file=out)
    for key, entry in record["end_to_end"].items():
        print(f"  {key:<28} {entry['value']:>14.6g} {entry['unit']:<6} "
              f"[q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n={entry['n']}]", file=out)
    for key, entry in record.get("per_layer", {}).items():
        if entry["value"]:
            print(f"  {key:<28} {entry['value']:>14.6g} {entry['unit']}", file=out)
    print(f"  {'ops_total':<28} {record['ops_total']:>14}", file=out)
    print(f"  {'ops_failed':<28} {record['ops_failed']:>14}", file=out)
    for failure in record["failures"]:
        print(f"  FAILED: {failure}", file=out)
