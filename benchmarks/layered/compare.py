"""``run.py --compare A.json B.json``: did B get worse than A?

One row per workload × end-to-end metric with both medians and
quartiles and a verdict:

``worse``       B's median is worse than A's by more than the metric's bound
``unresolved``  not worse, but either side's quartile distance exceeds the
                bound, so "same" cannot be claimed
``better``      B's median is better than A's by more than the bound
``same``        otherwise

Per-layer rows follow without a verdict.  Files recorded with a
different seed, size, or numpy state are not comparable and are refused.
The exit status is non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def _load(path: Path) -> dict:
    document = json.loads(path.read_text(encoding="utf-8"))
    if document.get("schema") != "layered-bench/1":
        raise SystemExit(f"{path}: not a layered-bench/1 result file")
    return document


def _comparable(a: dict, b: dict) -> list[str]:
    reasons = []
    for key in ("seed", "size"):
        if a[key] != b[key]:
            reasons.append(f"{key} differs: {a[key]} vs {b[key]}")
    for key in ("numpy", "numpy_kernel_active"):
        if a["machine"].get(key) != b["machine"].get(key):
            reasons.append(
                f"machine.{key} differs: {a['machine'].get(key)} vs {b['machine'].get(key)}"
            )
    for name in set(a["workloads"]) & set(b["workloads"]):
        if a["workloads"][name]["sizes"] != b["workloads"][name]["sizes"]:
            reasons.append(f"sizes of {name} differ")
    return reasons


def verdict(a: dict, b: dict, better: str) -> str:
    """Verdict for one metric from its two summaries (value, q1, q3, bound)."""
    bound = a["bound"]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    if worse_by > bound:
        return "worse"
    if any((side["q3"] - side["q1"]) / side["value"] > bound for side in (a, b)):
        return "unresolved"
    return "better" if worse_by < -bound else "same"


def main(path_a: Path, path_b: Path) -> int:
    # Imported here: the direction of each metric is the benchmark's, not
    # the result files'.
    import metrics

    a, b = _load(path_a), _load(path_b)
    reasons = _comparable(a, b)
    if reasons:
        for reason in reasons:
            print(f"cannot compare: {reason}", file=sys.stderr)
        return 2
    direction = {m.name: m.better for m in metrics.END_TO_END}
    worse = 0
    print(f"{'workload':<20}{'metric':<14}{'A median [q1, q3]':<46}"
          f"{'B median [q1, q3]':<46}{'change':>8}  verdict")
    layer_rows = []
    for name, record_a in a["workloads"].items():
        record_b = b["workloads"].get(name)
        if record_b is None:
            continue
        for metric, entry_a in record_a["end_to_end"].items():
            entry_b = record_b["end_to_end"][metric]
            outcome = verdict(entry_a, entry_b, direction[metric])
            worse += outcome == "worse"
            change = (entry_b["value"] - entry_a["value"]) / entry_a["value"]
            print(f"{name:<20}{metric:<14}{_cell(entry_a):<46}{_cell(entry_b):<46}"
                  f"{change:>+8.1%}  {outcome}")
        if record_a["ops_failed"] < record_b["ops_failed"]:
            worse += 1
            print(f"{name:<20}{'ops_failed':<14}{record_a['ops_failed']:<46}"
                  f"{record_b['ops_failed']:<46}{'':>8}  worse")
        for metric, entry_a in record_a.get("per_layer", {}).items():
            entry_b = record_b.get("per_layer", {}).get(metric)
            if entry_b is not None and (entry_a["value"] or entry_b["value"]):
                layer_rows.append((name, metric, entry_a, entry_b))
    if layer_rows:
        print("\nper-layer (traced run, no verdict)")
        for name, metric, entry_a, entry_b in layer_rows:
            print(f"{name:<20}{metric:<30}{entry_a['value']:>14.6g}"
                  f"{entry_b['value']:>14.6g} {entry_a['unit']}")
    return 1 if worse else 0


def _cell(entry: dict) -> str:
    return f"{entry['value']:.5g} [{entry['q1']:.5g}, {entry['q3']:.5g}] n={entry['n']}"
