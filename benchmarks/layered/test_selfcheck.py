"""Self-check of the layered benchmark (not part of tier-1).

    python -m pytest benchmarks/layered -q

Two ``--smoke --trace`` runs of one seed (about a minute together, 20 s
of which are the two unassisted server shutdowns) must produce
result files of the frozen schema, with the names of ``BENCHMARK.json``,
spans that nest and close, and identical counts.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
SEED = 4242

#: Counts that must repeat exactly between two runs of one seed.
EXACT = (
    "er.pairs", "er.batch_calls", "er.matches", "core.reduce_imbalance",
    "mapreduce.map_output_records", "mapreduce.spill_count",
    "engine.dist_task_bytes", "engine.dist_result_bytes", "io.records",
)


def _smoke(path: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
         "--seed", str(SEED), "--out", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("layered")
    return _smoke(directory / "a.json"), _smoke(directory / "b.json")


def test_benchmark_json_agrees_with_the_registry():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert benchmark["paths"] == ["benchmarks/layered"]
    assert [(w["name"], w["why"]) for w in benchmark["workloads"]] == list(
        metrics.WORKLOADS.items()
    )
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in benchmark["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.LAYER
    ]
    names = (
        list(metrics.WORKLOADS) + list(metrics.END_TO_END_NAMES) + list(metrics.LAYER_NAMES)
    )
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in metrics.END_TO_END_NAMES
    assert all(0 < m.bound <= 0.25 for m in metrics.END_TO_END)


def test_result_file_has_the_frozen_schema(smoke_runs):
    document, _ = smoke_runs
    assert document["schema"] == "layered-bench/1"
    assert document["seed"] == SEED and document["size"] == "smoke"
    assert set(document["machine"]) == {
        "nproc", "platform", "python", "numpy", "numpy_kernel_active", "loadavg_1m",
    }
    assert list(document["workloads"]) == list(metrics.WORKLOADS)
    for record in document["workloads"].values():
        assert record["ops_total"] >= 1 and record["ops_failed"] == 0
        assert record["failures"] == []
        assert record["K"] >= 2 and record["sizes"]
        assert list(record["end_to_end"]) == list(metrics.END_TO_END_NAMES)
        for entry in record["end_to_end"].values():
            assert set(entry) == {"value", "q1", "q3", "n", "samples", "unit", "bound"}
            assert entry["value"] > 0 and entry["n"] == len(entry["samples"])
        assert list(record["per_layer"]) == list(metrics.LAYER_NAMES)


def test_workloads_separate_the_layers(smoke_runs):
    document, _ = smoke_runs
    layer = {
        name: {k: v["value"] for k, v in record["per_layer"].items()}
        for name, record in document["workloads"].items()
    }
    assert layer["plan-sweep"]["er.batch_calls"] == 0
    assert layer["plan-sweep"]["er.kernel_s"] == 0
    assert layer["wide-flat"]["mapreduce.spill_count"] > 0
    assert layer["wide-flat"]["io.csv_load_s"] > 0
    assert layer["dedup-skewed-dist"]["engine.dist_task_bytes"] > 0
    assert layer["served-small-jobs"]["shutdown_s"] > 0
    assert layer["delta-ingest"]["engine.state_save_s"] > 0
    assert 0 < layer["delta-ingest"]["engine.delta_pairs_share"] < 1
    for name, values in layer.items():
        assert values["trace.coverage_share"] > 0.5, name
    assert document["dist_speedup"] > 0


def test_spans_nest_and_close(smoke_runs):
    for name in metrics.WORKLOADS:
        spans = json.loads(
            (HERE / "results" / f"trace-{name}.json").read_text(encoding="utf-8")
        )["spans"]
        assert spans, name
        by_id = {span["id"]: span for span in spans}
        for span in spans:
            assert span["end"] is not None and span["end"] >= span["start"], (name, span)
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["start"] <= span["start"], (name, span)
                assert span["end"] <= parent["end"], (name, span)
                assert span["replayed"] == parent["replayed"], (name, span)


def test_counts_repeat_exactly(smoke_runs):
    first, second = smoke_runs
    for name in metrics.WORKLOADS:
        a = first["workloads"][name]["per_layer"]
        b = second["workloads"][name]["per_layer"]
        for metric in EXACT:
            assert a[metric]["value"] == b[metric]["value"], (name, metric)


def test_compare_accepts_equal_files_and_refuses_other_seeds(smoke_runs, tmp_path):
    first, _ = smoke_runs
    a = tmp_path / "a.json"
    a.write_text(json.dumps(first), encoding="utf-8")
    same = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--compare", str(a), str(a)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert same.returncode == 0, same.stdout + same.stderr
    assert "worse" not in same.stdout
    other = dict(first, seed=SEED + 1)
    b = tmp_path / "b.json"
    b.write_text(json.dumps(other), encoding="utf-8")
    refused = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--compare", str(a), str(b)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert refused.returncode == 2 and "seed differs" in refused.stderr
