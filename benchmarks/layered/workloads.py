"""The six workloads: set-up, one timed run, one traced run, replays, checks.

Every workload offers the same five steps to ``harness.measure``:

``setup()``       build the inputs (timed from outside as ``setup_s``)
``run()``         one untraced run, exactly as a user would call the system
``traced_run()``  the same work with a span at every layer boundary
``replay()``      measurements repeated afterwards on the same inputs
``verify()``      output checks; a list of failure strings

Sizes are frozen in :data:`SIZES`: each is calibrated so that one timed
run takes 1–1.7 s on a 2-core box (the driver's time cap leaves ~25 s
per invocation, which has to hold set-up, warm-up, at least five timed
runs and the checks).
"""

from __future__ import annotations

import gc
import hashlib
import json
import shutil
import socket
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import corpus
import verify
from metrics import PARALLELISM
from tracing import EventSpans, TracedCsvSource, TracedMatcher, Tracer, traced_strategy

from repro.analysis.experiments import bdm_for_block_sizes, sweep_nodes
from repro.cluster.simulation import ClusterSpec
from repro.core.bdm import BdmJob, compute_bdm
from repro.core.planning import plan_bdm_job
from repro.core.strategy import get_strategy
from repro.datasets.loaders import save_entities_csv
from repro.engine import ERPipeline, ingest, load_state, save_state
from repro.engine.simulate import simulate_planned_workflow
from repro.er.blocking import PrefixBlocking
from repro.er.matching import ThresholdMatcher
from repro.io import CsvShardSource
from repro.io.columnar import ColumnarShardSource, write_columnar
from repro.mapreduce.external_shuffle import ExternalShuffle
from repro.mapreduce.job import JobConfig
from repro.mapreduce.runtime import LocalRuntime, execute_map_task, execute_reduce_task
from repro.mapreduce.shuffle import (
    group_presorted_entries,
    partition_map_output,
    shuffle_bucket,
)
from repro.mapreduce.transport import encode_message
from repro.mapreduce.types import make_partitions
from repro.serve import ERServer, ServeClient

STRATEGIES = ("basic", "blocksplit", "pairrange")

#: Frozen full sizes.  ``scaled`` derives the one-tenth sizes used for
#: the warm-up and for ``--smoke``.
SIZES: dict[str, dict[str, Any]] = {
    "dedup-skewed": {"entities": 1600, "blocks": 80},
    "wide-flat": {"blocks": 2400, "memory_budget": 1500, "shards": 8},
    "dedup-skewed-dist": {"entities": 1600, "blocks": 80},
    "served-small-jobs": {"jobs": 12, "entities": 250},
    "delta-ingest": {"base": 1000, "batch": 100, "batches": 6, "blocks": 64},
    "plan-sweep": {
        "ds1": {"entities": 114_000, "blocks": 2_800, "exponent": 1.2,
                "nodes": [1, 5, 10, 20]},
        "ds2": {"entities": 1_400_000, "blocks": 8_000, "exponent": 1.6,
                "nodes": [10, 20]},
    },
}


def scaled(sizes: dict[str, Any], factor: float) -> dict[str, Any]:
    """``sizes`` with every extensive quantity multiplied by ``factor``
    (counts of reduce tasks, shards, batches and node lists stay)."""
    keep = {"shards", "batches", "exponent", "nodes"}
    out: dict[str, Any] = {}
    for key, value in sizes.items():
        if isinstance(value, dict):
            out[key] = scaled(value, factor)
        elif key in keep or not isinstance(value, int):
            out[key] = value
        elif key == "jobs":
            out[key] = max(PARALLELISM, int(value * factor * 2))
        else:
            out[key] = max(8, int(value * factor))
    return out


@dataclass
class Run:
    """What one run produced, for the harness and the verifier."""

    wall_s: float
    pairs: int
    ops: int
    #: Run-specific payload handed to ``verify`` (results, states, …).
    payload: Any = None
    #: Extra untraced user-facing numbers (first_match_s, latencies).
    extra: dict[str, Any] = field(default_factory=dict)
    #: Per-layer metrics (traced runs only).
    layer: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def _submit(pipeline: ERPipeline, data, *, stream: bool, on_event=None):
    """Submit, optionally take the first streamed match, wait for the
    result.  Returns ``(result, wall_s, first_match_s)``."""
    start = time.perf_counter()
    execution = pipeline.submit(data, on_event=on_event)
    first = None
    if stream and next(execution.iter_matches(), None) is not None:
        first = time.perf_counter() - start
    result = execution.result()
    return result, time.perf_counter() - start, first


def _phase_metrics(tracer: Tracer, prefix: str = "mapreduce") -> dict[str, float]:
    """The six phase durations of the traced run, by metric name
    (``prefix`` is the one the run's :class:`EventSpans` used)."""
    out = {}
    for stage, label in (("bdm", "bdm"), ("matching", "match")):
        for phase in ("map", "shuffle", "reduce"):
            out[f"mapreduce.{label}_{phase}_s"] = tracer.total(
                f"{prefix}.{stage}.{phase}"
            )
    return out


def _matcher_metrics(matchers: Sequence[TracedMatcher], matches: int) -> dict[str, float]:
    """The ``er.*`` metrics summed over the run's matchers.  Each is
    fresh for its job, so its cumulative cache counters are the job's
    (what ``execution.matcher_stats()`` reports)."""
    kernel_s = sum(m.kernel_s for m in matchers)
    calls = sum(m.batch_calls for m in matchers)
    pairs = sum(m.pairs for m in matchers)
    return {
        "er.kernel_s": kernel_s,
        "er.prepare_s": sum(m.prepare_s for m in matchers),
        "er.batch_calls": calls,
        "er.pairs": pairs,
        "er.pairs_per_call": pairs / calls if calls else 0.0,
        "er.kernel_pairs_per_s": pairs / kernel_s if kernel_s else 0.0,
        "er.matches": matches,
        "er.cache_hits": sum(m.cache_hits for m in matchers),
        "er.cache_misses": sum(m.cache_misses for m in matchers),
    }


def _imbalance(values) -> float:
    values = list(values)
    mean = sum(values) / len(values) if values else 0.0
    return max(values) / mean if mean else 0.0


def _finish_trace(tracer: Tracer, root: int, named: tuple[str, ...]) -> dict[str, float]:
    """Wall, coverage and engine self time of the traced run ``root``.

    ``named`` are the top-level span names that count as named layers;
    everything else inside the run is ``engine.self_s``.
    """
    wall = tracer.duration(root)
    covered = sum(tracer.total(name) for name in named)
    return {
        "trace.wall_s": wall,
        "trace.coverage_share": covered / wall if wall else 0.0,
        "engine.self_s": wall - covered,
    }


class Workload:
    """Base: holds sizes, seed and the scratch directory."""

    name = ""

    def __init__(self, sizes: dict[str, Any], seed: int, workdir: Path, size_label: str):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.size_label = size_label
        #: Digest of the first run's output (see ``_check_digest``).
        self.output_digest: str | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self, *, measure_shutdown: bool = False) -> dict[str, float]:
        """Stop whatever ``setup`` started (processes, connections);
        idempotent.  ``measure_shutdown`` asks a workload with a server
        to time an unassisted shutdown (see :func:`stop_server`) and
        return it as a layer metric."""
        return {}

    def run(self) -> Run:
        raise NotImplementedError

    def traced_run(self, tracer: Tracer) -> Run:
        raise NotImplementedError

    def replay(self, tracer: Tracer, run: Run) -> dict[str, float]:
        """Layer metrics measured after the traced run, on its inputs."""
        return {}

    def verify(self, run: Run) -> list[str]:
        """Cheap checks made after every run."""
        raise NotImplementedError

    def verify_reference(self, run: Run) -> list[str]:
        """Checks against an independent recomputation (brute force,
        serial reference, full recompute); made once per invocation,
        after peak memory has been read."""
        return []

    def _check_digest(self, digest: str) -> list[str]:
        """Every run of one invocation must produce the first run's
        output; the first is checked against ``expected.json``."""
        if self.output_digest is None:
            self.output_digest = digest
            return verify.check_expected(
                verify.expected_key(self.name, self.seed, self.size_label), digest
            )
        if digest != self.output_digest:
            return [f"output digest changed between runs of {self.name}"]
        return []


# ---------------------------------------------------------------------------
# dedup-skewed and dedup-skewed-dist
# ---------------------------------------------------------------------------


class DedupSkewed(Workload):
    name = "dedup-skewed"
    strategy = "blocksplit"
    num_map_tasks = 4
    num_reduce_tasks = 16
    prefix_length = 3
    memory_budget: int | None = None
    distributed = False

    def setup(self) -> None:
        self.entities, blocks = corpus.skewed_corpus(
            self.sizes["entities"], self.sizes["blocks"], self.seed
        )
        self._index(blocks)

    def _index(self, blocks) -> None:
        self.blocks = [[e.entity_id for e in block] for block in blocks]
        self.titles = {e.entity_id: e["title"] for block in blocks for e in block}
        self.expected_pairs = corpus.pair_count([len(b) for b in blocks])

    def _input(self):
        return self.entities

    def _pipeline(self, strategy=None, matcher=None, *, serial: bool = False) -> ERPipeline:
        pipeline = ERPipeline(
            strategy or self.strategy,
            PrefixBlocking("title", self.prefix_length),
            matcher or ThresholdMatcher(),
            num_map_tasks=self.num_map_tasks,
            num_reduce_tasks=self.num_reduce_tasks,
            memory_budget=self.memory_budget,
        )
        if self.distributed and not serial:
            return pipeline.with_backend("distributed", num_workers=PARALLELISM)
        return pipeline

    def run(self) -> Run:
        result, wall, first = _submit(self._pipeline(), self._input(), stream=True)
        return Run(wall, result.total_comparisons(), 1, payload=result,
                   extra={"first_match_s": first})

    def traced_run(self, tracer: Tracer) -> Run:
        root = tracer.begin("run")
        spans = EventSpans(tracer, root)
        # Workers cannot import the benchmark's modules, so the
        # distributed run ships a plain matcher; its kernel time is
        # measured by the in-process replay instead.
        matcher = ThresholdMatcher() if self.distributed else TracedMatcher(tracer, spans)
        pipeline = self._pipeline(traced_strategy(self.strategy, tracer, root), matcher)
        data = self._traced_input(tracer, root)
        result, _, _ = _submit(pipeline, data, stream=False, on_event=spans.on_event)
        tracer.end(root)
        layer = _phase_metrics(tracer)
        layer["core.build_job_s"] = tracer.total("core.build_job")
        layer["core.plan_s"] = tracer.total("core.plan")
        if isinstance(matcher, TracedMatcher):
            layer.update(_matcher_metrics([matcher], len(result.matches)))
        layer["core.reduce_imbalance"] = _imbalance(result.reduce_comparisons())
        layer["core.basic_reduce_imbalance"] = _imbalance(
            get_strategy("basic").plan(result.bdm, self.num_reduce_tasks).reduce_comparisons
        )
        layer["mapreduce.map_output_records"] = result.map_output_kv()
        layer["mapreduce.replication"] = result.map_output_kv() / max(
            1, sum(task.input_records for task in result.job2.map_tasks)
        )
        layer.update(self._traced_extras(tracer, spans, data))
        layer.update(_finish_trace(
            tracer, root,
            ("io.csv_load", "mapreduce.bdm", "mapreduce.matching",
             "core.build_job", "core.plan"),
        ))
        return Run(tracer.duration(root), result.total_comparisons(), 1,
                   payload=result, layer=layer)

    def _traced_input(self, tracer: Tracer, root: int):
        return self.entities

    def _traced_extras(self, tracer: Tracer, spans: EventSpans, data) -> dict[str, float]:
        return {}

    # -- replays ------------------------------------------------------------

    def _partitions(self):
        return make_partitions(list(self.entities), self.num_map_tasks)

    def replay(self, tracer: Tracer, run: Run) -> dict[str, float]:
        """Re-run Job 2's task units in process, on the run's inputs.

        Gives the shuffle's sort/group time, the spill counts, and — for
        the distributed workload — the size and encode time of every
        frame the driver and workers exchange plus each unit's compute
        time.  All spans are marked ``replayed``.
        """
        blocking = PrefixBlocking("title", self.prefix_length)
        r = self.num_reduce_tasks
        matcher = TracedMatcher(tracer, replayed=True)
        partitions = self._partitions()
        bdm, _, annotated = compute_bdm(
            LocalRuntime(), partitions, blocking, num_reduce_tasks=r
        )
        job2 = get_strategy(self.strategy).build_job(
            bdm, matcher, r, blocking=blocking, batch_kernel=True
        )
        frames = _FrameAccount(tracer) if self.distributed else None
        if frames is not None:
            # Job 1's units only matter for what crosses the wire.
            _replay_job(BdmJob(blocking), partitions, r, tracer, frames)
        map_outputs, reduce_times = _replay_job(job2, annotated, r, tracer, frames)

        layer: dict[str, float] = {}
        if self.memory_budget is None:
            buckets = partition_map_output(job2, map_outputs, r)
            with tracer.span("mapreduce.group_sort", replayed=True) as span:
                for bucket in buckets:
                    shuffle_bucket(job2, bucket)
        else:
            with ExternalShuffle(
                job2, r, self.memory_budget, spill_dir=self.workdir / "replay-spill"
            ) as spill:
                for output in map_outputs:
                    spill.add_records(output)
                layer["mapreduce.spill_count"] = spill.spill_count
                layer["mapreduce.spilled_records"] = spill.spilled_records
                entries = [spill.bucket_entries(i) for i in range(r)]
            with tracer.span("mapreduce.group_sort", replayed=True) as span:
                for bucket in entries:
                    group_presorted_entries(job2, bucket)
        layer["mapreduce.group_sort_s"] = tracer.duration(span)
        if self.distributed:
            layer.update(frames.metrics())
            layer["engine.task_compute_s"] = tracer.total("engine.task_unit", replayed=True)
            layer["engine.dist_task_imbalance"] = _imbalance(reduce_times)
            layer["engine.dist_efficiency"] = layer["engine.task_compute_s"] / (
                PARALLELISM * run.layer["trace.wall_s"]
            )
            # The traced distributed run ships a plain matcher; the
            # replay's kernel counters stand in for it.
            layer.update(_matcher_metrics([matcher], len(run.payload.matches)))
        else:
            layer["core.reduce_self_s"] = (
                run.layer["mapreduce.match_reduce_s"]
                - run.layer["er.kernel_s"]
                - run.layer["er.prepare_s"]
                - layer["mapreduce.group_sort_s"]
            )
        return layer

    # -- checks -------------------------------------------------------------

    def verify(self, run: Run) -> list[str]:
        result = run.payload
        return verify.check_comparisons(
            result, self.expected_pairs
        ) + self._check_digest(verify.digest(result.matches))

    def verify_reference(self, run: Run) -> list[str]:
        result = run.payload
        failures = verify.check_sample(
            result.matches, self.blocks, self.titles, self.seed
        )
        if self.distributed:
            failures += verify.check_equal_results(
                self.name, result, self._pipeline(serial=True).run(self._input())
            )
        return failures


class _FrameAccount:
    """Sizes and encode time of the frames a distributed run exchanges."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.task_bytes = 0
        self.result_bytes = 0
        self._next_id = 0

    def task(self, unit: str, args: tuple) -> None:
        with self.tracer.span("engine.dist_encode", replayed=True):
            frame = encode_message(("task", self._next_id, unit, args))
        self.task_bytes += len(frame)

    def result(self, result) -> None:
        with self.tracer.span("engine.dist_encode", replayed=True):
            frame = encode_message(("result", self._next_id, result))
        self.result_bytes += len(frame)
        self._next_id += 1

    def metrics(self) -> dict[str, float]:
        return {
            "engine.dist_task_bytes": self.task_bytes,
            "engine.dist_result_bytes": self.result_bytes,
            "engine.dist_encode_s": self.tracer.total("engine.dist_encode", replayed=True),
        }


def _replay_job(job, partitions, r: int, tracer: Tracer, frames: _FrameAccount | None):
    """Run ``job``'s map and reduce units in process, one replayed span
    each; returns the map outputs and the reduce units' durations."""
    config = JobConfig(num_map_tasks=len(partitions), num_reduce_tasks=r)
    map_outputs = []
    for partition in partitions:
        if frames is not None:
            frames.task("map", (job, config, partition))
        with tracer.span("engine.task_unit", replayed=True):
            result = execute_map_task(job, config, partition)
        if frames is not None:
            frames.result(result)
        map_outputs.append(result.output)
    reduce_times = []
    for index, bucket in enumerate(partition_map_output(job, map_outputs, r)):
        if frames is not None:
            frames.task("reduce", (job, config, index, bucket, False))
        with tracer.span("engine.task_unit", replayed=True) as span:
            result = execute_reduce_task(job, config, index, bucket)
        reduce_times.append(tracer.duration(span))
        if frames is not None:
            frames.result(result)
    return map_outputs, reduce_times


class DedupSkewedDist(DedupSkewed):
    name = "dedup-skewed-dist"
    distributed = True

    def _traced_extras(self, tracer, spans, data) -> dict[str, float]:
        run_start = tracer.spans[spans.root]["start"]
        tasks = [s for s in tracer.spans if s["name"].endswith(".task")]
        return {
            "engine.dist_first_task_s": spans.first_task_finished - run_start,
            "engine.dist_task_driver_s": sum(s["end"] - s["start"] for s in tasks),
        }


# ---------------------------------------------------------------------------
# wide-flat
# ---------------------------------------------------------------------------


class WideFlat(DedupSkewed):
    name = "wide-flat"
    strategy = "pairrange"
    prefix_length = 4

    def setup(self) -> None:
        self.memory_budget = self.sizes["memory_budget"]
        self.num_map_tasks = self.sizes["shards"]
        entities, blocks = corpus.wide_flat_corpus(self.sizes["blocks"], self.seed)
        self._index(blocks)
        self.csv_path = self.workdir / "wide-flat.csv"
        save_entities_csv(entities, self.csv_path)

    def _input(self):
        return CsvShardSource(self.csv_path, self.num_map_tasks)

    def _traced_input(self, tracer: Tracer, root: int):
        return TracedCsvSource(self.csv_path, self.num_map_tasks, tracer, root)

    def _traced_extras(self, tracer, spans, data) -> dict[str, float]:
        return {
            "io.csv_load_s": tracer.total("io.csv_load"),
            "io.records": data.records,
        }

    def _partitions(self):
        return self._input().as_partitions()

    def replay(self, tracer: Tracer, run: Run) -> dict[str, float]:
        layer = super().replay(tracer, run)
        packed = self.workdir / "wide-flat.columnar"
        shutil.rmtree(packed, ignore_errors=True)
        write_columnar(self._input(), packed)
        source = ColumnarShardSource(packed)
        try:
            with tracer.span("io.columnar_load", replayed=True) as span:
                source.as_partitions()
        finally:
            source.close()
        layer["io.columnar_load_s"] = tracer.duration(span)
        return layer


# ---------------------------------------------------------------------------
# served-small-jobs
# ---------------------------------------------------------------------------


def stop_server(server: ERServer, *, wake: bool) -> float:
    """``server.shutdown()``; returns how long it took.

    An idle ``ERServer`` takes 10 s to shut down today: its accept
    thread is not woken by closing the listener, so
    ``_accept_thread.join(timeout=10)`` expires (serve/server.py).  With
    ``wake`` a helper thread keeps connecting to the listening address
    until shutdown returns, which unblocks the accept — so that the
    benchmark's repeated set-ups fit the time cap.  ``shutdown_s`` is
    measured with ``wake=False``.
    """
    address = server.address
    done = threading.Event()

    def poke() -> None:
        while not done.wait(0.02):
            try:
                socket.create_connection(address, timeout=0.5).close()
            except OSError:
                pass

    helper = threading.Thread(target=poke, name="bench-shutdown-wake")
    if wake:
        helper.start()
    start = time.perf_counter()
    try:
        server.shutdown()
    finally:
        elapsed = time.perf_counter() - start
        done.set()
        if wake:
            helper.join()
    return elapsed


class ServedSmallJobs(Workload):
    name = "served-small-jobs"
    server: ERServer | None = None
    clients: Sequence[ServeClient] = ()

    def setup(self) -> None:
        self.jobs = corpus.small_job_corpora(
            self.sizes["jobs"], self.sizes["entities"], self.seed
        )
        self.expected_pairs = [
            corpus.pair_count([len(block) for block in blocks])
            for _, blocks in self.jobs
        ]
        self.log_path = self.workdir / "workload.jsonl"
        self.log_path.unlink(missing_ok=True)
        start = time.perf_counter()
        self.server = ERServer(
            num_workers=PARALLELISM, workload_log=self.log_path
        ).start()
        self.start_s = time.perf_counter() - start
        self.clients = [self._client() for _ in range(PARALLELISM)]

    def _client(self, on_event=None) -> ServeClient:
        host, port = self.server.address
        return ServeClient(host, port, token=self.server.token, on_event=on_event)

    def teardown(self, *, measure_shutdown: bool = False) -> dict[str, float]:
        for client in self.clients:
            client.close()
        self.clients = ()
        if self.server is None:
            return {}
        server, self.server = self.server, None
        elapsed = stop_server(server, wake=not measure_shutdown)
        return {"shutdown_s": elapsed} if measure_shutdown else {}

    @staticmethod
    def _pipeline() -> ERPipeline:
        return ERPipeline(
            "blocksplit", PrefixBlocking("title"), ThresholdMatcher(),
            num_map_tasks=4, num_reduce_tasks=8,
        )

    def _round(self, clients, per_job=None):
        """One closed-loop round: client ``c`` submits jobs ``c, c+P, …``,
        each after the previous result.  Returns wall, results and
        per-job ``(index, latency, job_id)``."""
        results: dict[int, Any] = {}
        timings: list[tuple[int, float, int]] = []
        errors: list[str] = []

        def loop(c: int) -> None:
            for index in range(c, len(self.jobs), len(clients)):
                try:
                    start = time.perf_counter()
                    if per_job is not None:
                        per_job(c, index, "begin")
                    execution = clients[c].submit(self._pipeline(), self.jobs[index][0])
                    if per_job is not None:
                        per_job(c, index, "accepted")
                    results[index] = execution.result()
                    timings.append((index, time.perf_counter() - start, execution.job_id))
                    if per_job is not None:
                        per_job(c, index, "end")
                # Counted, not swallowed: a refused or failed job is an
                # operation that failed.
                except Exception as exc:  # noqa: BLE001
                    errors.append(f"job {index}: {exc!r}")

        threads = [
            threading.Thread(target=loop, args=(c,), name=f"bench-client-{c}")
            for c in range(len(clients))
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start, results, timings, errors

    def run(self) -> Run:
        wall, results, timings, errors = self._round(self.clients)
        pairs = sum(result.total_comparisons() for result in results.values())
        return Run(
            wall, pairs, len(self.jobs), payload=results, failures=errors,
            extra={"latencies": [latency for _, latency, _ in timings]},
        )

    def traced_run(self, tracer: Tracer) -> Run:
        root = tracer.begin("run")
        count = len(self.clients)
        holders: list[dict[str, Any]] = [{} for _ in range(count)]

        def listener(c: int):
            return lambda event: holders[c]["spans"].on_event(event)

        clients = [self._client(listener(c)) for c in range(count)]
        client_spans = [tracer.begin("serve.client", root) for _ in range(count)]

        def per_job(c: int, index: int, what: str) -> None:
            holder = holders[c]
            if what == "begin":
                holder["job"] = tracer.begin("serve.job", client_spans[c])
                holder["spans"] = EventSpans(tracer, holder["job"], prefix="serve.stage")
                holder["submit"] = tracer.begin("serve.submit", holder["job"])
            elif what == "accepted":
                tracer.end(holder["submit"])
            else:
                tracer.end(holder["job"])

        try:
            wall, results, timings, errors = self._round(clients, per_job)
        finally:
            for client in clients:
                client.close()
        for span in client_spans:
            tracer.end(span)
        tracer.end(root)

        logged = self._logged_walls({job_id for _, _, job_id in timings})
        overheads = [
            latency - logged[job_id] for _, latency, job_id in timings if job_id in logged
        ]
        requests = [
            len(encode_message(("submit", 0, self._pipeline().build_request(entities))))
            for entities, _ in self.jobs
        ]
        # Coverage is per client timeline: how much of a client's round
        # its job spans account for (the rest is the loop's own work).
        job_total = tracer.total("serve.job")
        pairs = sum(result.total_comparisons() for result in results.values())
        layer = {
            "trace.wall_s": wall,
            "trace.coverage_share": job_total / (count * wall) if wall else 0.0,
            "engine.self_s": max(0.0, count * wall - job_total) / count,
            "serve.start_s": self.start_s,
            "serve.server_wall_p50_s": statistics.median(logged.values()) if logged else 0.0,
            "serve.overhead_p50_s": statistics.median(overheads) if overheads else 0.0,
            "serve.request_bytes_p50": statistics.median(requests),
            "er.matches": sum(len(result.matches) for result in results.values()),
            "er.pairs": pairs,
        }
        layer.update(_phase_metrics(tracer, "serve.stage"))
        return Run(wall, pairs, len(self.jobs), payload=results, layer=layer,
                   failures=errors)

    def _logged_walls(self, job_ids: set[int]) -> dict[int, float]:
        """Server-side ``wall_s`` per job from the JSONL workload log
        (the server writes a job's line just after sending its result,
        so the last lines may take a moment to appear)."""
        deadline = time.monotonic() + 2.0
        while True:
            walls = {}
            for line in self.log_path.read_text(encoding="utf-8").splitlines():
                entry = json.loads(line)
                if entry["job_id"] in job_ids:
                    walls[entry["job_id"]] = entry["wall_s"]
            if len(walls) == len(job_ids) or time.monotonic() > deadline:
                return walls
            time.sleep(0.02)

    def verify(self, run: Run) -> list[str]:
        results = run.payload
        failures = []
        if len(results) != len(self.jobs):
            failures.append(f"{len(self.jobs) - len(results)} job(s) returned no result")
        digests = []
        for index, result in sorted(results.items()):
            failures += verify.check_comparisons(result, self.expected_pairs[index])
            digests.append(verify.digest(result.matches))
        return failures + self._check_digest("|".join(digests))

    def verify_reference(self, run: Run) -> list[str]:
        failures = []
        for index, result in sorted(run.payload.items()):
            entities, blocks = self.jobs[index]
            failures += verify.check_equal_results(
                f"job {index}", result, self._pipeline().run(entities)
            )
            if index == 0:
                failures += verify.check_sample(
                    result.matches,
                    [[e.entity_id for e in block] for block in blocks],
                    {e.entity_id: e["title"] for e in entities},
                    self.seed,
                )
        return failures


# ---------------------------------------------------------------------------
# delta-ingest
# ---------------------------------------------------------------------------


class DeltaIngest(Workload):
    name = "delta-ingest"
    num_reduce_tasks = 16

    def setup(self) -> None:
        sizes = self.sizes
        self.base, self.batches, blocks = corpus.delta_corpus(
            sizes["base"], sizes["batch"], sizes["batches"], sizes["blocks"], self.seed
        )
        self.block_sizes = [len(block) for block in blocks]
        self.base_dir = self.workdir / "delta-base"
        self.work_dir = self.workdir / "delta-work"
        shutil.rmtree(self.base_dir, ignore_errors=True)
        result, _ = ingest(self._pipeline(), self.base, self.base_dir)
        self.base_comparisons = result.total_comparisons()
        self._full = None
        self._first_comparisons = None

    def _pipeline(self, strategy=None, matcher=None) -> ERPipeline:
        return ERPipeline(
            strategy or "pairrange", PrefixBlocking("title"),
            matcher or ThresholdMatcher(),
            num_map_tasks=4, num_reduce_tasks=self.num_reduce_tasks,
        )

    def _fresh_copy(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)
        shutil.copytree(self.base_dir, self.work_dir)

    def run(self) -> Run:
        self._fresh_copy()
        gc.collect()
        start = time.perf_counter()
        comparisons = [
            ingest(self._pipeline(), batch, self.work_dir)[0].total_comparisons()
            for batch in self.batches
        ]
        wall = time.perf_counter() - start
        return Run(wall, sum(comparisons), len(self.batches), payload=comparisons)

    def traced_run(self, tracer: Tracer) -> Run:
        """The body of ``engine.incremental.ingest`` spelled out with its
        public parts, a span around each (``verify`` holds the outcome
        to the same checks as the untraced ``ingest`` runs)."""
        self._fresh_copy()
        gc.collect()
        root = tracer.begin("run")
        matchers = []
        comparisons = []
        matches = 0
        for batch in self.batches:
            step = tracer.begin("engine.ingest", root)
            spans = EventSpans(tracer, step)
            matcher = TracedMatcher(tracer, spans)
            matchers.append(matcher)
            pipeline = self._pipeline(traced_strategy("pairrange", tracer, step), matcher)
            with tracer.span("engine.state_load", step):
                state = load_state(self.work_dir)
            partitions = make_partitions(list(batch), pipeline.num_map_tasks)
            result = pipeline.submit_delta(
                partitions, state, on_event=spans.on_event
            ).result()
            with tracer.span("engine.state_advance", step):
                advanced = state.advanced(result, partitions, pipeline.blocking)
            with tracer.span("engine.state_save", step):
                save_state(advanced, self.work_dir)
            tracer.end(step)
            comparisons.append(result.total_comparisons())
            matches += len(result.matches)
        tracer.end(root)
        layer = _phase_metrics(tracer)
        layer.update(_matcher_metrics(matchers, matches))
        layer["core.build_job_s"] = tracer.total("core.build_job")
        layer["core.plan_s"] = tracer.total("core.plan")
        layer["engine.state_load_s"] = tracer.total("engine.state_load")
        layer["engine.state_advance_s"] = tracer.total("engine.state_advance")
        layer["engine.state_save_s"] = tracer.total("engine.state_save")
        layer["engine.state_bytes"] = sum(
            path.stat().st_size for path in self.work_dir.iterdir()
        )
        layer["core.reduce_imbalance"] = _imbalance(result.reduce_comparisons())
        layer["mapreduce.map_output_records"] = result.map_output_kv()
        layer.update(_finish_trace(
            tracer, root,
            ("engine.state_load", "engine.state_advance", "engine.state_save",
             "mapreduce.bdm", "mapreduce.matching", "core.build_job", "core.plan"),
        ))
        return Run(tracer.duration(root), sum(comparisons), len(self.batches),
                   payload=comparisons, layer=layer)

    def replay(self, tracer: Tracer, run: Run) -> dict[str, float]:
        full = self._full_recompute()
        return {
            "engine.delta_pairs_share": sum(run.payload) / full.total_comparisons(),
        }

    def _full_recompute(self):
        if self._full is None:
            everything = list(self.base) + [e for batch in self.batches for e in batch]
            self._full = self._pipeline().run(everything)
        return self._full

    def verify(self, run: Run) -> list[str]:
        """The persisted matches and the per-ingest comparison counts
        repeat from run to run."""
        failures = self._check_digest(verify.digest(load_state(self.work_dir).matches))
        if self._first_comparisons is None:
            self._first_comparisons = run.payload
        elif run.payload != self._first_comparisons:
            failures.append("delta comparisons changed between runs")
        return failures

    def verify_reference(self, run: Run) -> list[str]:
        full = self._full_recompute()
        failures = []
        if full.total_comparisons() != corpus.pair_count(self.block_sizes):
            failures.append("full recompute disagrees with the harness's pair count")
        return failures + verify.check_delta(
            self.base_comparisons, run.payload, load_state(self.work_dir).matches, full
        )


# ---------------------------------------------------------------------------
# plan-sweep
# ---------------------------------------------------------------------------


class PlanSweep(Workload):
    name = "plan-sweep"

    def setup(self) -> None:
        self.datasets = {
            label: (
                corpus.zipf_block_sizes(d["entities"], d["blocks"], d["exponent"]),
                d["nodes"],
            )
            for label, d in self.sizes.items()
        }

    def run(self) -> Run:
        start = time.perf_counter()
        sweeps = {
            label: sweep_nodes(STRATEGIES, nodes, block_sizes, seed=self.seed)
            for label, (block_sizes, nodes) in self.datasets.items()
        }
        wall = time.perf_counter() - start
        points = [
            (label, n, name, run.total_pairs, run.execution_time,
             tuple(run.plan.reduce_comparisons))
            for label, sweep in sweeps.items()
            for n, by_strategy in sweep.items()
            for name, run in by_strategy.items()
        ]
        return Run(wall, sum(p[3] for p in points), len(points), payload=points)

    def traced_run(self, tracer: Tracer) -> Run:
        """``sweep_nodes`` spelled out (m = 2n, r = 10n), a span around
        the BDM builder, each planner and the simulator."""
        root = tracer.begin("run")
        points = []
        for label, (block_sizes, nodes) in self.datasets.items():
            for n in nodes:
                with tracer.span("core.analytic_bdm", root):
                    bdm = bdm_for_block_sizes(block_sizes, 2 * n, seed=self.seed)
                for name in STRATEGIES:
                    strategy = get_strategy(name)
                    with tracer.span(f"core.plan_{name}", root):
                        plan = strategy.plan(bdm, 10 * n)
                    with tracer.span("cluster.simulate", root):
                        bdm_plan = (
                            plan_bdm_job(bdm, 10 * n) if strategy.requires_bdm else None
                        )
                        timeline = simulate_planned_workflow(
                            plan, ClusterSpec(num_nodes=n), bdm_plan=bdm_plan
                        )
                    points.append((label, n, name, plan.total_pairs,
                                   timeline.execution_time,
                                   tuple(plan.reduce_comparisons)))
        tracer.end(root)
        names = ("core.analytic_bdm", "cluster.simulate") + tuple(
            f"core.plan_{name}" for name in STRATEGIES
        )
        layer = {f"{name}_s": tracer.total(name) for name in names}
        layer.update(_finish_trace(tracer, root, names))
        return Run(tracer.duration(root), sum(p[3] for p in points), len(points),
                   payload=points, layer=layer)

    def verify(self, run: Run) -> list[str]:
        failures = []
        h = []
        for label, n, name, total_pairs, execution_time, reduce_comparisons in run.payload:
            expected = corpus.pair_count(self.datasets[label][0])
            if total_pairs != expected or sum(reduce_comparisons) != expected:
                failures.append(
                    f"{label} n={n} {name}: plan covers {sum(reduce_comparisons)} "
                    f"pairs, expected {expected}"
                )
            if not execution_time > 0:
                failures.append(f"{label} n={n} {name}: no simulated time")
            h.append(f"{label}|{n}|{name}|{execution_time:.6f}|{reduce_comparisons}")
        failures += self._check_digest(
            hashlib.sha256("\n".join(h).encode("utf-8")).hexdigest()
        )
        return failures


WORKLOAD_CLASSES: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (DedupSkewed, WideFlat, DedupSkewedDist, ServedSmallJobs,
                DeltaIngest, PlanSweep)
}
