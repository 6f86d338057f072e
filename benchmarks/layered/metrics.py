"""The benchmark's frozen names: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repo root repeats the names, units, direction
and bounds (its schema has no room for more); this module is the one
place that also records *which end-to-end metric on which workload a
layer metric is expected to move*.  ``test_selfcheck.py`` asserts that
the two agree.
"""

from __future__ import annotations

from typing import NamedTuple

#: Default seed and the held-out seed (never used while sizing the
#: workloads); ``expected.json`` holds match digests for both.
DEFAULT_SEED = 20120401
HELD_OUT_SEED = 77001

#: Worker processes / client connections: fixed at 2 whatever the box;
#: all load comes from the one benchmark process.
PARALLELISM = 2


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end: regression bound (share of the parent's median).
    #: Per-layer: ``None`` (no verdict).
    bound: float | None
    #: What it measures / which end-to-end metric and workload it moves.
    note: str


#: Why each workload exists (one line; the README has the long form).
WORKLOADS: dict[str, str] = {
    "dedup-skewed": (
        "Zipf-1.2 blocks, in memory, blocksplit, serial: the pair kernel does "
        "~95% of the work in a few hundred large batches"
    ),
    "wide-flat": (
        "thousands of tiny blocks from CSV shards, pairrange, spilling shuffle: "
        "io, map, shuffle and per-group bookkeeping dominate; kernel sees tiny batches"
    ),
    "dedup-skewed-dist": (
        "dedup-skewed on the distributed backend, 2 workers spawned inside the "
        "run: makespan, frame encode, ship and result return show"
    ),
    "served-small-jobs": (
        "2 closed-loop clients submit small jobs to one ERServer with 2 workers: "
        "request ship, queue wait, event forwarding and result return dominate"
    ),
    "delta-ingest": (
        "6 durable incremental ingests into a persisted corpus: cross pair specs, "
        "delta planning and state load/save with fsync at every step"
    ),
    "plan-sweep": (
        "no execution: DS1/DS2-shaped block sizes through the BDM builder, the three "
        "planners and the cluster simulator; the kernel does nothing"
    ),
}

#: Metrics a user of the system sees.  The driver's contract wants every
#: one of them on every workload and never 0, so only the four that all
#: six workloads share are here; the workload-specific user-facing
#: metrics of ISSUE 11 (first_match_s, job_latency_p50_s, …) are in
#: LAYER below, measured with tracing off all the same.
END_TO_END: tuple[Metric, ...] = (
    Metric("wall_s", "s", "lower", 0.12,
           "submit to complete result of one run (six ingests / one round of "
           "jobs / one sweep), median of the timed runs; verification untimed"),
    Metric("pairs_per_s", "1/s", "higher", 0.12,
           "exact comparison count of one run (planned pairs on plan-sweep) "
           "over wall_s"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           "largest resident set of any single process of the workload's "
           "process tree (ru_maxrss), read after the timed runs"),
    Metric("setup_s", "s", "lower", 0.25,
           "everything before timing: corpus generation, CSV write, base "
           "ingest, server and pool start; median of three set-ups"),
)

_S = "s"
_N = "count"
_R = "ratio"

#: Per-layer metrics (layer = package under src/repro/).  ``_s`` are
#: seconds from the traced run (or a replay after it), the rest are
#: counts that repeat exactly.  0 where a workload has no such layer.
LAYER: tuple[Metric, ...] = (
    # -- workload-specific user-facing metrics, measured with tracing off
    Metric("first_match_s", _S, "lower", None,
           "submit to first pair from iter_matches(); dedup-skewed(-dist), wide-flat"),
    Metric("job_latency_p50_s", _S, "lower", None,
           "client-side submit-to-result latency, median over all jobs of the "
           "timed rounds; served-small-jobs"),
    Metric("job_latency_p90_s", _S, "lower", None,
           "same, 90th percentile; served-small-jobs"),
    Metric("jobs_per_s", "1/s", "higher", None,
           "jobs of a round over its wall_s; served-small-jobs"),
    Metric("shutdown_s", _S, "lower", None,
           "ERServer.shutdown() on the idle server, no wake-up help, one "
           "sample; served-small-jobs"),
    # -- the traced run as a whole
    Metric("trace.wall_s", _S, "lower", None, "wall time of the traced run"),
    Metric("trace.overhead_share", _R, "lower", None,
           "(traced wall - untraced median) / untraced median"),
    Metric("trace.coverage_share", _R, "higher", None,
           "named spans (all but engine.self_s) over traced wall"),
    # -- io
    Metric("io.csv_load_s", _S, "lower", None,
           "CsvShardSource.as_partitions(); moves wall_s, first_match_s on wide-flat"),
    Metric("io.records", _N, "lower", None, "records loaded by it"),
    Metric("io.columnar_load_s", _S, "lower", None,
           "same corpus through write_columnar + ColumnarShardSource (replayed); "
           "moves nothing today"),
    # -- mapreduce
    Metric("mapreduce.bdm_map_s", _S, "lower", None,
           "Job 1 map phase; bounds first_match_s"),
    Metric("mapreduce.bdm_shuffle_s", _S, "lower", None, "Job 1 shuffle phase"),
    Metric("mapreduce.bdm_reduce_s", _S, "lower", None, "Job 1 reduce phase"),
    Metric("mapreduce.match_map_s", _S, "lower", None,
           "Job 2 map phase; moves wall_s on wide-flat"),
    Metric("mapreduce.match_shuffle_s", _S, "lower", None,
           "Job 2 shuffle phase; moves wall_s on wide-flat"),
    Metric("mapreduce.match_reduce_s", _S, "lower", None,
           "Job 2 reduce phase (kernel inside); moves wall_s everywhere it runs"),
    Metric("mapreduce.map_output_records", _N, "lower", None,
           "Job 2 map output; moves wall_s, peak_rss_mb on wide-flat"),
    Metric("mapreduce.replication", _R, "lower", None,
           "Job 2 map output over its input records"),
    Metric("mapreduce.spill_count", _N, "lower", None,
           "spills when Job 2's map output is replayed through ExternalShuffle"),
    Metric("mapreduce.spilled_records", _N, "lower", None, "records in those spills"),
    Metric("mapreduce.group_sort_s", _S, "lower", None,
           "shuffle_bucket / group_presorted_entries over the replayed reduce "
           "buckets; moves wall_s on wide-flat"),
    # -- core
    Metric("core.build_job_s", _S, "lower", None,
           "strategy.build_job / build_delta_job; moves wall_s on wide-flat, delta-ingest"),
    Metric("core.plan_s", _S, "lower", None,
           "strategy.plan / plan_delta inside the run; same"),
    Metric("core.reduce_self_s", _S, "lower", None,
           "match_reduce_s - er.kernel_s - er.prepare_s - group_sort_s: the "
           "strategies' own reduce code; moves wall_s on wide-flat"),
    Metric("core.reduce_imbalance", _R, "lower", None,
           "max over mean comparisons per reduce task; moves wall_s on "
           "dedup-skewed-dist only"),
    Metric("core.basic_reduce_imbalance", _R, "lower", None,
           "the same from the basic strategy's plan on the same BDM"),
    Metric("core.analytic_bdm_s", _S, "lower", None,
           "block sizes to BDM; moves wall_s on plan-sweep only"),
    Metric("core.plan_basic_s", _S, "lower", None, "basic planner; plan-sweep"),
    Metric("core.plan_blocksplit_s", _S, "lower", None, "blocksplit planner; plan-sweep"),
    Metric("core.plan_pairrange_s", _S, "lower", None, "pairrange planner; plan-sweep"),
    # -- cluster
    Metric("cluster.simulate_s", _S, "lower", None,
           "plan_bdm_job + cluster simulation; plan-sweep"),
    # -- er
    Metric("er.kernel_s", _S, "lower", None,
           "time in Matcher.match_batch; moves wall_s, pairs_per_s on "
           "dedup-skewed(-dist), half as strongly on wide-flat, delta-ingest; "
           "must not move plan-sweep"),
    Metric("er.batch_calls", _N, "lower", None, "match_batch calls"),
    Metric("er.pairs", _N, "lower", None, "pairs handed to match_batch"),
    Metric("er.pairs_per_call", _R, "higher", None, "er.pairs / er.batch_calls"),
    Metric("er.kernel_pairs_per_s", "1/s", "higher", None, "er.pairs / er.kernel_s"),
    Metric("er.prepare_s", _S, "lower", None, "time in Matcher.prepare"),
    Metric("er.matches", _N, "higher", None, "matches of the run"),
    Metric("er.cache_hits", _N, "higher", None, "cache hits of the run's fresh matcher (= matcher_stats().cache_hits)"),
    Metric("er.cache_misses", _N, "lower", None, "its cache misses"),
    # -- engine
    Metric("engine.self_s", _S, "lower", None,
           "traced wall minus all named spans (request building, partitioning, "
           "result assembly); moves wall_s on served-small-jobs, wide-flat"),
    Metric("engine.dist_first_task_s", _S, "lower", None,
           "submit to first task-finished: spawn, hello, first map task; "
           "moves wall_s on dedup-skewed-dist only (as do all engine.dist_*)"),
    Metric("engine.dist_task_bytes", "B", "lower", None,
           "encoded size of every task unit of both jobs (replayed)"),
    Metric("engine.dist_result_bytes", "B", "lower", None,
           "encoded size of every task result (replayed)"),
    Metric("engine.dist_encode_s", _S, "lower", None,
           "encode_message over those units and results (replayed)"),
    Metric("engine.task_compute_s", _S, "lower", None,
           "the same units run in process (replayed)"),
    Metric("engine.dist_task_driver_s", _S, "lower", None,
           "sum of task-started to task-finished as the driver sees it"),
    Metric("engine.dist_task_imbalance", _R, "lower", None,
           "max over mean replayed reduce-task time"),
    Metric("engine.dist_efficiency", _R, "higher", None,
           "task_compute_s / (workers x traced wall)"),
    Metric("engine.state_load_s", _S, "lower", None,
           "load_state over the six ingests; moves wall_s on delta-ingest only"),
    Metric("engine.state_advance_s", _S, "lower", None,
           "CorpusState.advanced (re-annotation, BDM recount) over them"),
    Metric("engine.state_save_s", _S, "lower", None, "save_state (fsync) over them"),
    Metric("engine.state_bytes", "B", "lower", None, "state.json + matches.log at the end"),
    Metric("engine.delta_pairs_share", _R, "lower", None,
           "delta comparisons over those of a full recompute"),
    # -- serve
    Metric("serve.start_s", _S, "lower", None, "ERServer.start(); part of setup_s"),
    Metric("serve.server_wall_p50_s", _S, "lower", None,
           "median wall_s of the traced round's jobs in the JSONL workload log"),
    Metric("serve.overhead_p50_s", _S, "lower", None,
           "median client latency minus server wall per job; moves "
           "job_latency_p50_s, jobs_per_s"),
    Metric("serve.request_bytes_p50", "B", "lower", None,
           "median encode_message size of the built requests"),
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
LAYER_NAMES = tuple(m.name for m in LAYER)
