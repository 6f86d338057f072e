"""Ablation: the BDM job's combiner (the paper's footnote 2).

Aggregating blocking-key counts per map task before the shuffle shrinks
Job 1's shuffle volume from one KV per *entity* to one KV per distinct
(block, partition) cell.  This bench quantifies the reduction and its
(small) effect on end-to-end time at DS1 scale.
"""

from __future__ import annotations

from repro.analysis.experiments import bdm_for_block_sizes
from repro.analysis.reporting import format_table
from repro.cluster.simulation import ClusterSpec
from repro.core.planning import plan_bdm_job, plan_blocksplit
from repro.engine import simulate_planned_workflow

from conftest import ds1_block_sizes, publish


def combiner_rows():
    bdm = bdm_for_block_sizes(list(ds1_block_sizes()), 20, seed=13)
    plan = plan_blocksplit(bdm, 100)
    cluster = ClusterSpec(10)
    rows = []
    for label, use_combiner in (("with combiner", True), ("without combiner", False)):
        bdm_plan = plan_bdm_job(bdm, 100, use_combiner=use_combiner)
        timeline = simulate_planned_workflow(
            plan, cluster, bdm_plan=bdm_plan
        )
        rows.append(
            [
                label,
                sum(bdm_plan.map_output_kv),
                round(timeline.jobs[0].execution_time, 1),
                round(timeline.execution_time, 1),
            ]
        )
    return rows


def test_ablation_bdm_combiner(benchmark):
    rows = benchmark.pedantic(combiner_rows, rounds=1, iterations=1)
    text = format_table(
        ["configuration", "job1 shuffle KV", "job1 time [s]", "workflow time [s]"],
        rows,
        title="Ablation — BDM combiner (DS1, m=20, r=100, n=10)",
    )
    publish("ABLATION-COMBINER bdm combiner", text)

    with_combiner, without_combiner = rows
    # The combiner collapses 114k entity KVs to <= b*m distinct cells.
    assert with_combiner[1] < without_combiner[1]
    assert with_combiner[1] <= 2_800 * 20
    assert without_combiner[1] == 114_000
    # Job 1 gets faster; the end-to-end effect is small (reduce-bound).
    assert with_combiner[2] <= without_combiner[2]
