"""Figures 15-17 (Appendix I): two-source matching at benchmark scale.

The appendix figures are worked examples (their exact numbers are
asserted in tests/core/test_two_source_examples.py).  This bench scales
the scenario up — an R×S linkage between two skewed product catalogues
— and reports the quantities the appendix dataflows illustrate:
per-reduce-task comparison counts, shuffle volumes and simulated
execution times for both dual-source strategies against a no-balancing
baseline.
"""

from __future__ import annotations

from repro.analysis.metrics import WorkloadStats
from repro.analysis.reporting import format_table
from repro.cluster.simulation import ClusterSpec
from repro.core.bdm import BlockDistributionMatrix
from repro.core.planning import (
    plan_bdm_job,
    plan_dual_blocksplit,
    plan_dual_pairrange,
)
from repro.core.two_source import DualSourceBDM
from repro.engine import simulate_planned_workflow
from repro.datasets.partitioning import distribute_block_sizes
from repro.datasets.skew import zipf_block_sizes

from conftest import NOISE_SIGMA, publish

R_ENTITIES = 60_000
S_ENTITIES = 90_000
BLOCKS = 1_500
R_PARTITIONS = 8
S_PARTITIONS = 12
REDUCE_TASKS = 80
NODES = 10


def build_dual_bdm() -> DualSourceBDM:
    r_sizes = zipf_block_sizes(R_ENTITIES, BLOCKS, 1.2)
    s_sizes = zipf_block_sizes(S_ENTITIES, BLOCKS, 1.2)
    r_matrix = distribute_block_sizes(r_sizes, R_PARTITIONS, seed=5)
    s_matrix = distribute_block_sizes(s_sizes, S_PARTITIONS, seed=6)
    keys = [f"b{k}" for k in range(BLOCKS)]
    rows = [
        r_matrix[k] + s_matrix[k]
        for k in range(BLOCKS)
        if sum(r_matrix[k]) + sum(s_matrix[k]) > 0
    ]
    keys = [keys[k] for k in range(BLOCKS) if sum(r_matrix[k]) + sum(s_matrix[k]) > 0]
    base = BlockDistributionMatrix(keys, rows)
    return DualSourceBDM(base, ["R"] * R_PARTITIONS + ["S"] * S_PARTITIONS)


def two_source_rows():
    bdm = build_dual_bdm()
    cluster = ClusterSpec(NODES)
    rows = []
    for name, planner in (
        ("blocksplit-2src", plan_dual_blocksplit),
        ("pairrange-2src", plan_dual_pairrange),
    ):
        plan = planner(bdm, REDUCE_TASKS)
        timeline = simulate_planned_workflow(
            plan,
            cluster,
            bdm_plan=plan_bdm_job(bdm, REDUCE_TASKS),
            comparison_noise_sigma=NOISE_SIGMA,
        )
        stats = WorkloadStats.from_workloads(plan.reduce_comparisons)
        rows.append(
            [
                name,
                plan.total_pairs,
                round(stats.imbalance, 3),
                plan.total_map_output_kv,
                round(timeline.execution_time, 1),
            ]
        )
    # No-balancing reference: whole blocks on hashed reduce tasks
    # (Basic semantics applied to the cross-source pair counts).
    from repro.mapreduce.job import stable_hash

    loads = [0] * REDUCE_TASKS
    for k in range(bdm.num_blocks):
        loads[stable_hash(bdm.key_of(k)) % REDUCE_TASKS] += bdm.block_pairs(k)
    stats = WorkloadStats.from_workloads(loads)
    rows.append(["basic (reference)", sum(loads), round(stats.imbalance, 3),
                 R_ENTITIES + S_ENTITIES, None])
    return bdm, rows


def test_fig15_17_two_sources(benchmark):
    bdm, rows = benchmark.pedantic(two_source_rows, rounds=1, iterations=1)
    text = format_table(
        ["strategy", "total R×S pairs", "imbalance (max/mean)",
         "map output KV", "simulated time [s]"],
        [[c if c is not None else "-" for c in row] for row in rows],
        title=(
            "Figures 15-17 — two-source linkage "
            f"(|R|={R_ENTITIES}, |S|={S_ENTITIES}, r={REDUCE_TASKS}, n={NODES})"
        ),
    )
    publish("FIG15-17 two-source matching", text)

    blocksplit, pairrange, basic = rows
    # Both strategies cover the identical pair total.
    assert blocksplit[1] == pairrange[1] == bdm.pairs()
    # PairRange is perfectly balanced; BlockSplit near-perfect; the
    # unbalanced reference is far off.
    assert pairrange[2] <= blocksplit[2] <= 1.5
    assert basic[2] > 5.0
