"""Figure 10: execution times vs. number of reduce tasks (DS1).

Paper setup: DS1, n=10 nodes, m=20, r from 20 to 160.

Paper findings this bench reproduces:

* Basic is far slower throughout (factor ≈ 6 at r=160 in the paper;
  the exact factor depends on the largest block's pair share) and does
  not benefit from more reduce tasks — its time is floored by the
  largest block and can even *peak* when two large blocks hash to the
  same reduce task;
* BlockSplit and PairRange improve with more reduce tasks (finer
  granularity averages out computational skew);
* the ~35 s BDM overhead is included in the balanced strategies' times.
"""

from __future__ import annotations

from repro.analysis.experiments import bdm_for_block_sizes, sweep_reduce_tasks
from repro.analysis.reporting import format_series

from conftest import ALL_STRATEGIES, NOISE_SIGMA, ds1_block_sizes, publish

REDUCE_TASKS = [20, 40, 60, 80, 100, 120, 140, 160]


def figure10_series():
    bdm = bdm_for_block_sizes(list(ds1_block_sizes()), 20, seed=13)
    results = sweep_reduce_tasks(
        ALL_STRATEGIES,
        REDUCE_TASKS,
        bdm,
        num_nodes=10,
        comparison_noise_sigma=NOISE_SIGMA,
    )
    series = {
        name: [round(results[r][name].execution_time, 1) for r in REDUCE_TASKS]
        for name in ALL_STRATEGIES
    }
    return results, series


def test_fig10_reduce_tasks(benchmark):
    results, series = benchmark.pedantic(figure10_series, rounds=1, iterations=1)
    text = format_series(
        "r",
        REDUCE_TASKS,
        series,
        title="Figure 10 — execution time [s] vs. reduce tasks (DS1, n=10, m=20)",
    )
    publish("FIG10 reduce tasks", text)

    basic = series["basic"]
    blocksplit = series["blocksplit"]
    pairrange = series["pairrange"]
    # Balanced strategies beat Basic at every r; by a large factor at r=160.
    for i in range(len(REDUCE_TASKS)):
        assert blocksplit[i] < basic[i]
        assert pairrange[i] < basic[i]
    assert basic[-1] > 5 * blocksplit[-1]
    # Basic gains essentially nothing from r=20 -> r=160.
    assert min(basic) > 0.5 * max(basic)
    # The balanced strategies benefit from more reduce tasks: their
    # best configuration beats their r=20 configuration.
    assert min(blocksplit) < blocksplit[0]
    assert min(pairrange) < pairrange[0]
    # The two balanced strategies stay within ~15% of each other.
    for bs, pr in zip(blocksplit, pairrange):
        assert abs(bs - pr) / min(bs, pr) < 0.15

    # §VI-B: the BDM job overhead included in balanced times is ~35 s.
    from repro.cluster.simulation import ClusterSpec
    from repro.core.planning import plan_bdm_job, plan_blocksplit
    from repro.engine import simulate_planned_workflow

    bdm = bdm_for_block_sizes(list(ds1_block_sizes()), 20, seed=13)
    timeline = simulate_planned_workflow(
        plan_blocksplit(bdm, 100),
        ClusterSpec(10),
        bdm_plan=plan_bdm_job(bdm, 100),
    )
    assert 25 <= timeline.jobs[0].execution_time <= 45
