"""Differential test: simulating executed counters == simulating plans.

For every strategy (and the dual-source variants) the cluster times
derived from a real run's counters must equal the times derived from
the analytic plan — they are, by construction, the same numbers.  Any
divergence means a planner bug the unit tests missed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simulation import ClusterSpec
from repro.core.planning import (
    plan_basic,
    plan_bdm_job,
    plan_blocksplit,
    plan_pairrange,
)
from repro.core.bdm import analytic_bdm
from repro.engine import (
    ERPipeline,
    simulate_executed_workflow,
    simulate_planned_workflow,
)
from repro.er.matching import RecordingMatcher
from repro.mapreduce.types import make_partitions

from ..conftest import key_blocking, random_keyed_entities

PLANNERS = {
    "basic": plan_basic,
    "blocksplit": plan_blocksplit,
    "pairrange": plan_pairrange,
}


@pytest.mark.parametrize("strategy", list(PLANNERS))
@given(
    n=st.integers(min_value=1, max_value=60),
    keys=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=3_000),
    m=st.integers(min_value=1, max_value=4),
    r=st.integers(min_value=1, max_value=8),
    nodes=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=15, deadline=None)
def test_executed_equals_planned_simulation(strategy, n, keys, seed, m, r, nodes):
    entities = random_keyed_entities(n, keys, seed=seed)
    partitions = make_partitions(entities, m)
    workflow = ERPipeline(
        strategy, key_blocking(), RecordingMatcher(),
        num_map_tasks=m, num_reduce_tasks=r,
    )
    result = workflow.run(partitions)
    cluster = ClusterSpec(num_nodes=nodes)
    executed = simulate_executed_workflow(result, cluster)

    bdm = analytic_bdm(partitions, key_blocking())
    plan = PLANNERS[strategy](bdm, r)
    bdm_plan = plan_bdm_job(bdm, r) if strategy != "basic" else None
    planned = simulate_planned_workflow(plan, cluster, bdm_plan=bdm_plan)
    assert executed.execution_time == pytest.approx(planned.execution_time, rel=1e-12)
    # Phase-level agreement, not just the total.
    for executed_job, planned_job in zip(executed.jobs, planned.jobs):
        assert executed_job.map_phase.makespan == pytest.approx(
            planned_job.map_phase.makespan, rel=1e-12
        )
        assert executed_job.reduce_phase.makespan == pytest.approx(
            planned_job.reduce_phase.makespan, rel=1e-12
        )


@pytest.mark.parametrize("strategy", ["blocksplit", "pairrange"])
def test_dual_executed_equals_planned_simulation(strategy):
    from repro.core.planning import plan_dual_blocksplit, plan_dual_pairrange

    planners = {
        "blocksplit": plan_dual_blocksplit,
        "pairrange": plan_dual_pairrange,
    }
    r_entities = random_keyed_entities(30, 4, seed=8, source="R")
    s_entities = random_keyed_entities(25, 4, seed=9, source="S")
    workflow = ERPipeline(
        strategy, key_blocking(), RecordingMatcher(), num_reduce_tasks=5
    )
    result = workflow.run(
        r_entities, s_entities, num_r_partitions=2, num_s_partitions=2
    )
    cluster = ClusterSpec(num_nodes=3)
    executed = simulate_executed_workflow(result, cluster)
    plan = planners[strategy](result.bdm, 5)
    planned = simulate_planned_workflow(
        plan, cluster, bdm_plan=plan_bdm_job(result.bdm, 5)
    )
    assert executed.execution_time == pytest.approx(planned.execution_time, rel=1e-12)
