"""Simulation glue: executed job results or analytic plans → timelines.

Converts per-task statistics (from executing backends) or analytic
plans (from the planners) into cluster-simulator task lists, which is
how the execution-time figures are regenerated — one code path for
every backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..cluster.costmodel import CostModel
from ..cluster.simulation import (
    ClusterSimulator,
    ClusterSpec,
    map_task_specs,
    reduce_task_specs,
)
from ..cluster.timeline import WorkflowTimeline
from ..core.bdm import BlockDistributionMatrix
from ..core.planning import BdmJobPlan, StrategyPlan, plan_bdm_job
from ..core.strategy import get_strategy
from ..mapreduce.counters import StandardCounter

if TYPE_CHECKING:
    from .result import PipelineResult


def simulate_executed_workflow(
    result: "PipelineResult",
    cluster: ClusterSpec,
    cost_model: CostModel | None = None,
    *,
    avg_comparison_length: float | None = None,
) -> WorkflowTimeline:
    """Simulate cluster execution of an already-executed workflow,
    using the real per-task counters."""
    cost_model = cost_model if cost_model is not None else CostModel()
    simulator = ClusterSimulator(cluster, cost_model)
    jobs = []
    for job_result in (result.job1, result.job2):
        if job_result is None:
            continue
        maps = map_task_specs(
            cost_model,
            [t.input_records for t in job_result.map_tasks],
            [t.output_records for t in job_result.map_tasks],
            prefix=f"{job_result.job_name}-map",
        )
        reduces = reduce_task_specs(
            cost_model,
            [t.input_records for t in job_result.reduce_tasks],
            [
                t.counters.get(StandardCounter.PAIR_COMPARISONS)
                for t in job_result.reduce_tasks
            ],
            avg_comparison_length=avg_comparison_length,
            prefix=f"{job_result.job_name}-reduce",
        )
        jobs.append((job_result.job_name, maps, reduces))
    return simulator.simulate_workflow(jobs)


def simulate_planned_workflow(
    plan: StrategyPlan,
    cluster: ClusterSpec,
    cost_model: CostModel | None = None,
    *,
    bdm_plan: BdmJobPlan | None = None,
    avg_comparison_length: float | None = None,
    comparison_noise_sigma: float = 0.0,
    noise_seed: int = 11,
) -> WorkflowTimeline:
    """Simulate cluster execution from analytic plans (the scalable path).

    ``bdm_plan`` adds Job 1 ahead of the matching job; pass ``None``
    for the single-job Basic strategy.
    """
    cost_model = cost_model if cost_model is not None else CostModel()
    simulator = ClusterSimulator(cluster, cost_model)
    jobs = []
    if bdm_plan is not None:
        maps = map_task_specs(
            cost_model,
            list(bdm_plan.map_input_records),
            list(bdm_plan.map_output_kv),
            prefix="job1-map",
        )
        reduces = reduce_task_specs(
            cost_model,
            list(bdm_plan.reduce_input_kv),
            [0] * bdm_plan.num_reduce_tasks,
            prefix="job1-reduce",
        )
        jobs.append(("job1-bdm", maps, reduces))
    maps = map_task_specs(
        cost_model,
        list(plan.map_input_records),
        list(plan.map_output_kv),
        prefix=f"{plan.strategy}-map",
    )
    reduces = reduce_task_specs(
        cost_model,
        list(plan.reduce_input_kv),
        list(plan.reduce_comparisons),
        avg_comparison_length=avg_comparison_length,
        comparison_noise_sigma=comparison_noise_sigma,
        noise_seed=noise_seed,
        prefix=f"{plan.strategy}-reduce",
    )
    jobs.append((plan.strategy, maps, reduces))
    return simulator.simulate_workflow(jobs)


def simulate_strategy(
    strategy_name: str,
    bdm: BlockDistributionMatrix,
    cluster: ClusterSpec,
    *,
    num_reduce_tasks: int,
    cost_model: CostModel | None = None,
    avg_comparison_length: float | None = None,
    comparison_noise_sigma: float = 0.0,
    noise_seed: int = 11,
    raw_partition_sizes: Sequence[int] | None = None,
    use_bdm_combiner: bool = True,
) -> tuple[WorkflowTimeline, StrategyPlan]:
    """One-call planner + simulator for the benchmark harness."""
    strategy = get_strategy(strategy_name)
    plan = strategy.plan(bdm, num_reduce_tasks)
    bdm_plan = None
    if strategy.requires_bdm:
        bdm_plan = plan_bdm_job(
            bdm,
            num_reduce_tasks,
            use_combiner=use_bdm_combiner,
            raw_partition_sizes=raw_partition_sizes,
        )
    timeline = simulate_planned_workflow(
        plan,
        cluster,
        cost_model,
        bdm_plan=bdm_plan,
        avg_comparison_length=avg_comparison_length,
        comparison_noise_sigma=comparison_noise_sigma,
        noise_seed=noise_seed,
    )
    return timeline, plan
