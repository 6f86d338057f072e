"""Shared machinery for backends that really run the MapReduce jobs.

The two-job workflow (Figure 2) is identical for serial and parallel
execution — only the runtime that schedules the task units differs, so
subclasses supply :meth:`ExecutingBackendBase.make_runtime` and nothing
else.  Full, two-source and delta requests share this single code path
(:meth:`ExecutingBackendBase._execute_on`), and the Basic strategy is
routed through ``strategy.build_job`` like every other strategy (the
blocking function travels with the request).
"""

from __future__ import annotations

from dataclasses import replace

from ..core.bdm import analytic_bdm, compute_bdm
from ..core.delta import merge_delta_bdm
from ..core.planning import BdmJobPlan, StrategyPlan, plan_bdm_job
from ..core.two_source import compute_dual_bdm
from ..er.matching import MatchResult
from ..mapreduce.runtime import LocalRuntime
from ..mapreduce.types import Partition
from .backend import ExecutionBackend, PipelineRequest
from .result import PipelineResult
from .simulate import simulate_executed_workflow


def runs_job1(request: PipelineRequest) -> bool:
    """Whether the request's workflow includes Job 1: when the strategy
    needs the BDM, for two sources, and on every delta — even Basic,
    which skips it on full runs, needs the merged matrix to enumerate
    the remaining ``T(n) − T(o)`` pairs, and the uniform counters keep
    incremental results plannable."""
    return (
        request.strategy.requires_bdm or request.dual or request.delta is not None
    )


def matching_bdm(request: PipelineRequest, bdm):
    """The matrix Job 2 is built and planned from: Job 1's own (``bdm``;
    ``None`` when Job 1 did not run) or, for a delta request, the
    persisted corpus's matrix merged with the delta's Job-1 counts — old
    partitions first, the partition order of the matching job's input."""
    if request.delta is None:
        return bdm
    return merge_delta_bdm(request.delta.old_bdm, bdm, len(request.partitions))


def analytic_plans(
    request: PipelineRequest,
    bdm,
    matching,
    *,
    raw_partition_sizes: tuple[int, ...] | None = None,
) -> tuple[StrategyPlan | None, BdmJobPlan | None]:
    """The request's analytic workload plans (Job 2 and, when Job 1
    runs, Job 1) — one function for full, two-source and delta requests.

    ``bdm`` is what Job 1 produced (or, on the planned backend, would
    produce) and ``matching`` is :func:`matching_bdm` of it.
    ``raw_partition_sizes`` short-circuits the request's property when
    the caller already knows the split sizes (the planned backend gets
    them from the same streaming pass as the BDM, so a record source is
    not streamed twice).  A workload with no blocked entities at all is
    not plannable and yields ``None`` in its slot.
    """
    strategy = request.strategy
    r = request.num_reduce_tasks
    if matching is None:
        # A single-job strategy ran no Job 1; its plan still derives
        # from the block sizes.
        matching = analytic_bdm(request.partitions, request.blocking)
    plan = None
    if matching.num_blocks:
        if request.delta is not None:
            plan = strategy.plan_delta(matching, r)
        elif request.dual:
            plan = strategy.plan_dual(matching, r)
        else:
            plan = strategy.plan(matching, r)
    bdm_plan = None
    if runs_job1(request) and bdm is not None and bdm.num_blocks:
        if raw_partition_sizes is None:
            raw_partition_sizes = request.raw_partition_sizes
        bdm_plan = plan_bdm_job(
            bdm,
            r,
            use_combiner=request.use_bdm_combiner,
            raw_partition_sizes=raw_partition_sizes,
        )
    return plan, bdm_plan


#: Stage labels stamped onto execution events (``ExecutionEvent.stage``).
STAGE_BDM = "bdm"
STAGE_MATCHING = "matching"


class ExecutingBackendBase(ExecutionBackend):
    """Runs Job 1 (when needed) and Job 2 on a runtime subclasses pick.

    The event channel, when given, is attached to the runtime so every
    job run through it emits lifecycle events; the base sets the
    workflow stage label (``"bdm"`` for Job 1, ``"matching"`` for
    Job 2) before each job, which is how the execution handle tells the
    two apart — in particular, ``"matching"`` reduce outputs are the
    streamed matches.
    """

    executes = True

    def make_runtime(self) -> LocalRuntime:
        raise NotImplementedError

    def execute(
        self, request: PipelineRequest, events=None
    ) -> PipelineResult:
        if events is not None:
            events.raise_if_cancelled()
        if not request.partitions and request.source is not None:
            # A streaming-only request: materialize the shards (one at a
            # time) — executing backends need the records in memory.
            request = replace(
                request, partitions=tuple(request.source.as_partitions())
            )
        runtime = self.make_runtime()
        runtime.events = events
        try:
            return self._execute_on(runtime, request)
        finally:
            runtime.close()

    @staticmethod
    def _set_stage(runtime: LocalRuntime, stage: str) -> None:
        if runtime.events is not None:
            runtime.events.stage = stage

    def _execute_on(self, runtime: LocalRuntime, request: PipelineRequest) -> PipelineResult:
        """The one workflow: Job 1 (or not) → build the matching job →
        run Job 2 → assemble the result, plus a timeline when a cluster
        is configured.

        A delta request runs Job 1 over the *delta only*: old records
        never pass through it again — their blocking keys and block
        counts come from the persisted :class:`~repro.engine.backend.
        DeltaSpec` — and Job 2 consumes persisted-annotated +
        delta-annotated partitions with a delta-aware matching job.
        """
        strategy = request.strategy
        spec = request.delta
        r = request.num_reduce_tasks
        budget = request.memory_budget
        bdm = job1 = None
        job2_input = request.partitions
        if runs_job1(request):
            self._set_stage(runtime, STAGE_BDM)
            compute = compute_dual_bdm if request.dual else compute_bdm
            bdm, job1, job2_input = compute(
                runtime,
                request.partitions,
                request.blocking,
                num_reduce_tasks=r,
                use_combiner=request.use_bdm_combiner,
                memory_budget=budget,
            )
        matching = matching_bdm(request, bdm)
        if spec is not None:
            # The persisted annotated corpus followed by the delta's
            # fresh annotation, re-indexed contiguously — old before new
            # is what lets the delta reduces buffer old entities first.
            job2_input = [
                Partition(list(p), index=i)
                for i, p in enumerate([*spec.old_partitions, *job2_input])
            ]
            job = strategy.build_delta_job(matching, request.matcher, r)
        elif request.dual:
            job = strategy.build_dual_job(matching, request.matcher, r)
        else:
            job = strategy.build_job(
                matching, request.matcher, r, blocking=request.blocking
            )
        self._set_stage(runtime, STAGE_MATCHING)
        job2 = runtime.run(
            job, job2_input, r,
            properties=request.properties, memory_budget=budget,
        )
        plan, bdm_plan = analytic_plans(request, bdm, matching)
        result = PipelineResult(
            strategy=strategy.name,
            backend=self.name,
            matches=MatchResult(record.value for record in job2.output),
            bdm=bdm if spec is None else matching.matrix,
            job1=job1,
            job2=job2,
            plan=plan,
            bdm_plan=bdm_plan,
        )
        if request.cluster is not None:
            timeline = simulate_executed_workflow(
                result, request.cluster, request.cost_model
            )
            result = replace(result, timeline=timeline)
        return result
