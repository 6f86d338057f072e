"""The planned backend: analytic planners + cluster simulation, no execution.

Computes the BDM directly from the input partitions (what Job 1 would
output), asks the strategy for its exact workload plan, and simulates
the two-job workflow on a configurable cluster.  This is the DS2-scale
path — ~10⁹ comparisons are *planned* in milliseconds rather than
executed — behind the very same ``run()`` signature as the executing
backends.  The returned result has ``matches=None`` and carries the
plan and timeline instead.

Streaming inputs compose naturally: a request carrying only a
:class:`~repro.io.RecordSource` is planned from the source's shard-level
block statistics (one streaming pass), so no record is ever
materialized on this path.

Plans are derived from BDM pair counts alone, so they are invariant
under the execution-side hot-path switches (bit-parallel kernel,
prepared matchers, packed shuffle keys) — the hot-path equivalence
suite pins this down by comparing planned results across those
configurations.
"""

from __future__ import annotations

from ..cluster.costmodel import CostModel
from ..cluster.simulation import ClusterSpec
from ..core.bdm import analytic_bdm
from ..core.two_source import analytic_dual_bdm
from .backend import ExecutionBackend, PipelineRequest, register_backend
from .executing import analytic_plans, matching_bdm
from .result import PipelineResult
from .simulate import simulate_planned_workflow

#: Cluster used when neither the backend nor the pipeline configures one
#: (the paper's default EC2 setup scale).
DEFAULT_CLUSTER = ClusterSpec(num_nodes=10)


@register_backend
class PlannedBackend(ExecutionBackend):
    """Plans and simulates the workflow instead of executing it."""

    name = "planned"
    executes = False

    def __init__(
        self,
        cluster: ClusterSpec | None = None,
        cost_model: CostModel | None = None,
        *,
        avg_comparison_length: float | None = None,
        comparison_noise_sigma: float = 0.0,
        noise_seed: int = 11,
    ):
        self.cluster = cluster
        self.cost_model = cost_model
        self.avg_comparison_length = avg_comparison_length
        self.comparison_noise_sigma = comparison_noise_sigma
        self.noise_seed = noise_seed

    def execute(self, request: PipelineRequest, events=None) -> PipelineResult:
        """Plan a full, two-source or delta request: the matrix Job 1
        would output (for a delta: of the delta alone, merged with the
        persisted one), the strategy's plan for it, and the simulated
        timeline of that work."""
        # Planning emits no task events (there are no tasks), but a
        # cancelled submission must still stop before the analytic work.
        if events is not None:
            events.raise_if_cancelled()
        raw_sizes = None
        if request.dual:
            bdm = analytic_dual_bdm(request.partitions, request.blocking)
        elif not request.partitions and request.source is not None:
            # Streaming path: one statistics pass yields both the BDM
            # and the split sizes — the source is never streamed again.
            stats = request.source.block_statistics(request.blocking)
            bdm = stats.to_bdm()
            raw_sizes = stats.shard_records
        else:
            bdm = analytic_bdm(request.partitions, request.blocking)
        matching = matching_bdm(request, bdm)
        plan, bdm_plan = analytic_plans(
            request, bdm, matching, raw_partition_sizes=raw_sizes
        )
        timeline = None
        if plan is not None:
            cluster = request.cluster or self.cluster or DEFAULT_CLUSTER
            timeline = simulate_planned_workflow(
                plan,
                cluster,
                request.cost_model or self.cost_model,
                bdm_plan=bdm_plan,
                avg_comparison_length=self.avg_comparison_length,
                comparison_noise_sigma=self.comparison_noise_sigma,
                noise_seed=self.noise_seed,
            )
        return PipelineResult(
            strategy=request.strategy.name,
            backend=self.name,
            matches=None,
            bdm=bdm if request.delta is None else matching.matrix,
            job1=None,
            job2=None,
            plan=plan,
            bdm_plan=bdm_plan,
            timeline=timeline,
        )
