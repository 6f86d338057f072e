"""Event-driven cluster simulator with a calibrated Hadoop-ish cost model.

Substitutes for the paper's 100-node EC2/Hadoop testbed: the strategies
compute real per-task workloads (records shuffled, pairs compared) and
this package converts them into simulated execution times, reproducing
the *shape* of the paper's time/speedup figures.
"""

from .. import _lazy

#: Public name → the module that defines it, imported on first access.
_EXPORTS = {
    "CostModel": ".costmodel",
    "lognormal_speed_factors": ".costmodel",
    "ClusterSimulator": ".simulation",
    "ClusterSpec": ".simulation",
    "TaskSpec": ".simulation",
    "map_task_specs": ".simulation",
    "reduce_task_specs": ".simulation",
    "JobTimeline": ".timeline",
    "PhaseTimeline": ".timeline",
    "TaskExecution": ".timeline",
    "WorkflowTimeline": ".timeline",
    "makespan_lower_bound": ".timeline",
    "speedup_series": ".timeline",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
