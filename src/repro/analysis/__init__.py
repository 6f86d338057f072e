"""Analysis layer: metrics, experiment sweeps, and report formatting."""

from .. import _lazy

#: Public name → the module that defines it, imported on first access.
_EXPORTS = {
    "SimulatedRun": ".experiments",
    "bdm_for_block_sizes": ".experiments",
    "bdm_from_result": ".experiments",
    "dataset_statistics": ".experiments",
    "simulate_run": ".experiments",
    "sweep_from_result": ".experiments",
    "sweep_input_order": ".experiments",
    "sweep_nodes": ".experiments",
    "sweep_reduce_tasks": ".experiments",
    "sweep_skew": ".experiments",
    "MatchQuality": ".evaluation",
    "evaluate_matches": ".evaluation",
    "pairs_completeness": ".evaluation",
    "reduction_ratio": ".evaluation",
    "WorkloadStats": ".metrics",
    "efficiency": ".metrics",
    "imbalance": ".metrics",
    "replication_factor": ".metrics",
    "speedup": ".metrics",
    "time_per_pairs": ".metrics",
    "format_seconds": ".reporting",
    "format_series": ".reporting",
    "format_table": ".reporting",
    "bar_chart": ".visualization",
    "gantt": ".visualization",
    "sparkline": ".visualization",
    "workload_chart": ".visualization",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
