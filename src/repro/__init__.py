"""repro — Load Balancing for MapReduce-based Entity Resolution.

A complete, from-scratch reproduction of Kolb, Thor & Rahm (ICDE 2012):
the BlockSplit and PairRange load-balancing strategies, the block
distribution matrix workflow, the Basic baseline, two-source matching,
an in-process MapReduce runtime, a calibrated cluster simulator, and
synthetic stand-ins for the paper's datasets.

Quick start::

    from repro import ERPipeline, PrefixBlocking, generate_products

    entities = generate_products(2_000)
    pipeline = ERPipeline(
        "blocksplit", PrefixBlocking("title"),
        num_map_tasks=4, num_reduce_tasks=8,
    )
    result = pipeline.run(entities)
    print(len(result.matches), "duplicate pairs")

    # Same matches, multi-core execution:
    fast = pipeline.with_backend("parallel", max_workers=4).run(entities)
    assert fast.matches == result.matches

    # Submission model: stream matches, watch progress, cancel:
    execution = pipeline.submit(entities)
    for pair in execution.iter_matches():
        print(pair.id1, pair.id2, pair.similarity)
    assert execution.result().matches == result.matches

    # Two sources (R × S linkage) use the same entry point:
    links = pipeline.run(r_entities, s_entities)

    # Analytic planning + cluster simulation, no execution at all:
    planned = pipeline.with_backend("planned").run(entities)
    print(planned.execution_time, "simulated seconds")

    # Persist a run; replan sweeps from the file without re-executing:
    result.save("result.json")
    again = PipelineResult.load("result.json")
    assert again.matches == result.matches
"""

from . import _lazy

#: Public name → the module that defines it, imported on first access.
_EXPORTS = {
    "SimulatedRun": ".analysis",
    "WorkloadStats": ".analysis",
    "bdm_for_block_sizes": ".analysis",
    "dataset_statistics": ".analysis",
    "format_series": ".analysis",
    "format_table": ".analysis",
    "imbalance": ".analysis",
    "simulate_run": ".analysis",
    "speedup": ".analysis",
    "sweep_nodes": ".analysis",
    "sweep_reduce_tasks": ".analysis",
    "sweep_skew": ".analysis",
    "ClusterSimulator": ".cluster",
    "ClusterSpec": ".cluster",
    "CostModel": ".cluster",
    "TaskSpec": ".cluster",
    "BasicStrategy": ".core",
    "BlockDistributionMatrix": ".core",
    "BlockSplitStrategy": ".core",
    "DualSourceBDM": ".core",
    "LoadBalancingStrategy": ".core",
    "PairEnumeration": ".core",
    "PairRangeSpec": ".core",
    "PairRangeStrategy": ".core",
    "STRATEGIES": ".core",
    "StrategyPlan": ".core",
    "register_strategy": ".core",
    "BACKENDS": ".engine",
    "ERPipeline": ".engine",
    "ExecutionBackend": ".engine",
    "ExecutionEvent": ".engine",
    "ExecutionProgress": ".engine",
    "MatcherStats": ".engine",
    "ParallelBackend": ".engine",
    "ParallelRuntime": ".engine",
    "PipelineCancelled": ".engine",
    "PipelineExecution": ".engine",
    "PipelineResult": ".engine",
    "PlannedBackend": ".engine",
    "SerialBackend": ".engine",
    "get_backend": ".engine",
    "register_backend": ".engine",
    "analytic_bdm": ".core",
    "compute_bdm": ".core",
    "get_strategy": ".core",
    "MultiPassERWorkflow": ".core",
    "MultiPassResult": ".core",
    "link_with_missing_keys": ".core",
    "plan_basic": ".core",
    "plan_blocksplit": ".core",
    "plan_pairrange": ".core",
    "resolve_with_missing_keys": ".core",
    "simulate_planned_workflow": ".core",
    "simulate_strategy": ".core",
    "DS1_PROFILE": ".datasets",
    "DS2_PROFILE": ".datasets",
    "DatasetProfile": ".datasets",
    "ProductGenerator": ".datasets",
    "PublicationGenerator": ".datasets",
    "exponential_block_sizes": ".datasets",
    "generate_products": ".datasets",
    "generate_publications": ".datasets",
    "load_entities_csv": ".datasets",
    "save_entities_csv": ".datasets",
    "zipf_block_sizes": ".datasets",
    "AttributeBlocking": ".er",
    "BlockingFunction": ".er",
    "ConstantBlocking": ".er",
    "Entity": ".er",
    "Matcher": ".er",
    "MatchPair": ".er",
    "MatchResult": ".er",
    "PrefixBlocking": ".er",
    "ThresholdMatcher": ".er",
    "levenshtein_similarity": ".er",
    "CsvShardSource": ".io",
    "GeneratorSource": ".io",
    "InMemorySource": ".io",
    "RecordSource": ".io",
    "ShardBlockStats": ".io",
    "ExternalShuffle": ".mapreduce",
    "LocalRuntime": ".mapreduce",
    "MapReduceJob": ".mapreduce",
    "Partition": ".mapreduce",
    "make_partitions": ".mapreduce",
}

__version__ = "4.0.0"

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
