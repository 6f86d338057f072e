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

from .analysis import (
    SimulatedRun,
    WorkloadStats,
    bdm_for_block_sizes,
    dataset_statistics,
    format_series,
    format_table,
    imbalance,
    simulate_run,
    speedup,
    sweep_nodes,
    sweep_reduce_tasks,
    sweep_skew,
)
from .cluster import ClusterSimulator, ClusterSpec, CostModel, TaskSpec
from .core import (
    BasicStrategy,
    BlockDistributionMatrix,
    BlockSplitStrategy,
    DualSourceBDM,
    LoadBalancingStrategy,
    PairEnumeration,
    PairRangeSpec,
    PairRangeStrategy,
    STRATEGIES,
    StrategyPlan,
    register_strategy,
    analytic_bdm,
    compute_bdm,
    get_strategy,
    MultiPassERWorkflow,
    MultiPassResult,
    link_with_missing_keys,
    plan_basic,
    plan_blocksplit,
    plan_pairrange,
    resolve_with_missing_keys,
    simulate_planned_workflow,
    simulate_strategy,
)
from .datasets import (
    DS1_PROFILE,
    DS2_PROFILE,
    DatasetProfile,
    ProductGenerator,
    PublicationGenerator,
    exponential_block_sizes,
    generate_products,
    generate_publications,
    load_entities_csv,
    save_entities_csv,
    zipf_block_sizes,
)
from .engine import (
    BACKENDS,
    ERPipeline,
    ExecutionBackend,
    ExecutionEvent,
    ExecutionProgress,
    MatcherStats,
    ParallelBackend,
    ParallelRuntime,
    PipelineCancelled,
    PipelineExecution,
    PipelineResult,
    PlannedBackend,
    SerialBackend,
    get_backend,
    register_backend,
)
from .er import (
    AttributeBlocking,
    BlockingFunction,
    ConstantBlocking,
    Entity,
    Matcher,
    MatchPair,
    MatchResult,
    PrefixBlocking,
    ThresholdMatcher,
    levenshtein_similarity,
)
from .io import (
    CsvShardSource,
    GeneratorSource,
    InMemorySource,
    RecordSource,
    ShardBlockStats,
)
from .mapreduce import (
    ExternalShuffle,
    LocalRuntime,
    MapReduceJob,
    Partition,
    make_partitions,
)

__version__ = "4.0.0"

__all__ = [
    "SimulatedRun",
    "WorkloadStats",
    "bdm_for_block_sizes",
    "dataset_statistics",
    "format_series",
    "format_table",
    "imbalance",
    "simulate_run",
    "speedup",
    "sweep_nodes",
    "sweep_reduce_tasks",
    "sweep_skew",
    "ClusterSimulator",
    "ClusterSpec",
    "CostModel",
    "TaskSpec",
    "BasicStrategy",
    "BlockDistributionMatrix",
    "BlockSplitStrategy",
    "DualSourceBDM",
    "LoadBalancingStrategy",
    "PairEnumeration",
    "PairRangeSpec",
    "PairRangeStrategy",
    "STRATEGIES",
    "StrategyPlan",
    "register_strategy",
    "BACKENDS",
    "ERPipeline",
    "ExecutionBackend",
    "ExecutionEvent",
    "ExecutionProgress",
    "MatcherStats",
    "ParallelBackend",
    "ParallelRuntime",
    "PipelineCancelled",
    "PipelineExecution",
    "PipelineResult",
    "PlannedBackend",
    "SerialBackend",
    "get_backend",
    "register_backend",
    "analytic_bdm",
    "compute_bdm",
    "get_strategy",
    "MultiPassERWorkflow",
    "MultiPassResult",
    "link_with_missing_keys",
    "plan_basic",
    "plan_blocksplit",
    "plan_pairrange",
    "resolve_with_missing_keys",
    "simulate_planned_workflow",
    "simulate_strategy",
    "DS1_PROFILE",
    "DS2_PROFILE",
    "DatasetProfile",
    "ProductGenerator",
    "PublicationGenerator",
    "exponential_block_sizes",
    "generate_products",
    "generate_publications",
    "load_entities_csv",
    "save_entities_csv",
    "zipf_block_sizes",
    "AttributeBlocking",
    "BlockingFunction",
    "ConstantBlocking",
    "Entity",
    "Matcher",
    "MatchPair",
    "MatchResult",
    "PrefixBlocking",
    "ThresholdMatcher",
    "levenshtein_similarity",
    "CsvShardSource",
    "GeneratorSource",
    "InMemorySource",
    "RecordSource",
    "ShardBlockStats",
    "ExternalShuffle",
    "LocalRuntime",
    "MapReduceJob",
    "Partition",
    "make_partitions",
    "__version__",
]
