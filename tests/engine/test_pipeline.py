"""The ERPipeline facade: unified one-/two-source path, planned backend,
and the strategy / backend registries."""

from __future__ import annotations

import pytest

from repro.cluster.simulation import ClusterSpec
from repro.core.strategy import (
    LoadBalancingStrategy,
    STRATEGIES,
    get_strategy,
    register_strategy,
)
from repro.datasets.generators import generate_products
from repro.engine import ERPipeline
from repro.engine.backend import BACKENDS, get_backend
from repro.er.blocking import PrefixBlocking
from repro.er.matching import ThresholdMatcher


def _pipeline(strategy, **kwargs):
    kwargs.setdefault("num_map_tasks", 3)
    kwargs.setdefault("num_reduce_tasks", 5)
    return ERPipeline(
        strategy,
        PrefixBlocking("title"),
        ThresholdMatcher("title", 0.8),
        **kwargs,
    )


class TestUnifiedRun:
    def test_one_source_via_single_entry_point(self):
        result = _pipeline("blocksplit").run(generate_products(200, seed=51))
        assert result.executed
        assert len(result.matches) > 0
        assert result.total_comparisons() == result.bdm.pairs()

    def test_two_source_via_single_entry_point(self):
        r = generate_products(120, seed=52)
        s = generate_products(120, seed=53)
        result = _pipeline("pairrange", num_map_tasks=4).run(r, s)
        assert result.executed
        # Every match crosses sources.
        for pair in result.matches:
            assert pair.id1.startswith("R:")
            assert pair.id2.startswith("S:")

    def test_two_source_basic_rejected(self):
        with pytest.raises(ValueError, match="two-source matching requires"):
            _pipeline("basic").run(
                generate_products(20, seed=54), generate_products(20, seed=55)
            )

    def test_basic_routed_through_strategy_build_job(self):
        """The Basic strategy no longer bypasses strategy.build_job: the
        blocking function reaches the job via the strategy interface."""
        strategy = get_strategy("basic")
        blocking = PrefixBlocking("title")
        job = strategy.build_job(
            None, ThresholdMatcher(), 3, blocking=blocking
        )
        assert job.blocking is blocking
        result = _pipeline("basic").run(generate_products(150, seed=56))
        assert result.job1 is None and result.bdm is None
        assert len(result.matches) > 0


class TestPlannedBackend:
    def test_plan_matches_execution(self):
        entities = generate_products(250, seed=57)
        executed = _pipeline("blocksplit").run(entities)
        planned = _pipeline("blocksplit").with_backend("planned").run(entities)
        assert not planned.executed
        assert planned.matches is None
        assert planned.reduce_comparisons() == executed.reduce_comparisons()
        assert planned.map_output_kv() == executed.map_output_kv()
        assert planned.timeline is not None
        assert planned.execution_time > 0

    def test_plan_matches_execution_two_source(self):
        r = generate_products(120, seed=58)
        s = generate_products(120, seed=59)
        executed = _pipeline("pairrange", num_map_tasks=4).run(r, s)
        planned = (
            _pipeline("pairrange", num_map_tasks=4)
            .with_backend("planned")
            .run(r, s)
        )
        assert planned.reduce_comparisons() == executed.reduce_comparisons()
        assert planned.bdm.pairs() == executed.bdm.pairs()

    def test_executed_results_always_carry_plan(self):
        for strategy in ("basic", "blocksplit", "pairrange"):
            result = _pipeline(strategy).run(generate_products(150, seed=60))
            assert result.plan is not None
            assert result.plan.strategy == strategy
            assert sum(result.plan.reduce_comparisons) == result.total_comparisons()

    def test_cluster_attaches_timeline_to_executed_run(self):
        result = (
            _pipeline("blocksplit")
            .with_cluster(ClusterSpec(num_nodes=2))
            .run(generate_products(150, seed=61))
        )
        assert result.executed
        assert result.timeline is not None
        assert result.execution_time > 0
        assert len(result.timeline.jobs) == 2  # BDM job + matching job


class TestRegistries:
    def test_backend_registry(self):
        assert {"serial", "parallel", "planned"} <= set(BACKENDS)
        for name in ("serial", "parallel", "planned"):
            assert get_backend(name).name == name

    def test_register_strategy_decorator(self):
        @register_strategy
        class ProbeStrategy(STRATEGIES["blocksplit"]):
            name = "probe-strategy"

        try:
            assert get_strategy("probe-strategy").name == "probe-strategy"
            result = _pipeline("probe-strategy").run(
                generate_products(100, seed=62)
            )
            reference = _pipeline("blocksplit").run(
                generate_products(100, seed=62)
            )
            assert result.matches == reference.matches
        finally:
            del STRATEGIES["probe-strategy"]

    def test_duplicate_strategy_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_strategy
            class Clash(STRATEGIES["basic"]):
                name = "blocksplit"

    def test_strategy_instances_and_options(self):
        instance = STRATEGIES["pairrange"]()
        assert get_strategy(instance) is instance
        with pytest.raises(TypeError, match="existing"):
            get_strategy(instance, bogus=1)
        assert get_strategy(STRATEGIES["basic"]).name == "basic"
