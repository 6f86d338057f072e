"""End-to-end workflow: real matching, simulation glue, BDM paths."""

from __future__ import annotations

import pytest

from repro.cluster.simulation import ClusterSpec
from repro.core.bdm import analytic_bdm, analytic_bdm_from_block_sizes
from repro.core.planning import plan_pairrange
from repro.core.strategy import get_strategy
from repro.engine import (
    ERPipeline,
    simulate_executed_workflow,
    simulate_planned_workflow,
    simulate_strategy,
)
from repro.datasets.generators import generate_products
from repro.er.blocking import PrefixBlocking
from repro.er.matching import ThresholdMatcher, brute_force_match
from repro.mapreduce.types import make_partitions


class TestEndToEndMatching:
    """The workflow finds exactly the matches a blocked brute force finds."""

    @pytest.mark.parametrize("strategy", ["basic", "blocksplit", "pairrange"])
    def test_matches_equal_blocked_brute_force(self, strategy):
        entities = generate_products(300, seed=21)
        blocking = PrefixBlocking("title", 3)
        workflow = ERPipeline(
            strategy,
            blocking,
            ThresholdMatcher("title", 0.8),
            num_map_tasks=3,
            num_reduce_tasks=5,
        )
        result = workflow.run(entities)

        expected_ids = set()
        reference = ThresholdMatcher("title", 0.8)
        for block in blocking.partition_entities(entities).values():
            expected_ids |= brute_force_match(block, reference).pair_ids
        assert result.matches.pair_ids == expected_ids
        # The generator plants duplicates, so this is a non-trivial set.
        assert len(result.matches) > 0

    def test_strategy_instance_accepted(self):
        entities = generate_products(100, seed=22)
        workflow = ERPipeline(
            get_strategy("pairrange"),
            PrefixBlocking("title"),
            num_map_tasks=2,
            num_reduce_tasks=3,
        )
        result = workflow.run(entities)
        assert result.strategy == "pairrange"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(KeyError, match="unknown strategy"):
            ERPipeline("bogus", PrefixBlocking("title"))

    def test_result_accessors(self):
        entities = generate_products(150, seed=23)
        workflow = ERPipeline(
            "blocksplit",
            PrefixBlocking("title"),
            num_map_tasks=2,
            num_reduce_tasks=4,
        )
        result = workflow.run(entities)
        assert result.bdm is not None
        assert result.job1 is not None
        assert len(result.reduce_comparisons()) == 4
        assert result.total_comparisons() == result.bdm.pairs()
        assert result.map_output_kv() >= result.bdm.total_entities() - _singletons(result.bdm)

    def test_basic_has_no_bdm_job(self):
        entities = generate_products(100, seed=24)
        workflow = ERPipeline(
            "basic", PrefixBlocking("title"), num_map_tasks=2, num_reduce_tasks=3
        )
        result = workflow.run(entities)
        assert result.job1 is None
        assert result.bdm is None


def _singletons(bdm) -> int:
    return sum(
        bdm.size(k) for k in range(bdm.num_blocks) if bdm.block_pairs(k) == 0
    )


class TestAnalyticBdm:
    def test_matches_job1(self):
        entities = generate_products(200, seed=25)
        blocking = PrefixBlocking("title")
        partitions = make_partitions(entities, 3)
        direct = analytic_bdm(partitions, blocking)
        workflow = ERPipeline(
            "pairrange", blocking, num_map_tasks=3, num_reduce_tasks=2
        )
        result = workflow.run(partitions)
        assert result.bdm.block_keys == direct.block_keys
        assert result.bdm.block_sizes() == direct.block_sizes()

    def test_from_block_sizes(self):
        bdm = analytic_bdm_from_block_sizes([[2, 1], [0, 3]])
        assert bdm.num_blocks == 2
        assert bdm.block_sizes() == [3, 3]

    def test_accepts_plain_entity_lists(self):
        entities = generate_products(60, seed=26)
        halves = [entities[:30], entities[30:]]
        bdm = analytic_bdm(halves, PrefixBlocking("title"))
        assert bdm.total_entities() == 60
        assert bdm.num_partitions == 2


class TestSimulationGlue:
    def test_executed_and_planned_agree(self):
        """Simulating the executed counters and the analytic plan must
        give the same execution time — they are the same numbers."""
        entities = generate_products(300, seed=27)
        blocking = PrefixBlocking("title")
        partitions = make_partitions(entities, 4)
        workflow = ERPipeline(
            "pairrange", blocking, num_map_tasks=4, num_reduce_tasks=8
        )
        result = workflow.run(partitions)
        cluster = ClusterSpec(num_nodes=2)
        executed = simulate_executed_workflow(result, cluster)

        bdm = analytic_bdm(partitions, blocking)
        from repro.core.planning import plan_bdm_job

        plan = plan_pairrange(bdm, 8)
        planned = simulate_planned_workflow(
            plan, cluster, bdm_plan=plan_bdm_job(bdm, 8)
        )
        assert executed.execution_time == pytest.approx(
            planned.execution_time, rel=1e-9
        )

    def test_simulate_strategy_shortcut(self):
        entities = generate_products(200, seed=28)
        bdm = analytic_bdm(make_partitions(entities, 4), PrefixBlocking("title"))
        timeline, plan = simulate_strategy(
            "blocksplit", bdm, ClusterSpec(2), num_reduce_tasks=8
        )
        assert timeline.execution_time > 0
        assert len(timeline.jobs) == 2  # BDM job + matching job
        timeline_basic, _plan = simulate_strategy(
            "basic", bdm, ClusterSpec(2), num_reduce_tasks=8
        )
        assert len(timeline_basic.jobs) == 1  # single job, no BDM

    def test_noise_changes_times_deterministically(self):
        entities = generate_products(200, seed=29)
        bdm = analytic_bdm(make_partitions(entities, 4), PrefixBlocking("title"))
        t1, _ = simulate_strategy(
            "pairrange", bdm, ClusterSpec(2), num_reduce_tasks=8,
            comparison_noise_sigma=0.3,
        )
        t2, _ = simulate_strategy(
            "pairrange", bdm, ClusterSpec(2), num_reduce_tasks=8,
            comparison_noise_sigma=0.3,
        )
        t0, _ = simulate_strategy(
            "pairrange", bdm, ClusterSpec(2), num_reduce_tasks=8,
        )
        assert t1.execution_time == t2.execution_time
        assert t1.execution_time != t0.execution_time


class TestBdmCombinerToggle:
    def test_workflow_without_combiner_same_matches(self):
        entities = generate_products(150, seed=30)
        blocking = PrefixBlocking("title")
        with_combiner = ERPipeline(
            "pairrange", blocking, num_map_tasks=2, num_reduce_tasks=3
        ).run(entities)
        without_combiner = ERPipeline(
            "pairrange",
            blocking,
            num_map_tasks=2,
            num_reduce_tasks=3,
            use_bdm_combiner=False,
        ).run(entities)
        assert with_combiner.matches == without_combiner.matches
        assert (
            without_combiner.job1.map_output_records()
            >= with_combiner.job1.map_output_records()
        )
