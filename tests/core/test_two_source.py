"""Two-source matching (Appendix I): coverage, planners, edge cases."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planning import plan_dual_blocksplit, plan_dual_pairrange
from repro.core.two_source import (
    DualSourceBDM,
    compute_dual_bdm,
    generate_dual_match_tasks,
)
from repro.engine import ERPipeline
from repro.er.matching import AlwaysMatcher, RecordingMatcher
from repro.mapreduce.runtime import LocalRuntime
from repro.mapreduce.types import Partition, make_partitions

from ..conftest import blocked_cross_pairs, key_blocking, make_entity, random_keyed_entities

DUAL_STRATEGIES = ["blocksplit", "pairrange"]


def run_dual(strategy, r_entities, s_entities, *, r_parts=2, s_parts=2, r=4):
    matcher = RecordingMatcher()
    workflow = ERPipeline(strategy, key_blocking(), matcher, num_reduce_tasks=r)
    result = workflow.run(
        r_entities, s_entities, num_r_partitions=r_parts, num_s_partitions=s_parts
    )
    return matcher, result


class TestDualCoverage:
    @pytest.mark.parametrize("strategy", DUAL_STRATEGIES)
    @given(
        n_r=st.integers(min_value=0, max_value=30),
        n_s=st.integers(min_value=0, max_value=30),
        keys=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=5_000),
        r=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=30, deadline=None)
    def test_each_cross_pair_compared_exactly_once(
        self, strategy, n_r, n_s, keys, seed, r
    ):
        r_entities = random_keyed_entities(n_r, keys, seed=seed, source="R")
        s_entities = random_keyed_entities(n_s, keys, seed=seed + 1, source="S")
        if not r_entities and not s_entities:
            return
        matcher, _ = run_dual(strategy, r_entities, s_entities, r=r)
        expected = blocked_cross_pairs(r_entities + s_entities, key_blocking())
        assert len(matcher.compared) == len(expected)
        assert set(matcher.compared) == expected

    @pytest.mark.parametrize("strategy", DUAL_STRATEGIES)
    def test_no_same_source_pairs(self, strategy):
        r_entities = [make_entity(f"r{i}", "k", "R") for i in range(6)]
        s_entities = [make_entity(f"s{i}", "k", "S") for i in range(4)]
        matcher, _ = run_dual(strategy, r_entities, s_entities)
        for a, b in matcher.compared:
            assert a.startswith("R:") and b.startswith("S:")
        assert len(matcher.compared) == 24

    @pytest.mark.parametrize("strategy", DUAL_STRATEGIES)
    def test_block_present_in_only_one_source(self, strategy):
        # "Block Φ1 ... needs not to be considered because no entity in
        #  source S has such a blocking key."
        r_entities = [make_entity("r0", "only-r", "R"), make_entity("r1", "only-r", "R")]
        s_entities = [make_entity("s0", "only-s", "S")]
        matcher, _ = run_dual(strategy, r_entities, s_entities)
        assert matcher.compared == []

    @pytest.mark.parametrize("strategy", DUAL_STRATEGIES)
    def test_matches_identical_across_strategies(self, strategy):
        r_entities = random_keyed_entities(20, 3, seed=1, source="R")
        s_entities = random_keyed_entities(15, 3, seed=2, source="S")
        workflow = ERPipeline(
            strategy, key_blocking(), AlwaysMatcher(), num_reduce_tasks=3
        )
        result = workflow.run(r_entities, s_entities)
        assert result.matches.pair_ids == blocked_cross_pairs(
            r_entities + s_entities, key_blocking()
        )

    def test_basic_strategy_rejected(self):
        workflow = ERPipeline("basic", key_blocking(), num_reduce_tasks=2)
        with pytest.raises(ValueError, match="two-source"):
            workflow.run([], [make_entity("s0", "k", "S")])


class TestDualBdm:
    def _dual_bdm(self):
        r_entities = random_keyed_entities(20, 4, seed=11, source="R")
        s_entities = random_keyed_entities(30, 4, seed=12, source="S")
        partitions = []
        for chunk in make_partitions(r_entities, 2):
            partitions.append(Partition(list(chunk), index=len(partitions)))
        for chunk in make_partitions(s_entities, 3):
            partitions.append(Partition(list(chunk), index=len(partitions)))
        runtime = LocalRuntime()
        bdm, _job, annotated = compute_dual_bdm(
            runtime, partitions, key_blocking(), num_reduce_tasks=3
        )
        return bdm, r_entities, s_entities

    def test_source_partitions(self):
        bdm, _r, _s = self._dual_bdm()
        assert bdm.r_partitions == [0, 1]
        assert bdm.s_partitions == [2, 3, 4]

    def test_sizes_split_by_source(self):
        bdm, r_entities, s_entities = self._dual_bdm()
        total_r = sum(bdm.size_r(k) for k in range(bdm.num_blocks))
        total_s = sum(bdm.size_s(k) for k in range(bdm.num_blocks))
        assert total_r == len(r_entities)
        assert total_s == len(s_entities)

    def test_pairs_are_cross_products(self):
        bdm, r_entities, s_entities = self._dual_bdm()
        expected = blocked_cross_pairs(r_entities + s_entities, key_blocking())
        assert bdm.pairs() == len(expected)

    def test_entity_index_offset_counts_same_source_only(self):
        bdm, _r, _s = self._dual_bdm()
        for k in range(bdm.num_blocks):
            # Offset at the first partition of each source is zero.
            assert bdm.entity_index_offset(k, 0) == 0
            assert bdm.entity_index_offset(k, 2) == 0
            # Offsets accumulate within the source.
            assert bdm.entity_index_offset(k, 1) == bdm.size(k, 0)
            assert bdm.entity_index_offset(k, 4) == bdm.size(k, 2) + bdm.size(k, 3)

    def test_mixed_partition_rejected(self):
        mixed = Partition.from_values(
            [make_entity("a", "k", "R"), make_entity("b", "k", "S")], index=0
        )
        runtime = LocalRuntime()
        with pytest.raises(ValueError, match="mixes sources"):
            compute_dual_bdm(runtime, [mixed], key_blocking(), num_reduce_tasks=1)

    def test_bad_source_tag_rejected(self):
        from repro.core.bdm import BlockDistributionMatrix

        base = BlockDistributionMatrix(["a"], [[1, 1]])
        with pytest.raises(ValueError, match="unknown source"):
            DualSourceBDM(base, ["R", "Q"])


class TestDualMatchTasks:
    def test_only_cross_source_tasks_for_split_blocks(self):
        from repro.core.bdm import BlockDistributionMatrix

        # Block 0: R has 4 in partition 0, S has 4 in partition 1 -> 16
        # pairs; block 1 keeps totals up so threshold stays low.
        base = BlockDistributionMatrix(["a", "b"], [[4, 4], [1, 1]])
        bdm = DualSourceBDM(base, ["R", "S"])
        tasks, split, _thr = generate_dual_match_tasks(bdm, num_reduce_tasks=4)
        assert split == {0}
        split_tasks = [t for t in tasks if t.block == 0]
        assert {t.key for t in split_tasks} == {(0, 0, 1)}
        assert split_tasks[0].comparisons == 16

    def test_pairless_blocks_yield_no_tasks(self):
        from repro.core.bdm import BlockDistributionMatrix

        base = BlockDistributionMatrix(["a", "b"], [[2, 0], [1, 1]])
        bdm = DualSourceBDM(base, ["R", "S"])
        tasks, _split, _thr = generate_dual_match_tasks(bdm, num_reduce_tasks=2)
        assert {t.block for t in tasks} == {1}


class TestDualPlanners:
    @pytest.mark.parametrize(
        "strategy,planner",
        [("blocksplit", plan_dual_blocksplit), ("pairrange", plan_dual_pairrange)],
    )
    @given(
        n_r=st.integers(min_value=1, max_value=25),
        n_s=st.integers(min_value=1, max_value=25),
        keys=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=5_000),
        r=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_planner_equals_executor(self, strategy, planner, n_r, n_s, keys, seed, r):
        r_entities = random_keyed_entities(n_r, keys, seed=seed, source="R")
        s_entities = random_keyed_entities(n_s, keys, seed=seed + 1, source="S")
        matcher = RecordingMatcher()
        workflow = ERPipeline(strategy, key_blocking(), matcher, num_reduce_tasks=r)
        result = workflow.run(
            r_entities, s_entities, num_r_partitions=2, num_s_partitions=2
        )
        plan = planner(result.bdm, r)
        assert list(plan.reduce_comparisons) == result.reduce_comparisons()
        assert list(plan.reduce_input_kv) == [
            t.input_records for t in result.job2.reduce_tasks
        ]
        assert list(plan.map_output_kv) == [
            t.output_records for t in result.job2.map_tasks
        ]
