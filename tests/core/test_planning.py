"""Planner = executor (DESIGN.md invariant 3).

The analytic planners must predict, *exactly*, the per-task counters
the executing MR jobs produce: comparisons per reduce task, KV records
per reduce task, KV records emitted per map task.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planning import (
    plan_basic,
    plan_bdm_job,
    plan_blocksplit,
    plan_pairrange,
)
from repro.core.bdm import analytic_bdm
from repro.engine import ERPipeline
from repro.er.matching import RecordingMatcher
from repro.mapreduce.counters import StandardCounter
from repro.mapreduce.types import make_partitions

from ..conftest import key_blocking, random_keyed_entities

PLANNERS = {
    "basic": plan_basic,
    "blocksplit": plan_blocksplit,
    "pairrange": plan_pairrange,
}


def executed_counts(strategy, entities, m, r):
    matcher = RecordingMatcher()
    workflow = ERPipeline(
        strategy, key_blocking(), matcher, num_map_tasks=m, num_reduce_tasks=r
    )
    result = workflow.run(entities)
    return {
        "reduce_comparisons": result.reduce_comparisons(),
        "reduce_input_kv": [t.input_records for t in result.job2.reduce_tasks],
        "map_output_kv": [t.output_records for t in result.job2.map_tasks],
    }


class TestPlannerEqualsExecutor:
    @pytest.mark.parametrize("strategy", list(PLANNERS))
    @given(
        num_entities=st.integers(min_value=1, max_value=50),
        num_keys=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=10_000),
        m=st.integers(min_value=1, max_value=4),
        r=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_all_counters_match(self, strategy, num_entities, num_keys, seed, m, r):
        entities = random_keyed_entities(num_entities, num_keys, seed=seed)
        partitions = make_partitions(entities, m)
        bdm = analytic_bdm(partitions, key_blocking())
        plan = PLANNERS[strategy](bdm, r)
        executed = executed_counts(strategy, entities, m, r)
        assert list(plan.reduce_comparisons) == executed["reduce_comparisons"]
        assert list(plan.reduce_input_kv) == executed["reduce_input_kv"]
        assert list(plan.map_output_kv) == executed["map_output_kv"]

    @pytest.mark.parametrize("strategy", list(PLANNERS))
    def test_large_skewed_instance(self, strategy):
        entities = random_keyed_entities(300, 6, seed=99)
        partitions = make_partitions(entities, 5)
        bdm = analytic_bdm(partitions, key_blocking())
        plan = PLANNERS[strategy](bdm, 12)
        executed = executed_counts(strategy, entities, 5, 12)
        assert list(plan.reduce_comparisons) == executed["reduce_comparisons"]
        assert list(plan.reduce_input_kv) == executed["reduce_input_kv"]
        assert list(plan.map_output_kv) == executed["map_output_kv"]


class TestPlanProperties:
    def _bdm(self, seed=1, n=120, keys=5, m=4):
        entities = random_keyed_entities(n, keys, seed=seed)
        return analytic_bdm(make_partitions(entities, m), key_blocking())

    def test_total_pairs_consistent_across_strategies(self):
        bdm = self._bdm()
        plans = [planner(bdm, 6) for planner in PLANNERS.values()]
        totals = {p.total_comparisons for p in plans}
        assert totals == {bdm.pairs()}

    def test_basic_never_replicates(self):
        bdm = self._bdm()
        plan = plan_basic(bdm, 6)
        assert plan.total_map_output_kv == bdm.total_entities()
        assert plan.replication_factor == pytest.approx(1.0)

    def test_balanced_strategies_replicate_when_splitting(self):
        bdm = self._bdm()
        for planner in (plan_blocksplit, plan_pairrange):
            plan = planner(bdm, 6)
            assert plan.total_map_output_kv >= bdm.total_entities() - _singletons(bdm)

    def test_pairrange_workloads_differ_by_at_most_ppr(self):
        bdm = self._bdm()
        plan = plan_pairrange(bdm, 7)
        loads = [c for c in plan.reduce_comparisons]
        non_empty = [c for c in loads if c > 0]
        assert max(non_empty) - min(non_empty) <= max(non_empty)
        # All but the last non-empty range are exactly equal.
        assert len(set(non_empty[:-1])) <= 1

    def test_blocksplit_respects_lpt_bound(self):
        bdm = self._bdm(seed=17)
        plan = plan_blocksplit(bdm, 5)
        average = bdm.pairs() / 5
        # No reduce task exceeds average + largest block's pairs.
        largest = max(bdm.block_pairs(k) for k in range(bdm.num_blocks))
        assert plan.max_reduce_comparisons <= average + largest

    def test_map_output_grows_with_r_for_pairrange(self):
        # Figure 12: PairRange's map output grows ~linearly with r.
        bdm = self._bdm(seed=23, n=200)
        outputs = [plan_pairrange(bdm, r).total_map_output_kv for r in (2, 4, 8, 16)]
        assert outputs == sorted(outputs)
        assert outputs[-1] > outputs[0]

    def test_blocksplit_map_output_is_step_function_of_r(self):
        # Figure 12: BlockSplit's output depends only on *which* blocks
        # split; between split-set changes it is constant.
        bdm = self._bdm(seed=29, n=200)
        split_sets = {}
        outputs = {}
        from repro.core.match_tasks import generate_match_tasks

        for r in (2, 3, 4, 6, 8, 12):
            _tasks, split, _thr = generate_match_tasks(bdm, r)
            split_sets[r] = split
            outputs[r] = plan_blocksplit(bdm, r).total_map_output_kv
        for r1 in split_sets:
            for r2 in split_sets:
                if split_sets[r1] == split_sets[r2]:
                    assert outputs[r1] == outputs[r2]


def _singletons(bdm) -> int:
    return sum(
        bdm.size(k) for k in range(bdm.num_blocks) if bdm.block_pairs(k) == 0
    )


class TestBdmJobPlan:
    def test_matches_executed_bdm_job(self):
        from repro.core.bdm import compute_bdm
        from repro.mapreduce.runtime import LocalRuntime

        entities = random_keyed_entities(80, 5, seed=3)
        partitions = make_partitions(entities, 3)
        runtime = LocalRuntime()
        bdm, result, _annotated = compute_bdm(
            runtime, partitions, key_blocking(), num_reduce_tasks=4
        )
        plan = plan_bdm_job(bdm, 4, use_combiner=True)
        assert list(plan.map_output_kv) == [
            t.output_records for t in result.map_tasks
        ]
        assert list(plan.reduce_input_kv) == [
            t.input_records for t in result.reduce_tasks
        ]

    def test_without_combiner_emits_one_kv_per_entity(self):
        entities = random_keyed_entities(40, 4, seed=4)
        partitions = make_partitions(entities, 2)
        bdm = analytic_bdm(partitions, key_blocking())
        plan = plan_bdm_job(bdm, 3, use_combiner=False)
        assert sum(plan.map_output_kv) == 40

    def test_raw_partition_sizes_override(self):
        entities = random_keyed_entities(40, 4, seed=4)
        partitions = make_partitions(entities, 2)
        bdm = analytic_bdm(partitions, key_blocking())
        plan = plan_bdm_job(bdm, 3, raw_partition_sizes=[100, 200])
        assert plan.map_input_records == (100, 200)
        with pytest.raises(ValueError):
            plan_bdm_job(bdm, 3, raw_partition_sizes=[100])
