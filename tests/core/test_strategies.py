"""The central correctness invariant for all strategies (one source):

for any input, partitioning, m and r, the multiset of compared pairs
equals the set of distinct intra-block pairs — nothing missed, nothing
compared twice (DESIGN.md invariant 1).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ERPipeline
from repro.er.matching import AlwaysMatcher, RecordingMatcher
from repro.mapreduce.types import make_partitions

from ..conftest import (
    blocked_pairs,
    key_blocking,
    make_entity,
    random_keyed_entities,
)

STRATEGY_NAMES = ["basic", "blocksplit", "pairrange"]


def run_and_record(strategy, entities, m, r):
    matcher = RecordingMatcher()
    workflow = ERPipeline(
        strategy, key_blocking(), matcher, num_map_tasks=m, num_reduce_tasks=r
    )
    result = workflow.run(entities)
    return matcher, result


entity_datasets = st.builds(
    random_keyed_entities,
    num_entities=st.integers(min_value=0, max_value=60),
    num_keys=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
    skewed=st.booleans(),
)


class TestPairCoverage:
    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    @given(
        entities=entity_datasets,
        m=st.integers(min_value=1, max_value=5),
        r=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=40, deadline=None)
    def test_each_qualifying_pair_compared_exactly_once(
        self, strategy, entities, m, r
    ):
        if not entities:
            return
        matcher, _result = run_and_record(strategy, entities, m, r)
        expected = blocked_pairs(entities, key_blocking())
        assert len(matcher.compared) == len(expected)
        assert set(matcher.compared) == expected

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_single_giant_block(self, strategy):
        entities = [make_entity(f"e{i}", "same") for i in range(25)]
        matcher, _ = run_and_record(strategy, entities, m=3, r=4)
        assert len(matcher.compared) == 25 * 24 // 2
        assert len(set(matcher.compared)) == 25 * 24 // 2

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_all_singleton_blocks(self, strategy):
        entities = [make_entity(f"e{i}", f"k{i}") for i in range(10)]
        matcher, _ = run_and_record(strategy, entities, m=2, r=3)
        assert matcher.compared == []

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_more_reduce_tasks_than_pairs(self, strategy):
        entities = [make_entity(f"e{i}", "k") for i in range(3)]
        matcher, _ = run_and_record(strategy, entities, m=2, r=50)
        assert set(matcher.compared) == blocked_pairs(entities, key_blocking())

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_single_reduce_task(self, strategy):
        entities = random_keyed_entities(30, 4, seed=77)
        matcher, _ = run_and_record(strategy, entities, m=3, r=1)
        assert set(matcher.compared) == blocked_pairs(entities, key_blocking())
        assert len(matcher.compared) == len(set(matcher.compared))

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_one_map_task(self, strategy):
        entities = random_keyed_entities(30, 4, seed=78)
        matcher, _ = run_and_record(strategy, entities, m=1, r=4)
        assert set(matcher.compared) == blocked_pairs(entities, key_blocking())


class TestMatchOutput:
    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_always_matcher_returns_every_pair(self, strategy):
        entities = random_keyed_entities(25, 3, seed=5)
        workflow = ERPipeline(
            strategy,
            key_blocking(),
            AlwaysMatcher(),
            num_map_tasks=2,
            num_reduce_tasks=4,
        )
        result = workflow.run(entities)
        assert result.matches.pair_ids == blocked_pairs(entities, key_blocking())

    def test_strategies_produce_identical_matches(self):
        entities = random_keyed_entities(40, 5, seed=6)
        results = {}
        for strategy in STRATEGY_NAMES:
            workflow = ERPipeline(
                strategy,
                key_blocking(),
                AlwaysMatcher(),
                num_map_tasks=3,
                num_reduce_tasks=5,
            )
            results[strategy] = workflow.run(entities).matches
        assert results["basic"] == results["blocksplit"] == results["pairrange"]


class TestInputHandling:
    def test_accepts_prebuilt_partitions(self):
        entities = random_keyed_entities(20, 3, seed=8)
        partitions = make_partitions(entities, 4)
        matcher = RecordingMatcher()
        workflow = ERPipeline("blocksplit", key_blocking(), matcher, num_reduce_tasks=3)
        workflow.run(partitions)
        assert set(matcher.compared) == blocked_pairs(entities, key_blocking())

    def test_entities_without_blocking_key_are_ignored(self):
        from repro.er.entity import Entity

        keyed = [make_entity(f"e{i}", "k") for i in range(4)]
        unkeyed = [Entity(f"u{i}", {"title": "t"}) for i in range(3)]
        matcher = RecordingMatcher()
        workflow = ERPipeline(
            "pairrange", key_blocking(), matcher, num_map_tasks=2, num_reduce_tasks=2
        )
        workflow.run(keyed + unkeyed)
        assert set(matcher.compared) == blocked_pairs(keyed, key_blocking())
