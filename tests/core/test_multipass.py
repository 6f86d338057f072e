"""Multi-pass blocking on top of the load-balanced workflows."""

from __future__ import annotations

import pytest

from repro.core.multipass import MultiPassERWorkflow
from repro.er.blocking import AttributeBlocking, MultiPassBlocking, PrefixBlocking
from repro.er.entity import Entity
from repro.er.matching import AlwaysMatcher, RecordingMatcher, brute_force_pairs


def entity(eid, title, manufacturer):
    return Entity(eid, {"title": title, "manufacturer": manufacturer})


ENTITIES = [
    entity("a", "alpha one", "acme"),
    entity("b", "alpha two", "acme"),
    entity("c", "beta one", "acme"),
    entity("d", "beta two", "bravo"),
    entity("e", "gamma", "bravo"),
]

MULTI = MultiPassBlocking(
    [PrefixBlocking("title", 3), AttributeBlocking("manufacturer")]
)


def multi_candidates(entities):
    pairs = set()
    for blocking in MULTI.passes:
        for block in blocking.partition_entities(entities).values():
            ids = sorted(e.qualified_id for e in block)
            for i, a in enumerate(ids):
                for b in ids[i + 1:]:
                    pairs.add((a, b))
    return pairs


@pytest.mark.parametrize("strategy", ["basic", "blocksplit", "pairrange"])
class TestMultiPass:
    def test_union_of_pass_candidates_matched(self, strategy):
        workflow = MultiPassERWorkflow(
            strategy, MULTI, AlwaysMatcher, num_map_tasks=2, num_reduce_tasks=3
        )
        result = workflow.run(ENTITIES)
        assert result.matches.pair_ids == multi_candidates(ENTITIES)

    def test_redundancy_accounting(self, strategy):
        workflow = MultiPassERWorkflow(
            strategy, MULTI, RecordingMatcher, num_map_tasks=2, num_reduce_tasks=3
        )
        result = workflow.run(ENTITIES)
        # a-b share both the title prefix and the manufacturer block and
        # c pairs with a and b via manufacturer only; d-e via bravo...
        # Total per-pass comparisons exceed the distinct union by the
        # doubly-blocked pairs.
        union = multi_candidates(ENTITIES)
        assert result.total_comparisons >= len(union)
        assert result.redundant_comparisons == result.total_comparisons - len(union)
        assert result.redundant_comparisons >= 1  # a-b is doubly blocked

    def test_multipass_finds_more_than_single_pass(self, strategy):
        single = PrefixBlocking("title", 3)
        single_pairs = set()
        for block in single.partition_entities(ENTITIES).values():
            ids = sorted(e.qualified_id for e in block)
            for i, a in enumerate(ids):
                for b in ids[i + 1:]:
                    single_pairs.add((a, b))
        workflow = MultiPassERWorkflow(
            strategy, MULTI, AlwaysMatcher, num_map_tasks=2, num_reduce_tasks=3
        )
        result = workflow.run(ENTITIES)
        assert single_pairs < result.matches.pair_ids

    def test_pass_results_exposed(self, strategy):
        workflow = MultiPassERWorkflow(
            strategy, MULTI, AlwaysMatcher, num_map_tasks=2, num_reduce_tasks=3
        )
        result = workflow.run(ENTITIES)
        assert result.num_passes == 2
        for pass_result in result.pass_results:
            assert pass_result.strategy == strategy


class TestSinglePassEquivalence:
    def test_one_pass_equals_plain_workflow(self):
        from repro.engine import ERPipeline

        single = MultiPassBlocking([PrefixBlocking("title", 3)])
        multi = MultiPassERWorkflow(
            "pairrange", single, AlwaysMatcher, num_map_tasks=2, num_reduce_tasks=3
        ).run(ENTITIES)
        plain = ERPipeline(
            "pairrange",
            PrefixBlocking("title", 3),
            AlwaysMatcher(),
            num_map_tasks=2,
            num_reduce_tasks=3,
        ).run(ENTITIES)
        assert multi.matches == plain.matches
        assert multi.redundant_comparisons == 0
