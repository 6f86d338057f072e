"""PipelineResult accessors on the two-source path."""

from __future__ import annotations

import pytest

from repro.core.two_source import DualSourceBDM
from repro.engine import ERPipeline
from repro.er.matching import RecordingMatcher

from ..conftest import blocked_cross_pairs, key_blocking, random_keyed_entities


@pytest.fixture
def dual_result():
    r_entities = random_keyed_entities(25, 4, seed=31, source="R")
    s_entities = random_keyed_entities(20, 4, seed=32, source="S")
    workflow = ERPipeline(
        "blocksplit", key_blocking(), RecordingMatcher(), num_reduce_tasks=4
    )
    result = workflow.run(
        r_entities, s_entities, num_r_partitions=2, num_s_partitions=3
    )
    return result, r_entities, s_entities


class TestDualResult:
    def test_bdm_is_dual(self, dual_result):
        result, _r, _s = dual_result
        assert isinstance(result.bdm, DualSourceBDM)
        assert result.bdm.num_partitions == 5
        assert result.bdm.r_partitions == [0, 1]

    def test_jobs_present(self, dual_result):
        result, _r, _s = dual_result
        assert result.job1 is not None
        assert result.job2.job_name == "job2-blocksplit-2src"
        assert len(result.job2.reduce_tasks) == 4

    def test_total_comparisons_equal_cross_pairs(self, dual_result):
        result, r_entities, s_entities = dual_result
        expected = blocked_cross_pairs(r_entities + s_entities, key_blocking())
        assert result.total_comparisons() == len(expected)
        assert sum(result.reduce_comparisons()) == result.total_comparisons()

    def test_matched_pairs_are_cross_source(self):
        from repro.er.matching import AlwaysMatcher

        r_entities = random_keyed_entities(15, 3, seed=33, source="R")
        s_entities = random_keyed_entities(12, 3, seed=34, source="S")
        workflow = ERPipeline(
            "pairrange", key_blocking(), AlwaysMatcher(), num_reduce_tasks=3
        )
        result = workflow.run(r_entities, s_entities)
        assert len(result.matches) > 0
        for pair in result.matches:
            assert pair.id1.startswith("R:")
            assert pair.id2.startswith("S:")
