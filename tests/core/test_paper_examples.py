"""The paper's running example (Figures 3-7), asserted number by number.

Data: 14 entities A-O over blocking keys w, x, y, z in two partitions

    Π0 = A(w) B(w) C(x) D(y) E(y) F(z) G(z)
    Π1 = H(w) J(w) K(x) L(y) M(z) N(z) O(z)

giving block sizes w:4, x:2, y:3, z:5 — the sizes that reproduce every
figure of Sections III-V (blocks sorted alphabetically get indexes
0..3, matching the paper's w→0 … z→3 assignment).
"""

from __future__ import annotations

import pytest

from repro.core.bdm import BlockDistributionMatrix, compute_bdm
from repro.core.blocksplit import BlockSplitJob
from repro.core.enumeration import PairEnumeration, PairRangeSpec
from repro.core.match_tasks import generate_match_tasks, plan_block_split
from repro.core.pairrange import PairRangeJob
from repro.core.planning import plan_blocksplit, plan_pairrange
from repro.er.matching import RecordingMatcher
from repro.mapreduce.runtime import LocalRuntime
from repro.mapreduce.types import Partition

from ..conftest import key_blocking, make_entity

PARTITION_0 = [("A", "w"), ("B", "w"), ("C", "x"), ("D", "y"), ("E", "y"), ("F", "z"), ("G", "z")]
PARTITION_1 = [("H", "w"), ("J", "w"), ("K", "x"), ("L", "y"), ("M", "z"), ("N", "z"), ("O", "z")]


def paper_partitions() -> list[Partition]:
    parts = []
    for index, rows in enumerate((PARTITION_0, PARTITION_1)):
        entities = [make_entity(eid, key) for eid, key in rows]
        parts.append(Partition.from_values(entities, index=index))
    return parts


def paper_bdm() -> BlockDistributionMatrix:
    runtime = LocalRuntime()
    bdm, _job, _annotated = compute_bdm(
        runtime, paper_partitions(), key_blocking(), num_reduce_tasks=3
    )
    return bdm


class TestFigure4Bdm:
    """Figure 4: the block distribution matrix of the running example."""

    def test_block_order_and_sizes(self):
        bdm = paper_bdm()
        assert bdm.block_keys == ["w", "x", "y", "z"]
        assert bdm.block_sizes() == [4, 2, 3, 5]

    def test_per_partition_counts(self):
        bdm = paper_bdm()
        expected = {
            ("w", 0): 2, ("w", 1): 2,
            ("x", 0): 1, ("x", 1): 1,
            ("y", 0): 2, ("y", 1): 1,
            ("z", 0): 2, ("z", 1): 3,
        }
        for (key, partition), count in expected.items():
            assert bdm.size(bdm.block_index(key), partition) == count

    def test_z_partition1_reduce_output(self):
        # "the last reduce task ... outputs [z, 1, 3]".
        bdm = paper_bdm()
        assert bdm.size(bdm.block_index("z"), 1) == 3

    def test_total_pairs_is_20(self):
        # "The match work ... ranges from 1 to 10 pair comparisons".
        bdm = paper_bdm()
        assert bdm.pairs() == 20
        assert [bdm.block_pairs(k) for k in range(4)] == [6, 1, 3, 10]

    def test_largest_block_half_of_comparisons(self):
        # "the largest block with key z entails 50% of all comparisons
        #  although it contains only 35% (5 of 14) of all entities."
        bdm = paper_bdm()
        z = bdm.block_index("z")
        assert bdm.block_pairs(z) / bdm.pairs() == pytest.approx(0.5)
        assert bdm.size(z) / bdm.total_entities() == pytest.approx(5 / 14)


class TestFigure5BlockSplit:
    """Figure 5 and Section IV's worked numbers."""

    def test_only_block_z_is_split(self):
        bdm = paper_bdm()
        tasks, split_blocks, threshold = generate_match_tasks(bdm, num_reduce_tasks=3)
        assert threshold == pytest.approx(20 / 3)
        assert split_blocks == {bdm.block_index("z")}

    def test_match_tasks_and_sizes(self):
        # Match tasks 3.0, 3.0×1, 3.1 with 1, 6, 3 comparisons.
        bdm = paper_bdm()
        tasks, _split, _threshold = generate_match_tasks(bdm, num_reduce_tasks=3)
        by_key = {t.key: t.comparisons for t in tasks}
        assert by_key == {
            (0, 0, 0): 6,   # 0.*
            (1, 0, 0): 1,   # 1.*
            (2, 0, 0): 3,   # 2.*
            (3, 0, 0): 1,   # 3.0
            (3, 1, 0): 6,   # 3.0×1 (stored as (k, max, min))
            (3, 1, 1): 3,   # 3.1
        }

    def test_greedy_assignment_loads(self):
        # "Each reduce task has to process between six and seven
        #  comparisons" — ordering 0.*, 3.0×1, 2.*, 3.1, 1.*, 3.0
        #  yields loads (7, 7, 6).
        assignment = plan_block_split(paper_bdm(), num_reduce_tasks=3)
        assert sorted(assignment.reduce_comparisons) == [6, 7, 7]
        assert sum(assignment.reduce_comparisons) == 20

    def test_map_emits_19_key_value_pairs(self):
        # "The replication of the five entities for the split block
        #  leads to 19 key-value pairs for the 14 input entities."
        bdm = paper_bdm()
        plan = plan_blocksplit(bdm, num_reduce_tasks=3)
        assert plan.total_map_output_kv == 19

        runtime = LocalRuntime()
        bdm2, _job, annotated = compute_bdm(
            runtime, paper_partitions(), key_blocking(), num_reduce_tasks=3
        )
        job = BlockSplitJob(bdm2, RecordingMatcher(), num_reduce_tasks=3)
        result = runtime.run(job, annotated, num_reduce_tasks=3)
        assert result.map_output_records() == 19


class TestFigures6And7PairRange:
    """Figure 6's enumeration and Figure 7's dataflow."""

    def test_ranges(self):
        spec = PairRangeSpec(20, 3)
        assert [spec.bounds(k) for k in range(3)] == [(0, 6), (7, 13), (14, 19)]

    def test_entity_m_emissions(self):
        # "map therefore outputs two tuples (1.3.2, M) and (2.3.2, M)".
        bdm = paper_bdm()
        runtime = LocalRuntime()
        bdm2, _job, annotated = compute_bdm(
            runtime, paper_partitions(), key_blocking(), num_reduce_tasks=3
        )
        job = PairRangeJob(bdm2, RecordingMatcher(), num_reduce_tasks=3)
        result = runtime.run(job, annotated, num_reduce_tasks=3)
        m_keys = sorted(
            record.key
            for task in result.map_tasks
            for record in task.output
            if record.value[0].entity_id == "M"
        )
        z = bdm.block_index("z")
        assert [tuple(k) for k in m_keys] == [(1, z, 2), (2, z, 2)]

    def test_second_reduce_task_receives_all_of_z(self):
        # "The second reduce task not only receives M but all entities
        #  of Φ3 (F, G, M, N, and O)."
        runtime = LocalRuntime()
        bdm, _job, annotated = compute_bdm(
            runtime, paper_partitions(), key_blocking(), num_reduce_tasks=3
        )
        job = PairRangeJob(bdm, RecordingMatcher(), num_reduce_tasks=3)
        result = runtime.run(job, annotated, num_reduce_tasks=3)
        z = bdm.block_index("z")
        task1_z_entities = {
            value[0].entity_id
            for record_key, value in _reduce_inputs(result, reduce_index=1)
            if record_key.block == z
        }
        assert task1_z_entities == {"F", "G", "M", "N", "O"}

    def test_third_reduce_task_misses_f(self):
        # "... the third reduce task which receives all entities of Φ3
        #  but F".
        runtime = LocalRuntime()
        bdm, _job, annotated = compute_bdm(
            runtime, paper_partitions(), key_blocking(), num_reduce_tasks=3
        )
        job = PairRangeJob(bdm, RecordingMatcher(), num_reduce_tasks=3)
        result = runtime.run(job, annotated, num_reduce_tasks=3)
        z = bdm.block_index("z")
        task2_z_entities = {
            value[0].entity_id
            for record_key, value in _reduce_inputs(result, reduce_index=2)
            if record_key.block == z
        }
        assert task2_z_entities == {"G", "M", "N", "O"}

    def test_reduce_workloads_7_7_6(self):
        bdm = paper_bdm()
        plan = plan_pairrange(bdm, num_reduce_tasks=3)
        assert list(plan.reduce_comparisons) == [7, 7, 6]

    def test_entity_index_of_m_is_2(self):
        # "M is the third entity of Φ3 and is thus assigned entity index 2."
        bdm = paper_bdm()
        z = bdm.block_index("z")
        assert bdm.entity_index_offset(z, 1) == 2


def _reduce_inputs(result, reduce_index):
    """Reconstruct (key, value) reduce inputs from the map outputs."""
    from repro.mapreduce.shuffle import partition_map_output

    job_outputs = [task.output for task in result.map_tasks]
    # Re-partition exactly like the job did: PairRangeKey.range_index.
    pairs = []
    for output in job_outputs:
        for record in output:
            if record.key.range_index == reduce_index:
                pairs.append((record.key, record.value))
    return pairs


class TestFullExampleCoverage:
    """Both strategies compare exactly the 20 pairs of the example."""

    @pytest.mark.parametrize("strategy", ["basic", "blocksplit", "pairrange"])
    def test_exactly_20_distinct_pairs(self, strategy):
        from repro.engine import ERPipeline

        matcher = RecordingMatcher()
        workflow = ERPipeline(
            strategy, key_blocking(), matcher, num_map_tasks=2, num_reduce_tasks=3
        )
        workflow.run(paper_partitions())
        assert len(matcher.compared) == 20
        assert len(set(matcher.compared)) == 20
