"""Appendix I's worked example (Figures 15-17), structural assertions.

Data modelled on Figure 15(a): source R in partition Π0, source S in
partitions Π1, Π2; blocking keys w-z with

    Φ(w): |R|=2, |S|=2  ->  4 pairs   (unsplit, 4 = avg workload)
    Φ(y): |R|=1, |S|=0  ->  0 pairs   (not considered)
    Φ(x): |R|=1, |S|=2  ->  2 pairs   (unsplit)
    Φ(z): |R|=2, |S|=3  ->  6 pairs   (split into 2 cross tasks)

for 12 total pairs, matching the paper's "The BDM indicates 12 overall
pairs so that the average reduce workload equals 4 pairs" and the split
of the largest block into tasks of 4 and 2 pairs.
"""

from __future__ import annotations

import pytest

from repro.core.planning import plan_dual_blocksplit, plan_dual_pairrange
from repro.core.two_source import compute_dual_bdm, generate_dual_match_tasks
from repro.core.enumeration import DualPairEnumeration, PairRangeSpec
from repro.core.match_tasks import assign_greedy
from repro.engine import ERPipeline
from repro.er.matching import RecordingMatcher
from repro.mapreduce.runtime import LocalRuntime
from repro.mapreduce.types import Partition

from ..conftest import key_blocking, make_entity

# Π0 (R): A(w) B(w) C(z) D(z) E(y) F(x)
# Π1 (S): G(w) H(w) J(z) K(z)
# Π2 (S): L(x) M(x) N(z)
PARTITION_R0 = [("A", "w"), ("B", "w"), ("C", "z"), ("D", "z"), ("E", "y"), ("F", "x")]
PARTITION_S1 = [("G", "w"), ("H", "w"), ("J", "z"), ("K", "z")]
PARTITION_S2 = [("L", "x"), ("M", "x"), ("N", "z")]


def example_partitions() -> list[Partition]:
    parts = []
    for index, (rows, source) in enumerate(
        ((PARTITION_R0, "R"), (PARTITION_S1, "S"), (PARTITION_S2, "S"))
    ):
        entities = [make_entity(eid, key, source) for eid, key in rows]
        parts.append(Partition.from_values(entities, index=index))
    return parts


def example_bdm():
    runtime = LocalRuntime()
    bdm, _job, annotated = compute_dual_bdm(
        runtime, example_partitions(), key_blocking(), num_reduce_tasks=3
    )
    return bdm, runtime, annotated


class TestFigure15Bdm:
    def test_12_total_pairs(self):
        bdm, _rt, _ann = example_bdm()
        assert bdm.pairs() == 12

    def test_per_block_cross_pairs(self):
        bdm, _rt, _ann = example_bdm()
        by_key = {
            bdm.key_of(k): bdm.block_pairs(k) for k in range(bdm.num_blocks)
        }
        assert by_key == {"w": 4, "x": 2, "y": 0, "z": 6}

    def test_block_y_has_no_s_entities(self):
        bdm, _rt, _ann = example_bdm()
        y = bdm.block_index("y")
        assert bdm.size_r(y) == 1
        assert bdm.size_s(y) == 0


class TestFigure16BlockSplit:
    def test_largest_block_split_into_two_cross_tasks(self):
        # "The split results in the two match tasks 3.0×1 and 3.0×2"
        # with 4 and 2 comparisons.
        bdm, _rt, _ann = example_bdm()
        tasks, split, threshold = generate_dual_match_tasks(bdm, num_reduce_tasks=3)
        z = bdm.block_index("z")
        assert threshold == pytest.approx(4.0)
        assert split == {z}
        z_tasks = sorted(
            (t for t in tasks if t.block == z), key=lambda t: -t.comparisons
        )
        assert [t.comparisons for t in z_tasks] == [4, 2]
        assert [(t.i, t.j) for t in z_tasks] == [(0, 1), (0, 2)]

    def test_reduce_loads_4_4_4(self):
        # Figure 16: 0.* (4, reduce0), 3.0×1 (4, reduce1),
        # 2.* + 3.0×2 (2+2, reduce2).
        bdm, _rt, _ann = example_bdm()
        tasks, _split, _thr = generate_dual_match_tasks(bdm, num_reduce_tasks=3)
        _assignment, loads = assign_greedy(tasks, num_reduce_tasks=3)
        assert sorted(loads) == [4, 4, 4]

    def test_coverage(self):
        matcher = RecordingMatcher()
        workflow = ERPipeline(
            "blocksplit", key_blocking(), matcher, num_reduce_tasks=3
        )
        workflow.run(
            [make_entity(e, k, "R") for e, k in PARTITION_R0],
            [make_entity(e, k, "S") for e, k in PARTITION_S1]
            + [make_entity(e, k, "S") for e, k in PARTITION_S2],
            num_r_partitions=1,
            num_s_partitions=2,
        )
        assert len(matcher.compared) == 12
        assert len(set(matcher.compared)) == 12


class TestFigure17PairRange:
    def test_three_ranges_of_four(self):
        # "the resulting 12 pairs are divided into three ranges of size 4".
        bdm, _rt, _ann = example_bdm()
        enum = DualPairEnumeration(bdm.dual_block_sizes())
        spec = PairRangeSpec(enum.total_pairs, 3)
        assert spec.sizes() == [4, 4, 4]

    def test_entity_c_sent_to_ranges_1_and_2(self):
        # "entity C ∈ R is the first entity (index=0) within block Φ3.
        #  It takes part in ranges ℜ1 and ℜ2" — C's pairs span the z
        #  block's 6 pairs, offset by the preceding blocks' pairs.
        bdm, runtime, annotated = example_bdm()
        from repro.core.two_source import DualPairRangeJob

        job = DualPairRangeJob(bdm, RecordingMatcher(), num_reduce_tasks=3)
        result = runtime.run(job, annotated, num_reduce_tasks=3)
        c_keys = sorted(
            tuple(record.key)
            for task in result.map_tasks
            for record in task.output
            if record.value[0].entity_id == "C"
        )
        z = bdm.block_index("z")
        assert c_keys == [(1, z, "R", 0), (2, z, "R", 0)]

    def test_pairrange_workloads_4_4_4(self):
        bdm, _rt, _ann = example_bdm()
        plan = plan_dual_pairrange(bdm, 3)
        assert list(plan.reduce_comparisons) == [4, 4, 4]

    def test_coverage(self):
        matcher = RecordingMatcher()
        workflow = ERPipeline(
            "pairrange", key_blocking(), matcher, num_reduce_tasks=3
        )
        workflow.run(
            [make_entity(e, k, "R") for e, k in PARTITION_R0],
            [make_entity(e, k, "S") for e, k in PARTITION_S1]
            + [make_entity(e, k, "S") for e, k in PARTITION_S2],
            num_r_partitions=1,
            num_s_partitions=2,
        )
        assert len(matcher.compared) == 12
        assert len(set(matcher.compared)) == 12


class TestBlockSplitPlanLoads:
    def test_dual_blocksplit_plan_balances(self):
        bdm, _rt, _ann = example_bdm()
        plan = plan_dual_blocksplit(bdm, 3)
        assert sorted(plan.reduce_comparisons) == [4, 4, 4]
        assert plan.total_comparisons == 12
