"""Block distribution matrix: construction, MR job, invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bdm import (
    ANNOTATED_DIR,
    BdmJob,
    BlockDistributionMatrix,
    MISSING_KEY_COUNTER,
    compute_bdm,
)
from repro.core.bdm import analytic_bdm
from repro.mapreduce.counters import StandardCounter
from repro.mapreduce.runtime import LocalRuntime
from repro.mapreduce.types import Partition, make_partitions

from ..conftest import key_blocking, make_entity, random_keyed_entities


class TestConstruction:
    def test_from_counts(self):
        bdm = BlockDistributionMatrix.from_counts(
            {("a", 0): 2, ("a", 1): 3, ("b", 0): 1}, num_partitions=2
        )
        assert bdm.num_blocks == 2
        assert bdm.num_partitions == 2
        assert bdm.size(bdm.block_index("a")) == 5
        assert bdm.size(bdm.block_index("b"), 1) == 0

    def test_rejects_mismatched_rows(self):
        with pytest.raises(ValueError):
            BlockDistributionMatrix(["a"], [[1, 2], [3, 4]])

    def test_rejects_duplicate_keys(self):
        with pytest.raises(ValueError):
            BlockDistributionMatrix(["a", "a"], [[1], [1]])

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            BlockDistributionMatrix(["a", "b"], [[1, 2], [3]])

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            BlockDistributionMatrix(["a"], [[0, 0]])

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            BlockDistributionMatrix(["a"], [[-1, 2]])

    def test_unknown_block_key(self):
        bdm = BlockDistributionMatrix(["a"], [[1]])
        with pytest.raises(KeyError):
            bdm.block_index("zzz")

    def test_rejects_bad_partition_index(self):
        with pytest.raises(ValueError):
            BlockDistributionMatrix.from_counts({("a", 5): 1}, num_partitions=2)


class TestAccessors:
    def _bdm(self) -> BlockDistributionMatrix:
        return BlockDistributionMatrix(
            ["a", "b", "c"], [[2, 0, 1], [0, 4, 0], [1, 1, 1]]
        )

    def test_partition_sizes_are_column_sums(self):
        assert self._bdm().partition_sizes() == [3, 5, 2]

    def test_total_entities(self):
        assert self._bdm().total_entities() == 10

    def test_pairs(self):
        assert self._bdm().pairs() == 3 + 6 + 3

    def test_entity_index_offset(self):
        bdm = self._bdm()
        assert bdm.entity_index_offset(0, 0) == 0
        assert bdm.entity_index_offset(0, 2) == 2
        assert bdm.entity_index_offset(2, 1) == 1
        assert bdm.entity_index_offset(2, 2) == 2

    def test_occupied_partitions(self):
        bdm = self._bdm()
        assert bdm.occupied_partitions(0) == [0, 2]
        assert bdm.occupied_partitions(1) == [1]

    def test_largest_block(self):
        assert self._bdm().largest_block() == (1, 4)


class TestBdmJob:
    def test_matches_analytic_bdm(self):
        entities = random_keyed_entities(60, 6, seed=3)
        partitions = make_partitions(entities, 4)
        runtime = LocalRuntime()
        bdm, _result, _annotated = compute_bdm(
            runtime, partitions, key_blocking(), num_reduce_tasks=3
        )
        expected = analytic_bdm(partitions, key_blocking())
        assert bdm.block_keys == expected.block_keys
        for k in range(bdm.num_blocks):
            for p in range(bdm.num_partitions):
                assert bdm.size(k, p) == expected.size(k, p)

    def test_annotated_output_preserves_partitioning(self):
        entities = random_keyed_entities(30, 4, seed=5)
        partitions = make_partitions(entities, 3)
        runtime = LocalRuntime()
        _bdm, _result, annotated = compute_bdm(
            runtime, partitions, key_blocking(), num_reduce_tasks=2
        )
        assert [p.index for p in annotated] == [0, 1, 2]
        for original, side in zip(partitions, annotated):
            original_ids = [record.value.entity_id for record in original]
            side_ids = [record.value.entity_id for record in side]
            assert original_ids == side_ids
            for record in side:
                # Annotated records carry (blocking key, entity).
                assert record.key == record.value.get("key")

    def test_entities_without_key_are_skipped_and_counted(self):
        keyed = make_entity("a", "k1")
        from repro.er.entity import Entity

        unkeyed = Entity("b", {"title": "x"})  # no "key" attribute
        partitions = [Partition.from_values([keyed, unkeyed], index=0)]
        runtime = LocalRuntime()
        bdm, result, annotated = compute_bdm(
            runtime, partitions, key_blocking(), num_reduce_tasks=1
        )
        assert bdm.total_entities() == 1
        assert result.counters.get(MISSING_KEY_COUNTER) == 1
        assert len(annotated[0]) == 1

    def test_partition_with_no_keyed_entities_yields_empty_side_file(self):
        from repro.er.entity import Entity

        partitions = [
            Partition.from_values([make_entity("a", "k1")], index=0),
            Partition.from_values([Entity("b", {"title": "x"})], index=1),
        ]
        runtime = LocalRuntime()
        _bdm, _result, annotated = compute_bdm(
            runtime, partitions, key_blocking(), num_reduce_tasks=1
        )
        assert len(annotated) == 2
        assert len(annotated[1]) == 0

    def test_combiner_reduces_shuffle_volume(self):
        entities = random_keyed_entities(50, 3, seed=9)
        partitions = make_partitions(entities, 2)
        with_combiner = LocalRuntime()
        _b1, result_on, _a1 = compute_bdm(
            with_combiner, partitions, key_blocking(), num_reduce_tasks=2
        )
        without_combiner = LocalRuntime()
        _b2, result_off, _a2 = compute_bdm(
            without_combiner,
            partitions,
            key_blocking(),
            num_reduce_tasks=2,
            use_combiner=False,
        )
        on = result_on.counters.get(StandardCounter.MAP_OUTPUT_RECORDS)
        off = result_off.counters.get(StandardCounter.MAP_OUTPUT_RECORDS)
        assert off == 50
        assert on < off
        # Combined or not, the resulting BDM is identical.
        assert _b1.block_sizes() == _b2.block_sizes()


class TestBdmInvariants:
    @given(
        st.integers(min_value=1, max_value=80),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30)
    def test_row_and_column_sums(self, n, keys, m, seed):
        entities = random_keyed_entities(n, keys, seed=seed)
        partitions = make_partitions(entities, m)
        bdm = analytic_bdm(partitions, key_blocking())
        # Invariant 6: column sums = partition sizes, total = |R|.
        assert sum(bdm.partition_sizes()) == n
        assert bdm.total_entities() == n
        assert [len(p) for p in partitions] == bdm.partition_sizes()
