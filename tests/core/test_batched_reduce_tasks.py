"""One kernel call per reduce task: reduce task by reduce task, scoring
a task's groups together (``run_batched_group`` → ``finish_reduce`` →
one ``match_batch`` over a ``ConcatPairs``) yields the same
``ReduceTaskResult.output`` tuple and the same counters as the scalar
streaming loops — for every strategy, two-source and delta jobs, through
the pre-flush a directly-emitting scalar fallback makes, and through the
pending-pair limit."""

from __future__ import annotations

import pytest

import repro.core.match_tasks as match_tasks
from repro.core.bdm import BlockDistributionMatrix
from repro.core.blocksplit import BlockSplitJob
from repro.core.delta import DeltaBDM, DeltaBlockSplitJob
from repro.core.keys import BlockSplitKey, DualBlockSplitKey
from repro.core.strategy import STRATEGIES
from repro.core.two_source import DualBlockSplitJob, DualSourceBDM
from repro.datasets.generators import generate_products
from repro.engine import ERPipeline
from repro.engine.incremental import CorpusState
from repro.er.batch_kernel import ConcatPairs
from repro.er.blocking import PrefixBlocking
from repro.er.entity import Entity
from repro.er.matching import ThresholdMatcher
from repro.mapreduce.job import JobConfig
from repro.mapreduce.runtime import execute_reduce_task
from repro.mapreduce.types import KeyValue, make_partitions

ALL_STRATEGIES = sorted(STRATEGIES)
DUAL_STRATEGIES = [n for n in ALL_STRATEGIES if STRATEGIES[n]().requires_bdm]
NUM_MAP = 3
NUM_REDUCE = 2  # few reduce tasks, many blocks: many groups per task


class CountingMatcher(ThresholdMatcher):
    """Records the spec of every ``match_batch`` call; overrides nothing
    the prepared fast path looks at, so the batch kernel stays active."""

    def __init__(self):
        super().__init__("title", 0.8)
        self.batches: list = []

    def match_batch(self, prepared, pairs):
        self.batches.append(pairs)
        return super().match_batch(prepared, pairs)


@pytest.fixture(scope="module")
def entities():
    # ~60 blocks of a handful of entities: every reduce task gets dozens
    # of small groups.
    return generate_products(300, seed=131, num_blocks=60)


def _pipeline(strategy, matcher, batch):
    return ERPipeline(
        strategy,
        PrefixBlocking("title"),
        matcher,
        num_map_tasks=NUM_MAP,
        num_reduce_tasks=NUM_REDUCE,
        batch_kernel=batch,
    )


def _run(strategy, entities, *, batch, mode):
    matcher = CountingMatcher()
    pipeline = _pipeline(strategy, matcher, batch)
    if mode == "dual":
        half = len(entities) // 2
        result = pipeline.run(entities[:half], entities[half:])
    elif mode == "delta":
        old, new = entities[:200], entities[200:]
        old_partitions = make_partitions(old, NUM_MAP)
        state = CorpusState.empty().advanced(
            pipeline.run(old_partitions), old_partitions, pipeline.blocking
        )
        matcher.batches.clear()
        result = pipeline.run_delta(make_partitions(new, NUM_MAP), state)
    else:
        result = pipeline.run(entities)
    return result, matcher


def _tasks(result):
    return [
        (task.reduce_index, task.input_groups, task.output, task.counters.as_dict())
        for task in result.job2.reduce_tasks
    ]


CASES = (
    [(s, "single") for s in ALL_STRATEGIES]
    + [(s, "dual") for s in DUAL_STRATEGIES]
    + [(s, "delta") for s in ALL_STRATEGIES]
)


class TestTaskWithManySmallGroups:
    @pytest.mark.parametrize("strategy,mode", CASES)
    def test_same_task_results_one_call_per_task(self, entities, strategy, mode):
        batched, matcher = _run(strategy, entities, batch=True, mode=mode)
        scalar, _ = _run(strategy, entities, batch=False, mode=mode)
        assert _tasks(batched) == _tasks(scalar)
        assert batched.matches.pair_ids
        tasks = batched.job2.reduce_tasks
        assert max(task.input_groups for task in tasks) > 5
        # Far below the pending-pair limit: one call per reduce task.
        assert len(matcher.batches) == sum(1 for t in tasks if t.input_groups)
        assert sum(spec.count for spec in matcher.batches) == (
            batched.total_comparisons()
        )
        assert any(isinstance(spec, ConcatPairs) for spec in matcher.batches)

    @pytest.mark.parametrize("strategy,mode", CASES)
    @pytest.mark.parametrize("limit", [1, 40])
    def test_task_crossing_the_pending_pair_limit(
        self, entities, strategy, mode, limit, monkeypatch
    ):
        """With the limit far below a task's pairs the task flushes many
        times on the way; outputs and counters do not notice."""
        monkeypatch.setattr(match_tasks, "MAX_PENDING_PAIRS", limit)
        batched, matcher = _run(strategy, entities, batch=True, mode=mode)
        monkeypatch.undo()
        scalar, _ = _run(strategy, entities, batch=False, mode=mode)
        assert _tasks(batched) == _tasks(scalar)
        tasks = batched.job2.reduce_tasks
        assert len(matcher.batches) > len(tasks)
        assert sum(spec.count for spec in matcher.batches) == (
            batched.total_comparisons()
        )
        # A flush holds at most the limit — or one group larger than it.
        for spec in matcher.batches:
            assert spec.count <= limit or not isinstance(spec, ConcatPairs)

    def test_real_limit_is_crossed_by_a_large_task(self):
        """No patching: one reduce task whose groups together exceed
        ``MAX_PENDING_PAIRS`` is scored in more than one call."""
        per_group = 130  # T(130) = 8385 pairs
        groups = match_tasks.MAX_PENDING_PAIRS // 8385 + 3
        titles = [f"{g:03d} item" for g in range(groups)]
        bdm = BlockDistributionMatrix(titles, [[per_group] for _ in titles])
        bucket = [
            KeyValue(
                BlockSplitKey(0, g, 0, 0),
                (Entity(f"e{g}-{k}", {"title": f"{titles[g]} {k % 7}"}), 0),
            )
            for g in range(groups)
            for k in range(per_group)
        ]
        results, matchers = _reduce_both(
            lambda m, batch: BlockSplitJob(bdm, m, 1, batch_kernel=batch), bucket
        )
        assert results[True].counters.as_dict() == results[False].counters.as_dict()
        assert results[True].output == results[False].output
        counts = [spec.count for spec in matchers[True].batches]
        assert len(counts) == 2 and sum(counts) == groups * 8385
        assert counts[0] <= match_tasks.MAX_PENDING_PAIRS < counts[0] + 8385


def _reduce_both(make_job, bucket):
    """The same hand-built bucket through one reduce task of the batched
    and of the scalar job."""
    config = JobConfig(num_map_tasks=2, num_reduce_tasks=1)
    results, matchers = {}, {}
    for batch in (True, False):
        matcher = CountingMatcher()
        results[batch] = execute_reduce_task(
            make_job(matcher, batch), config, 0, list(bucket)
        )
        matchers[batch] = matcher
    return results, matchers


def _near_duplicates(prefix, count):
    return [
        Entity(f"{prefix}{k}", {"title": f"{prefix} kettle {k % 3}"})
        for k in range(count)
    ]


class TestDirectEmittersFlushFirst:
    """A group the stable shuffle would never produce — its two runs
    interleaved — takes the scalar fallback, which emits directly.  It
    sits in the *middle* of the task: the groups parked before it must
    be scored and emitted first, the groups after it later, so the
    output keeps group order."""

    def _check(self, make_job, bucket, fallback_pairs):
        results, matchers = _reduce_both(make_job, bucket)
        batched, scalar = results[True], results[False]
        assert batched.output == scalar.output
        assert batched.counters.as_dict() == scalar.counters.as_dict()
        assert batched.input_groups == 5
        # Groups 0–1 flushed ahead of the fallback group, groups 3–4 at
        # the end of the task; the fallback's pairs went per pair.
        specs = matchers[True].batches
        assert [len(spec.specs) for spec in specs] == [2, 2]
        assert matchers[True].comparisons == matchers[False].comparisons
        assert matchers[True].comparisons - sum(s.count for s in specs) == (
            fallback_pairs
        )
        # Every group contributes matches, in group order.
        blocks = [pair.value.id1.split(":b")[1][0] for pair in batched.output]
        assert blocks == sorted(blocks) and set(blocks) == set("01234")

    def _self_group(self, key, block):
        return [
            KeyValue(key, (entity, 0))
            for entity in _near_duplicates(f"b{block}", 4)
        ]

    def test_blocksplit_interleaved_cross_group(self):
        bdm = BlockDistributionMatrix(
            [f"b{k}" for k in range(5)], [[4, 4] for _ in range(5)]
        )
        bucket = []
        for block in (0, 1, 3, 4):
            bucket += self._self_group(BlockSplitKey(0, block, 0, 0), block)
        cross = _near_duplicates("b2", 6)
        bucket += [
            KeyValue(BlockSplitKey(0, 2, 1, 0), (entity, k % 2))  # 0,1,0,1,…
            for k, entity in enumerate(cross)
        ]
        self._check(
            lambda m, batch: BlockSplitJob(bdm, m, 1, batch_kernel=batch),
            bucket,
            fallback_pairs=6,  # buffer grows 1,2,3 as the 1s stream past
        )

    def test_delta_blocksplit_interleaved_cross_group(self):
        matrix = BlockDistributionMatrix(
            [f"b{k}" for k in range(5)], [[4, 4] for _ in range(5)]
        )
        bdm = DeltaBDM(matrix, 1)
        bucket = []
        cross = _near_duplicates("b2", 6)
        bucket += [
            KeyValue(BlockSplitKey(0, 2, 1, 0), (entity, k % 2))
            for k, entity in enumerate(cross)
        ]

        def make_job(matcher, batch):
            job = DeltaBlockSplitJob(bdm, matcher, 1, batch_kernel=batch)
            # Route by hand: every block split, so (k, 1, 1) groups are
            # sub-block self-joins and (2, 1, 0) is a cross product.
            job.split_blocks = frozenset(range(5))
            return job

        for block in (0, 1, 3, 4):
            bucket += [
                KeyValue(BlockSplitKey(0, block, 1, 1), (entity, 1))
                for entity in _near_duplicates(f"b{block}", 4)
            ]
        self._check(make_job, bucket, fallback_pairs=6)

    def test_dual_blocksplit_r_after_s(self):
        matrix = BlockDistributionMatrix(
            [f"b{k}" for k in range(5)], [[2, 2] for _ in range(5)]
        )
        bdm = DualSourceBDM(matrix, ["R", "S"])

        def group(block, sources):
            entities = _near_duplicates(f"b{block}", len(sources))
            return [
                KeyValue(
                    DualBlockSplitKey(0, block, 0, 0, source),
                    Entity(e.entity_id, dict(e.attributes), source),
                )
                for e, source in zip(entities, sources)
            ]

        bucket = []
        for block in (0, 1, 3, 4):
            bucket += group(block, "RRSS")
        # An R after an S: sorted on the full key this cannot happen, so
        # feed the group through a job that groups without sorting.
        bucket += group(2, "RSRS")

        def make_job(matcher, batch):
            job = DualBlockSplitJob(bdm, matcher, 1, batch_kernel=batch)
            job.packed_projection = None
            job.sort_key = lambda key: (key.block,)  # stable: keeps R,S,R,S
            return job

        self._check(make_job, bucket, fallback_pairs=3)  # S sees 1, then 2 Rs
