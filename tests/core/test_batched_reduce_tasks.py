"""One kernel call per reduce task: reduce task by reduce task, scoring
a task's groups together (``run_batched_group`` → ``finish_reduce`` →
one ``match_batch`` over a ``ConcatPairs``) yields the same
``ReduceTaskResult.output`` tuple and the same counters as the per-pair
matcher (``similarity_fn=``: one ``match`` per pair, in the order of the
paper's streaming loops) through the same jobs — for every strategy,
two-source and delta jobs, and through the pending-pair limit.  A group
whose two runs arrive interleaved fails closed with
``ShuffleOrderError``."""

from __future__ import annotations

import pickle

import pytest

import repro.core.match_tasks as match_tasks
from repro.core import ShuffleOrderError
from repro.core.bdm import BlockDistributionMatrix
from repro.core.blocksplit import BlockSplitJob
from repro.core.delta import DeltaBDM, DeltaBlockSplitJob
from repro.core.keys import BlockSplitKey, DualBlockSplitKey, DualPairRangeKey
from repro.core.strategy import STRATEGIES
from repro.core.two_source import DualBlockSplitJob, DualPairRangeJob, DualSourceBDM
from repro.datasets.generators import generate_products
from repro.engine import ERPipeline
from repro.engine.incremental import CorpusState
from repro.er.batch_kernel import ConcatPairs
from repro.er.blocking import PrefixBlocking
from repro.er.entity import Entity
from repro.er.matching import ThresholdMatcher
from repro.er.similarity import levenshtein_similarity_bounded
from repro.mapreduce.job import JobConfig, TaskContext
from repro.mapreduce.runtime import execute_reduce_task
from repro.mapreduce.types import KeyValue, make_partitions

ALL_STRATEGIES = sorted(STRATEGIES)
DUAL_STRATEGIES = [n for n in ALL_STRATEGIES if STRATEGIES[n]().requires_bdm]
NUM_MAP = 3
NUM_REDUCE = 2  # few reduce tasks, many blocks: many groups per task


def _bounded(a, b):
    return levenshtein_similarity_bounded(a, b, 0.8)


class CountingMatcher(ThresholdMatcher):
    """Records the spec of every ``match_batch`` call; overrides nothing
    the prepared fast path looks at, so the batch kernel stays active —
    unless ``per_pair``: a ``similarity_fn`` sends every pair through
    ``match``, the per-pair reference."""

    def __init__(self, per_pair=False):
        super().__init__("title", 0.8, _bounded if per_pair else None)
        self.batches: list = []

    def match_batch(self, prepared, pairs):
        self.batches.append(pairs)
        return super().match_batch(prepared, pairs)


@pytest.fixture(scope="module")
def entities():
    # ~60 blocks of a handful of entities: every reduce task gets dozens
    # of small groups.
    return generate_products(300, seed=131, num_blocks=60)


def _run(strategy, entities, *, per_pair=False, mode):
    matcher = CountingMatcher(per_pair)
    pipeline = ERPipeline(
        strategy,
        PrefixBlocking("title"),
        matcher,
        num_map_tasks=NUM_MAP,
        num_reduce_tasks=NUM_REDUCE,
    )
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
        batched, matcher = _run(strategy, entities, mode=mode)
        per_pair, _ = _run(strategy, entities, per_pair=True, mode=mode)
        assert _tasks(batched) == _tasks(per_pair)
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
        batched, matcher = _run(strategy, entities, mode=mode)
        monkeypatch.undo()
        per_pair, _ = _run(strategy, entities, per_pair=True, mode=mode)
        assert _tasks(batched) == _tasks(per_pair)
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
        results, matchers = _reduce_both(lambda m: BlockSplitJob(bdm, m, 1), bucket)
        assert results[False].counters.as_dict() == results[True].counters.as_dict()
        assert results[False].output == results[True].output
        counts = [spec.count for spec in matchers[False].batches]
        assert len(counts) == 2 and sum(counts) == groups * 8385
        assert counts[0] <= match_tasks.MAX_PENDING_PAIRS < counts[0] + 8385


def _reduce_both(make_job, bucket):
    """The same hand-built bucket through one reduce task, scored by the
    kernel matcher (``[False]``) and by the per-pair matcher (``[True]``)."""
    config = JobConfig(num_map_tasks=2, num_reduce_tasks=1)
    results, matchers = {}, {}
    for per_pair in (False, True):
        matcher = CountingMatcher(per_pair)
        results[per_pair] = execute_reduce_task(
            make_job(matcher), config, 0, list(bucket)
        )
        matchers[per_pair] = matcher
    return results, matchers


def _near_duplicates(prefix, count):
    return [
        Entity(f"{prefix}{k}", {"title": f"{prefix} kettle {k % 3}"})
        for k in range(count)
    ]


class TestOutOfOrderGroupsFailClosed:
    """A group the stable shuffle / full-key sort would never produce —
    its two runs interleaved — raises ``ShuffleOrderError`` naming the
    job, the group key and the first offending value.  It sits in the
    *middle* of a task: the groups parked before it die with the task's
    context (scored by nobody, emitted by nobody), and the same job runs
    a well-formed task on a fresh context afterwards."""

    def _check(self, job, bucket, bad_key, position):
        config = JobConfig(num_map_tasks=2, num_reduce_tasks=1)
        with pytest.raises(ShuffleOrderError) as raised:
            execute_reduce_task(job, config, 0, list(bucket))
        error = raised.value
        assert isinstance(error, ValueError)
        assert (error.job_name, error.key, error.position) == (
            job.name, bad_key, position
        )
        assert job.name in str(error) and repr(bad_key) in str(error)
        shipped = pickle.loads(pickle.dumps(error))  # as a worker ships it
        assert (type(shipped), str(shipped)) == (ShuffleOrderError, str(error))
        # Groups 0–1 were parked, never scored: nothing went out.
        assert job.matcher.batches == [] and job.matcher.comparisons == 0

        # The following well-formed task sees none of them again: every
        # group once, in group order, as the per-pair matcher has it.
        well_formed = [kv for kv in bucket if kv.key.block != 2]
        result = execute_reduce_task(job, config, 0, well_formed)
        assert [len(spec.specs) for spec in job.matcher.batches] == [4]
        job.matcher = CountingMatcher(per_pair=True)
        reference = execute_reduce_task(job, config, 0, well_formed)
        assert result.output == reference.output
        assert result.counters.as_dict() == reference.counters.as_dict()
        blocks = [pair.value.id1.split(":b")[1][0] for pair in result.output]
        assert blocks == sorted(blocks) and set(blocks) == set("0134")

    def test_blocksplit_interleaved_cross_group(self):
        bdm = BlockDistributionMatrix(
            [f"b{k}" for k in range(5)], [[4, 4] for _ in range(5)]
        )
        bucket = []
        for block in (0, 1, 3, 4):
            bucket += [
                KeyValue(BlockSplitKey(0, block, 0, 0), (entity, 0))
                for entity in _near_duplicates(f"b{block}", 4)
            ]
        cross = _near_duplicates("b2", 6)
        bucket += [
            KeyValue(BlockSplitKey(0, 2, 1, 0), (entity, k % 2))  # 0,1,0,1,…
            for k, entity in enumerate(cross)
        ]
        self._check(
            BlockSplitJob(bdm, CountingMatcher(), 1),
            bucket,
            BlockSplitKey(0, 2, 1, 0),
            position=2,  # partition 0 again after the first 1
        )

    def test_delta_blocksplit_interleaved_cross_group(self):
        matrix = BlockDistributionMatrix(
            [f"b{k}" for k in range(5)], [[4, 4] for _ in range(5)]
        )
        job = DeltaBlockSplitJob(DeltaBDM(matrix, 1), CountingMatcher(), 1)
        # Route by hand: every block split, so (k, 1, 1) groups are
        # sub-block self-joins and (2, 1, 0) is a cross product.
        job.split_blocks = frozenset(range(5))
        bucket = [
            KeyValue(BlockSplitKey(0, 2, 1, 0), (entity, k % 2))
            for k, entity in enumerate(_near_duplicates("b2", 6))
        ]
        for block in (0, 1, 3, 4):
            bucket += [
                KeyValue(BlockSplitKey(0, block, 1, 1), (entity, 1))
                for entity in _near_duplicates(f"b{block}", 4)
            ]
        self._check(job, bucket, BlockSplitKey(0, 2, 1, 0), position=2)

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
        job = DualBlockSplitJob(bdm, CountingMatcher(), 1)
        job.packed_projection = None
        job.sort_key = lambda key: (key.block,)  # stable: keeps R,S,R,S
        self._check(job, bucket, DualBlockSplitKey(0, 2, 0, 0, "R"), position=2)

    def test_dual_pairrange_r_after_s(self):
        matrix = BlockDistributionMatrix(["b0"], [[2, 2]])
        job = DualPairRangeJob(
            DualSourceBDM(matrix, ["R", "S"]), CountingMatcher(), 1
        )
        key = DualPairRangeKey(0, 0, "R", 0)
        values = [
            (Entity(e.entity_id, dict(e.attributes), source), k // 2)
            for k, (e, source) in enumerate(zip(_near_duplicates("b0", 4), "RSRS"))
        ]
        context = TaskContext(JobConfig(num_map_tasks=2, num_reduce_tasks=1))
        with pytest.raises(ShuffleOrderError) as raised:
            job.reduce(key, values, None, context)
        error = raised.value
        assert (error.job_name, error.key, error.position) == (job.name, key, 2)
        assert context.pending == []
