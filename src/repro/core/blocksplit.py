"""The BlockSplit strategy (Section IV, Algorithm 1).

Map-task initialisation reads the BDM, creates match tasks and assigns
them greedily to reduce tasks (shared logic in
:mod:`repro.core.match_tasks`).  The map function then routes every
entity to the match task(s) it participates in via composite
``reduce index . block . split`` keys; entities of split blocks are
replicated once per occupied input partition of their block.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..er.batch_kernel import CrossPairs, TrianglePairs
from ..er.blocking import BlockKey
from ..er.entity import Entity
from ..er.matching import Matcher
from ..mapreduce.counters import flush_pair_counters
from ..mapreduce.job import TaskContext
from ..mapreduce.types import KeyCodec, PackedProjection, packed_keys_enabled
from .bdm import BlockDistributionMatrix
from .keys import BlockSplitKey
from .match_tasks import (
    BatchedMatchJob,
    MatchTaskAssignment,
    flush_batched_groups,
    leading_run_split,
    plan_block_split,
    run_batched_group,
)


class BlockSplitJob(BatchedMatchJob):
    """MR Job 2 for BlockSplit.

    Input: Job-1-annotated records ``(blocking key, entity)`` in the
    same partitioning as Job 1 (enforced by the DFS side-output chain).

    Routing:

    * partition — on ``reduce_index`` only;
    * sort / group — on the full key, whose ``(block, i, j)`` component
      identifies the match task (Algorithm 1's comments).  Both
      projections are packed into a single int per key (the key fields
      are all bounded, so the packed ints compare exactly like the
      tuples — see :class:`~repro.mapreduce.types.KeyCodec`).
    """

    name = "job2-blocksplit"

    def __init__(
        self,
        bdm: BlockDistributionMatrix,
        matcher: Matcher,
        num_reduce_tasks: int,
        *,
        batch_kernel: bool = False,
    ):
        self.bdm = bdm
        self.matcher = matcher
        self.num_reduce_tasks = num_reduce_tasks
        self.batch_kernel = batch_kernel
        # The paper computes this in every map task's configure(); the
        # computation is deterministic, so hoisting it is equivalent.
        self.assignment: MatchTaskAssignment = plan_block_split(bdm, num_reduce_tasks)
        if packed_keys_enabled():
            codec = KeyCodec(
                max(1, num_reduce_tasks),
                max(1, bdm.num_blocks),
                max(1, bdm.num_partitions),
                max(1, bdm.num_partitions),
            )
            # Full-key sort and grouping (the packed form is bijective,
            # so the groups are identical); the base-class sort_key /
            # group_key read this projection.
            self.packed_projection = PackedProjection.full_key(codec)

    # -- map phase ---------------------------------------------------------

    def map(self, key: BlockKey, value: Entity, emit, context: TaskContext) -> None:
        bdm = self.bdm
        k = bdm.block_index(key)
        p = context.partition_index
        if not self.assignment.is_split(k):
            if bdm.block_pairs(k) == 0:
                return  # singleton block: nothing to compare (line 33)
            reduce_index = self.assignment.task_reduce_index(k, 0, 0)
            emit(BlockSplitKey(reduce_index, k, 0, 0), (value, p))
            return
        for i in range(bdm.num_partitions):
            hi, lo = max(p, i), min(p, i)
            reduce_index = self.assignment.task_reduce_index(k, hi, lo)
            if reduce_index is None:
                continue  # other sub-block is empty — no such match task
            emit(BlockSplitKey(reduce_index, k, hi, lo), (value, p))

    def partition(self, key: BlockSplitKey, num_reduce_tasks: int) -> int:
        return key.reduce_index

    # (reduce_index is constant per task and (block, i, j) determines
    # it, so full key ≡ the paper's k.i.j.)

    # -- reduce phase ----------------------------------------------------------

    def reduce(
        self,
        key: BlockSplitKey,
        values: Sequence[tuple[Entity, int]],
        emit,
        context: TaskContext,
    ) -> None:
        if key.i == key.j:
            self._match_self(values, emit, context)
        else:
            self._match_cross(values, emit, context)

    def _match_self(self, values, emit, context: TaskContext) -> None:
        """Self-join: a whole block (``k.*``) or one sub-block (``k.i``)."""
        if self.batch_kernel:
            prepare = self.matcher.prepare
            prepared = [prepare(e) for e, _partition in values]
            run_batched_group(
                self.matcher, prepared, TrianglePairs(len(prepared)), emit, context
            )
            return
        matcher = self.matcher
        prepare = matcher.prepare
        match_prepared = matcher.match_prepared
        comparisons = 0
        matched = 0
        buffer: list = []
        for e2, _partition in values:
            p2 = prepare(e2)
            for p1 in buffer:
                pair = match_prepared(p1, p2)
                if pair is not None:
                    matched += 1
                    emit(None, pair)
            comparisons += len(buffer)
            buffer.append(p2)
        flush_pair_counters(context, comparisons, matched)

    def _match_cross(self, values, emit, context: TaskContext) -> None:
        """Cartesian product of two sub-blocks (``k.i×j``).

        Values arrive partition-contiguously (stable shuffle), so the
        first partition index delimits the buffered sub-block —
        Algorithm 1 lines 56-65.
        """
        if self.batch_kernel and values:
            split = leading_run_split([partition for _e, partition in values])
            if split is not None:
                # One buffered run × one streamed run — a cross batch.
                prepare = self.matcher.prepare
                prepared = [prepare(e) for e, _partition in values]
                run_batched_group(
                    self.matcher,
                    prepared,
                    CrossPairs(split, len(prepared)),
                    emit,
                    context,
                )
                return
            # Interleaved partitions (not produced by the stable
            # shuffle): the scalar loop below defines the semantics.
            # It emits directly, so earlier groups go out first.
            flush_batched_groups(self.matcher, emit, context)
        matcher = self.matcher
        prepare = matcher.prepare
        match_prepared = matcher.match_prepared
        iterator = iter(values)
        try:
            first_entity, first_partition = next(iterator)
        except StopIteration:
            return
        buffer = [prepare(first_entity)]
        comparisons = 0
        matched = 0
        for e2, partition in iterator:
            if partition == first_partition:
                buffer.append(prepare(e2))
            else:
                p2 = prepare(e2)
                for p1 in buffer:
                    pair = match_prepared(p1, p2)
                    if pair is not None:
                        matched += 1
                        emit(None, pair)
                comparisons += len(buffer)
        flush_pair_counters(context, comparisons, matched)
