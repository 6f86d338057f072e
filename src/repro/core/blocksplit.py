"""The BlockSplit strategy (Section IV, Algorithm 1).

Map-task initialisation reads the BDM, creates match tasks and assigns
them greedily to reduce tasks (shared logic in
:mod:`repro.core.match_tasks`).  The map function then routes every
entity to the match task(s) it participates in via composite
``reduce index . block . split`` keys; entities of split blocks are
replicated once per occupied input partition of their block.
"""

from __future__ import annotations

from typing import Sequence

from ..er.blocking import BlockKey
from ..er.entity import Entity
from ..er.matching import Matcher
from ..mapreduce.job import TaskContext
from ..mapreduce.types import KeyCodec, PackedProjection
from .bdm import BlockDistributionMatrix
from .keys import BlockSplitKey
from .match_tasks import (
    BatchedMatchJob,
    MatchTaskAssignment,
    cross_product_group,
    plan_block_split,
    self_join_group,
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
    ):
        self.bdm = bdm
        self.matcher = matcher
        self.num_reduce_tasks = num_reduce_tasks
        # The paper computes this in every map task's configure(); the
        # computation is deterministic, so hoisting it is equivalent.
        self.assignment: MatchTaskAssignment = plan_block_split(bdm, num_reduce_tasks)
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
            self_join_group(self, values, emit, context)
        else:
            cross_product_group(self, key, values, emit, context)
