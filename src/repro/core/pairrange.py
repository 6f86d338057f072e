"""The PairRange strategy (Section V, Algorithm 2).

Entities are globally enumerated per block (the BDM supplies the
cross-partition offsets); all pairs are virtually enumerated column-wise
and divided into ``r`` near-equal contiguous ranges.  Map sends each
entity to every range it participates in; reduce re-derives each pair's
index and evaluates exactly those pairs falling into its own range.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..er.batch_kernel import SpanPairs
from ..er.blocking import BlockKey
from ..er.entity import Entity
from ..er.matching import Matcher
from ..mapreduce.job import TaskContext
from ..mapreduce.types import KeyCodec, PackedProjection, packed_keys_enabled
from .bdm import BlockDistributionMatrix
from .enumeration import PairEnumeration, PairRangeSpec, sorted_run_bounds
from .keys import PairRangeKey
from .match_tasks import BatchedMatchJob, run_batched_group


class PairRangeJob(BatchedMatchJob):
    """MR Job 2 for PairRange.

    Input: Job-1-annotated records ``(blocking key, entity)`` in Job 1's
    partitioning.

    Routing (Algorithm 2's comments):

    * partition — on ``range_index`` only;
    * sort — full key (entities arrive in entity-index order);
    * group — on ``(range_index, block)``.

    Erratum note: Algorithm 2's reduce aborts the whole reduce call
    (``return``) once a pair index exceeds the task's range.  Pair
    indexes are monotone only *within* one buffer scan, not across
    them, so a later entity may still contribute in-range pairs; we
    restrict each scan to exactly the in-range run of buffered indexes
    (:meth:`~repro.core.enumeration.PairEnumeration.row_span`), the
    interval form of the original per-pair ``break`` (see DESIGN.md).
    """

    name = "job2-pairrange"

    def __init__(
        self,
        bdm: BlockDistributionMatrix,
        matcher: Matcher,
        num_reduce_tasks: int,
    ):
        self.bdm = bdm
        self.matcher = matcher
        self.num_reduce_tasks = num_reduce_tasks
        self.enumeration = PairEnumeration(bdm.block_sizes())
        self.spec = PairRangeSpec(self.enumeration.total_pairs, num_reduce_tasks)
        if packed_keys_enabled():
            sizes = self.enumeration.block_sizes
            codec = KeyCodec(
                max(1, num_reduce_tasks),
                max(1, bdm.num_blocks),
                max(1, max(sizes, default=1)),
            )
            # Grouped on (range_index, block) — the first two sort fields.
            self.packed_projection = PackedProjection.prefix(codec, 2)

    # -- map phase ---------------------------------------------------------

    def configure_map(self, context: TaskContext) -> None:
        # entityIndex[i] starts at the number of entities of block i in
        # all partitions preceding this one (Algorithm 2 lines 4-8),
        # computed lazily per block actually seen.
        context.next_entity_index = {}  # type: ignore[attr-defined]

    def map(self, key: BlockKey, value: Entity, emit, context: TaskContext) -> None:
        k = self.bdm.block_index(key)
        state: dict[int, int] = context.next_entity_index  # type: ignore[attr-defined]
        x = state.get(k)
        if x is None:
            x = self.bdm.entity_index_offset(k, context.partition_index)
        state[k] = x + 1
        if self.bdm.size(k) < 2:
            return  # no pairs — Algorithm 2's edge case (see DESIGN.md)
        for range_index in self.enumeration.relevant_ranges(k, x, self.spec):
            emit(PairRangeKey(range_index, k, x), (value, x))

    def partition(self, key: PairRangeKey, num_reduce_tasks: int) -> int:
        return key.range_index

    def group_key(self, key: PairRangeKey) -> Any:
        if self.packed_projection is not None:
            return super().group_key(key)
        return (key.range_index, key.block)

    # -- reduce phase ----------------------------------------------------------

    def reduce(
        self,
        key: PairRangeKey,
        values: Sequence[tuple[Entity, int]],
        emit,
        context: TaskContext,
    ) -> None:
        # Entities arrive in ascending entity-index order (full-key
        # sort), so the buffered indexes form a sorted int array.  For
        # each incoming entity the qualifying partners are one
        # contiguous run of that array (`row_span`): two binary
        # searches replace a per-pair index/range computation, and the
        # run is recorded as one (entity, start, stop) index span;
        # `finish_reduce` scores the task's groups in one `match_batch`
        # call.
        block = key.block
        lo, hi = self.spec.bounds(key.range_index)
        row_span = self.enumeration.row_span
        prepare = self.matcher.prepare
        buffer_x: list[int] = []
        prepared: list = []
        spans: list[tuple[int, int, int]] = []
        for t, (e2, x2) in enumerate(values):
            prepared.append(prepare(e2))
            x_lo, x_hi = row_span(block, x2, lo, hi)
            if x_lo <= x_hi:
                start, stop = sorted_run_bounds(buffer_x, x_lo, x_hi)
                if stop > start:
                    spans.append((t, start, stop))
            buffer_x.append(x2)
        run_batched_group(self.matcher, prepared, SpanPairs(spans), emit, context)
