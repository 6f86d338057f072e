"""Two-source matching (Appendix I): R × S linkage with load balancing.

Matching two sources R and S compares only *cross-source* pairs within
each block.  Input partitions are homogeneous — each holds entities of
exactly one source (Hadoop's ``MultipleInputs``); the number of
partitions may differ per source.

The BDM keeps its ``b × m`` shape but every block's pair count becomes
``|Φk,R| · |Φk,S|`` and entity enumeration runs per (block, source).
"""

from __future__ import annotations

from typing import Any, Sequence

from ..er.blocking import BlockingFunction, BlockKey
from ..er.entity import Entity
from ..er.matching import Matcher
from ..mapreduce.job import TaskContext
from ..mapreduce.runtime import JobResult, LocalRuntime
from ..mapreduce.types import KeyCodec, PackedProjection, Partition
from .bdm import BlockDistributionMatrix, analytic_bdm, compute_bdm
from ..er.batch_kernel import CrossPairs, SpanPairs
from .enumeration import DualPairEnumeration, PairRangeSpec, sorted_run_bounds
from .keys import DualBlockSplitKey, DualPairRangeKey
from .match_tasks import (
    BatchedMatchJob,
    MatchTask,
    ShuffleOrderError,
    run_batched_group,
)

SOURCE_R = "R"
SOURCE_S = "S"

#: Packed-key rank of each source tag ("R" < "S" ⇒ 0 < 1, so packed
#: order matches the tuple order the dual reduce functions rely on).
_SOURCE_RANKS = {SOURCE_R: 0, SOURCE_S: 1}


def _r_prefix_length(sources, job_name: str, key: Any) -> int:
    """Length of the leading R run of a dual reduce group.

    The dual reduce groups rely on full-key sorting to deliver every R
    entity before any S entity, which makes buffer positions equal
    arrival positions.  An R after an S breaks that:
    :class:`~repro.core.match_tasks.ShuffleOrderError`.
    """
    split = 0
    streamed = False
    for position, source in enumerate(sources):
        if source == SOURCE_R:
            if streamed:
                raise ShuffleOrderError(job_name, key, position)
            split = position + 1
        else:
            streamed = True
    return split


class DualSourceBDM:
    """BDM for two sources: block × partition counts plus a partition →
    source map (Figure 15(a))."""

    def __init__(
        self,
        bdm: BlockDistributionMatrix,
        partition_sources: Sequence[str],
    ):
        if len(partition_sources) != bdm.num_partitions:
            raise ValueError(
                f"expected {bdm.num_partitions} partition sources, "
                f"got {len(partition_sources)}"
            )
        bad = set(partition_sources) - {SOURCE_R, SOURCE_S}
        if bad:
            raise ValueError(f"unknown source tags: {sorted(bad)}")
        self._bdm = bdm
        self.partition_sources = list(partition_sources)
        self.r_partitions = [
            i for i, s in enumerate(partition_sources) if s == SOURCE_R
        ]
        self.s_partitions = [
            i for i, s in enumerate(partition_sources) if s == SOURCE_S
        ]

    # -- delegation --------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return self._bdm.num_blocks

    @property
    def num_partitions(self) -> int:
        return self._bdm.num_partitions

    @property
    def block_keys(self) -> list[BlockKey]:
        return self._bdm.block_keys

    def block_index(self, block_key: BlockKey) -> int:
        return self._bdm.block_index(block_key)

    def key_of(self, block: int) -> BlockKey:
        return self._bdm.key_of(block)

    def size(self, block: int, partition: int | None = None) -> int:
        return self._bdm.size(block, partition)

    def partition_sizes(self) -> list[int]:
        return self._bdm.partition_sizes()

    # -- two-source quantities -------------------------------------------------

    def size_r(self, block: int) -> int:
        return sum(self._bdm.size(block, i) for i in self.r_partitions)

    def size_s(self, block: int) -> int:
        return sum(self._bdm.size(block, i) for i in self.s_partitions)

    def block_pairs(self, block: int) -> int:
        return self.size_r(block) * self.size_s(block)

    def pairs(self) -> int:
        return sum(self.block_pairs(k) for k in range(self.num_blocks))

    def dual_block_sizes(self) -> list[tuple[int, int]]:
        return [(self.size_r(k), self.size_s(k)) for k in range(self.num_blocks)]

    def source_of(self, partition: int) -> str:
        return self.partition_sources[partition]

    def entity_index_offset(self, block: int, partition: int) -> int:
        """Entities of ``block`` in *same-source* partitions before
        ``partition`` — enumeration runs per (block, source)."""
        source = self.partition_sources[partition]
        same_source = (
            self.r_partitions if source == SOURCE_R else self.s_partitions
        )
        return sum(
            self._bdm.size(block, i) for i in same_source if i < partition
        )

    def occupied_partitions(self, block: int, source: str) -> list[int]:
        partitions = self.r_partitions if source == SOURCE_R else self.s_partitions
        return [i for i in partitions if self._bdm.size(block, i) > 0]

    def __repr__(self) -> str:
        return (
            f"DualSourceBDM(blocks={self.num_blocks}, "
            f"partitions={self.num_partitions}, pairs={self.pairs()})"
        )


def compute_dual_bdm(
    runtime: LocalRuntime,
    partitions: Sequence[Partition],
    blocking: BlockingFunction,
    *,
    num_reduce_tasks: int,
    use_combiner: bool = True,
    memory_budget: int | None = None,
) -> tuple[DualSourceBDM, JobResult, list[Partition]]:
    """Job 1 for two sources.

    Each input partition must be source-homogeneous; the source map is
    derived from the entities themselves.
    """
    sources: list[str] = []
    for partition in partitions:
        tags = {record.value.source for record in partition}
        if len(tags) > 1:
            raise ValueError(
                f"partition {partition.index} mixes sources {sorted(tags)}"
            )
        sources.append(tags.pop() if tags else SOURCE_R)
    bdm, job_result, annotated = compute_bdm(
        runtime,
        partitions,
        blocking,
        num_reduce_tasks=num_reduce_tasks,
        use_combiner=use_combiner,
        memory_budget=memory_budget,
    )
    return DualSourceBDM(bdm, sources), job_result, annotated


def analytic_dual_bdm(
    partitions: Sequence[Partition],
    blocking: BlockingFunction,
) -> DualSourceBDM:
    """Compute the two-source BDM directly (no MR execution), for planning.

    Mirrors :func:`compute_dual_bdm`: partitions must be
    source-homogeneous and the source map is derived from the entities.
    """
    sources: list[str] = []
    for partition in partitions:
        tags = {record.value.source for record in partition}
        if len(tags) > 1:
            raise ValueError(
                f"partition {partition.index} mixes sources {sorted(tags)}"
            )
        sources.append(tags.pop() if tags else SOURCE_R)
    return DualSourceBDM(analytic_bdm(partitions, blocking), sources)


# ---------------------------------------------------------------------------
# Dual-source BlockSplit (Appendix I-A)
# ---------------------------------------------------------------------------


def generate_dual_match_tasks(
    bdm: DualSourceBDM, num_reduce_tasks: int
) -> tuple[list[MatchTask], frozenset[int], float]:
    """Match tasks for two sources.

    Unsplit blocks yield one ``k.*`` task with ``|Φk,R|·|Φk,S|``
    comparisons; split blocks yield only cross tasks ``k.i×j`` with
    ``Πi ∈ R`` and ``Πj ∈ S`` (no same-source sub-block self-joins).
    Blocks without any cross-source pair yield nothing.
    """
    if num_reduce_tasks <= 0:
        raise ValueError(f"num_reduce_tasks must be positive, got {num_reduce_tasks}")
    threshold = bdm.pairs() / num_reduce_tasks
    tasks: list[MatchTask] = []
    split_blocks: set[int] = set()
    for k in range(bdm.num_blocks):
        comps = bdm.block_pairs(k)
        if comps == 0:
            continue
        if comps <= threshold:
            tasks.append(MatchTask(k, 0, 0, comps))
            continue
        split_blocks.add(k)
        for i in bdm.r_partitions:
            size_i = bdm.size(k, i)
            if size_i == 0:
                continue
            for j in bdm.s_partitions:
                size_j = bdm.size(k, j)
                if size_j == 0:
                    continue
                tasks.append(MatchTask(k, i, j, size_i * size_j))
    return tasks, frozenset(split_blocks), threshold


class DualBlockSplitJob(BatchedMatchJob):
    """MR Job 2 for two-source BlockSplit.

    Keys add the source tag; full-key sorting delivers each match
    task's R entities before its S entities, so reduce buffers R and
    streams S (Appendix I-A).
    """

    name = "job2-blocksplit-2src"

    def __init__(
        self,
        bdm: DualSourceBDM,
        matcher: Matcher,
        num_reduce_tasks: int,
    ):
        from .match_tasks import assign_greedy  # local import avoids cycle

        self.bdm = bdm
        self.matcher = matcher
        self.num_reduce_tasks = num_reduce_tasks
        tasks, split_blocks, threshold = generate_dual_match_tasks(
            bdm, num_reduce_tasks
        )
        assignment, loads = assign_greedy(tasks, num_reduce_tasks)
        self.tasks = tuple(tasks)
        self.reduce_of = assignment
        self.reduce_comparisons = tuple(loads)
        self.split_blocks = split_blocks
        self.threshold = threshold
        m = max(1, bdm.num_partitions)
        codec = KeyCodec(
            max(1, num_reduce_tasks),
            max(1, bdm.num_blocks),
            m,
            m,
            2,
            field_maps={4: _SOURCE_RANKS},
        )
        # Grouped on (block, i, j) — the mid-span of the sort fields.
        self.packed_projection = PackedProjection.span(codec, 1, 4)

    # -- map phase ---------------------------------------------------------

    def map(self, key: BlockKey, value: Entity, emit, context: TaskContext) -> None:
        bdm = self.bdm
        k = bdm.block_index(key)
        p = context.partition_index
        source = bdm.source_of(p)
        if k not in self.split_blocks:
            reduce_index = self.reduce_of.get((k, 0, 0))
            if reduce_index is None:
                return  # block has no cross-source pairs
            emit(DualBlockSplitKey(reduce_index, k, 0, 0, source), value)
            return
        if source == SOURCE_R:
            partner_tasks = [(k, p, j) for j in bdm.occupied_partitions(k, SOURCE_S)]
        else:
            partner_tasks = [(k, i, p) for i in bdm.occupied_partitions(k, SOURCE_R)]
        for block, i, j in partner_tasks:
            reduce_index = self.reduce_of.get((block, i, j))
            if reduce_index is None:
                continue
            emit(DualBlockSplitKey(reduce_index, block, i, j, source), value)

    def partition(self, key: DualBlockSplitKey, num_reduce_tasks: int) -> int:
        return key.reduce_index

    # -- reduce phase ----------------------------------------------------------

    def reduce(
        self,
        key: DualBlockSplitKey,
        values: Sequence[Entity],
        emit,
        context: TaskContext,
    ) -> None:
        # R prefix × S suffix — one cross batch.
        split = _r_prefix_length(
            (entity.source for entity in values), self.name, key
        )
        prepare = self.matcher.prepare
        prepared = [prepare(e) for e in values]
        run_batched_group(
            self.matcher, prepared, CrossPairs(split, len(prepared)), emit, context
        )


# ---------------------------------------------------------------------------
# Dual-source PairRange (Appendix I-B)
# ---------------------------------------------------------------------------


class DualPairRangeJob(BatchedMatchJob):
    """MR Job 2 for two-source PairRange.

    Pair enumeration covers every cell of each block's ``NR × NS``
    matrix; keys carry ``range . block . source . entity index`` and
    reduce matches each S entity against the buffered R entities,
    filtering by the task's pair range.
    """

    name = "job2-pairrange-2src"

    def __init__(
        self,
        bdm: DualSourceBDM,
        matcher: Matcher,
        num_reduce_tasks: int,
    ):
        self.bdm = bdm
        self.matcher = matcher
        self.num_reduce_tasks = num_reduce_tasks
        self.enumeration = DualPairEnumeration(bdm.dual_block_sizes())
        self.spec = PairRangeSpec(self.enumeration.total_pairs, num_reduce_tasks)
        max_index = max(
            (max(r, s) for r, s in self.enumeration.block_sizes),
            default=1,
        )
        codec = KeyCodec(
            max(1, num_reduce_tasks),
            max(1, bdm.num_blocks),
            2,
            max(1, max_index),
            field_maps={2: _SOURCE_RANKS},
        )
        # Grouped on (range_index, block) — the first two sort fields.
        self.packed_projection = PackedProjection.prefix(codec, 2)

    # -- map phase ---------------------------------------------------------

    def configure_map(self, context: TaskContext) -> None:
        context.next_entity_index = {}  # type: ignore[attr-defined]

    def map(self, key: BlockKey, value: Entity, emit, context: TaskContext) -> None:
        bdm = self.bdm
        k = bdm.block_index(key)
        p = context.partition_index
        source = bdm.source_of(p)
        state: dict[int, int] = context.next_entity_index  # type: ignore[attr-defined]
        index = state.get(k)
        if index is None:
            index = bdm.entity_index_offset(k, p)
        state[k] = index + 1
        if bdm.block_pairs(k) == 0:
            return  # one side empty — no cross-source pairs (Figure 15(b))
        if source == SOURCE_R:
            ranges = self.enumeration.relevant_ranges_r(k, index, self.spec)
        else:
            ranges = self.enumeration.relevant_ranges_s(k, index, self.spec)
        for range_index in ranges:
            emit(DualPairRangeKey(range_index, k, source, index), (value, index))

    def partition(self, key: DualPairRangeKey, num_reduce_tasks: int) -> int:
        return key.range_index

    # -- reduce phase ----------------------------------------------------------

    def reduce(
        self,
        key: DualPairRangeKey,
        values: Sequence[tuple[Entity, int]],
        emit,
        context: TaskContext,
    ) -> None:
        # All R entities precede all S entities ("R" < "S" in the sort)
        # and arrive in ascending R-index order, so the buffered R
        # indexes form a sorted int array.  For each S entity the
        # qualifying R indexes are one contiguous interval (`r_span`,
        # O(1) closed form) — bisect the buffer and record exactly that
        # slice as one index span, as in the one-source PairRange reduce.
        block = key.block
        lo, hi = self.spec.bounds(key.range_index)
        r_span = self.enumeration.r_span
        # R's occupy positions [0, split), so buffer positions equal
        # prepared positions — checked here, not assumed.
        _r_prefix_length(
            (entity.source for entity, _index in values), self.name, key
        )
        prepare = self.matcher.prepare
        buffer_x: list[int] = []
        prepared: list = []
        spans: list[tuple[int, int, int]] = []
        for t, (entity, index) in enumerate(values):
            prepared.append(prepare(entity))
            if entity.source == SOURCE_R:
                buffer_x.append(index)
                continue
            x_lo, x_hi = r_span(block, index, lo, hi)
            if x_lo <= x_hi:
                start, stop = sorted_run_bounds(buffer_x, x_lo, x_hi)
                if stop > start:
                    spans.append((t, start, stop))
        run_batched_group(self.matcher, prepared, SpanPairs(spans), emit, context)
