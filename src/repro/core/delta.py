"""Incremental (delta) matching: new records against a persisted corpus.

A full run compares every pair of every block.  When a corpus has
already been matched and a *batch of new records* arrives, the only
pairs that can produce new matches are **new-vs-old** and **new-vs-new**
inside each block — the old-vs-old pairs were all evaluated by the run
that produced the persisted state.  This module carries that idea
through the paper's whole load-balancing machinery:

* :class:`DeltaBDM` wraps the *merged* block distribution matrix (the
  persisted BDM's partitions followed by the delta's Job-1 counts) and
  exposes the delta quantities: per block with ``o`` old and ``n``
  total entities the remaining work is ``T(n) − T(o)`` pairs, with
  ``T(k) = k·(k−1)/2``.
* :class:`DeltaPairEnumeration` enumerates exactly those pairs
  **row-major over the new entities**: pair ``(x, y)`` with ``y`` new
  gets the block-local cell index ``c(x, y) = T(y) − T(o) + x``.  A new
  entity's own row is one contiguous cell run; its appearances in later
  rows (and every old entity's appearances) form a strictly increasing
  walk — so the map side emits pre-sorted range ids and the reduce side
  has an O(1) closed-form partner span, mirroring
  :class:`~repro.core.enumeration.PairEnumeration` /
  :class:`~repro.core.enumeration.DualPairEnumeration`.
* :func:`generate_delta_match_tasks` is BlockSplit's match-task
  generation over the delta matrix: sub-block self-joins only for *new*
  partitions and cross products that skip old×old — the incremental
  analogue of the two-source generator skipping same-source pairs.
* :class:`DeltaBasicJob` / :class:`DeltaBlockSplitJob` /
  :class:`DeltaPairRangeJob` are the matching jobs, consuming the
  persisted annotated partitions (indices ``0 .. m_old−1``) followed by
  the delta's Job-1-annotated partitions — old entities are buffered,
  never compared against each other.

Old partitions always precede delta partitions, so the stable shuffle
delivers every block's old entities before its new ones — the same
partition-order guarantee BlockSplit's cross-product reduce already
relies on.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..er.batch_kernel import SpanPairs
from ..er.blocking import BlockKey
from ..er.entity import Entity
from ..er.matching import Matcher
from ..mapreduce.job import TaskContext, stable_hash
from ..mapreduce.types import KeyCodec, PackedProjection
from .bdm import BlockDistributionMatrix
from .enumeration import (
    PairRangeSpec,
    block_pair_count,
    merge_intervals,
    sorted_run_bounds,
)
from .keys import BlockSplitKey, PairRangeKey
from .match_tasks import (
    BatchedMatchJob,
    MatchTask,
    cross_product_group,
    run_batched_group,
    self_join_group,
)


class DeltaBDM:
    """The merged BDM of old corpus + delta, with the old/new boundary.

    Wraps a plain :class:`~repro.core.bdm.BlockDistributionMatrix` whose
    first ``num_old_partitions`` columns are the persisted corpus
    partitions and whose remaining columns are the delta's partitions —
    the incremental analogue of
    :class:`~repro.core.two_source.DualSourceBDM`'s partition → source
    map, with "old" and "new" playing the roles of R and S (except that
    new-vs-new pairs *are* compared).
    """

    def __init__(self, bdm: BlockDistributionMatrix, num_old_partitions: int):
        if num_old_partitions < 0:
            raise ValueError(
                f"num_old_partitions must be >= 0, got {num_old_partitions}"
            )
        if bdm.num_blocks > 0 and num_old_partitions > bdm.num_partitions:
            raise ValueError(
                f"{num_old_partitions} old partitions but the merged matrix "
                f"has only {bdm.num_partitions}"
            )
        self._bdm = bdm
        self.num_old_partitions = num_old_partitions

    @property
    def matrix(self) -> BlockDistributionMatrix:
        """The underlying merged plain matrix (what results persist)."""
        return self._bdm

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

    def entity_index_offset(self, block: int, partition: int) -> int:
        return self._bdm.entity_index_offset(block, partition)

    def occupied_partitions(self, block: int) -> list[int]:
        return self._bdm.occupied_partitions(block)

    # -- delta quantities --------------------------------------------------

    def is_new_partition(self, partition: int) -> bool:
        return partition >= self.num_old_partitions

    def old_size(self, block: int) -> int:
        """Entities of ``block`` already in the persisted corpus."""
        return sum(
            self._bdm.size(block, p) for p in range(self.num_old_partitions)
        )

    def block_pairs(self, block: int) -> int:
        """Remaining pairs of ``block``: ``T(n) − T(o)``."""
        return block_pair_count(self._bdm.size(block)) - block_pair_count(
            self.old_size(block)
        )

    def pairs(self) -> int:
        return sum(self.block_pairs(k) for k in range(self.num_blocks))

    def delta_block_sizes(self) -> list[tuple[int, int]]:
        """Per block: ``(old entities, total entities)``."""
        return [
            (self.old_size(k), self._bdm.size(k)) for k in range(self.num_blocks)
        ]

    def __repr__(self) -> str:
        return (
            f"DeltaBDM(blocks={self.num_blocks}, "
            f"partitions={self.num_partitions}, "
            f"old_partitions={self.num_old_partitions}, pairs={self.pairs()})"
        )


def merge_delta_bdm(
    old_bdm: BlockDistributionMatrix | None,
    delta_bdm: BlockDistributionMatrix,
    num_delta_partitions: int,
) -> DeltaBDM:
    """Merge the persisted BDM with the delta's Job-1 counts.

    The merged matrix has the old partitions as columns
    ``0 .. m_old−1`` and the delta partitions shifted after them — the
    exact partition order of the matching job's input.  Built from the
    count dicts (not the matrices' ``num_partitions`` properties, which
    collapse to 0 for empty matrices).
    """
    if num_delta_partitions < 0:
        raise ValueError(
            f"num_delta_partitions must be >= 0, got {num_delta_partitions}"
        )
    num_old = 0 if old_bdm is None else old_bdm.num_partitions
    counts: dict[tuple[BlockKey, int], int] = {}
    if old_bdm is not None:
        for k in range(old_bdm.num_blocks):
            key = old_bdm.key_of(k)
            for p in range(num_old):
                size = old_bdm.size(k, p)
                if size:
                    counts[(key, p)] = size
    for k in range(delta_bdm.num_blocks):
        key = delta_bdm.key_of(k)
        for p in range(delta_bdm.num_partitions):
            size = delta_bdm.size(k, p)
            if size:
                counts[(key, num_old + p)] = counts.get((key, num_old + p), 0) + size
    total = num_old + num_delta_partitions
    if not counts:
        merged = BlockDistributionMatrix([], [])
    else:
        merged = BlockDistributionMatrix.from_counts(counts, total)
    return DeltaBDM(merged, num_old)


# ---------------------------------------------------------------------------
# Delta pair enumeration
# ---------------------------------------------------------------------------


def delta_pair_count(old: int, total: int) -> int:
    """Remaining pairs of one block: ``T(total) − T(old)``."""
    if not 0 <= old <= total:
        raise ValueError(f"invalid delta block sizes ({old}, {total})")
    return block_pair_count(total) - block_pair_count(old)


def delta_cell_index(x: int, y: int, old: int) -> int:
    """Block-local delta cell of pair ``(x, y)``, ``x < y``, ``y >= old``.

    Row-major over the new rows: ``c(x, y) = T(y) − T(old) + x``.
    """
    if not 0 <= x < y:
        raise ValueError(f"invalid pair ({x}, {y})")
    if y < old:
        raise ValueError(f"pair ({x}, {y}) is old-vs-old (old={old})")
    return block_pair_count(y) - block_pair_count(old) + x


def delta_cell_of(cell: int, old: int, total: int) -> tuple[int, int]:
    """Inverse of :func:`delta_cell_index`: the pair ``(x, y)`` at ``cell``."""
    pairs = delta_pair_count(old, total)
    if not 0 <= cell < pairs:
        raise ValueError(f"cell index {cell} outside [0, {pairs})")
    import math

    # Largest y with T(y) − T(old) <= cell.
    target = cell + block_pair_count(old)
    y = (1 + math.isqrt(1 + 8 * target)) // 2
    while block_pair_count(y) > target:
        y -= 1
    while block_pair_count(y + 1) <= target:
        y += 1
    x = cell - (block_pair_count(y) - block_pair_count(old))
    return x, y


def delta_entities_in_cell_interval(
    old: int, total: int, lo: int, hi: int
) -> list[tuple[int, int]]:
    """Entity indexes participating in delta cells ``[lo, hi]`` of one
    block, as merged inclusive intervals (the incremental analogue of
    :func:`~repro.core.enumeration.entities_in_cell_interval`)."""
    if hi < lo:
        return []
    xl, yl = delta_cell_of(lo, old, total)
    xh, yh = delta_cell_of(hi, old, total)
    intervals: list[tuple[int, int]] = [(yl, yh)]  # the rows' own entities
    if yl == yh:
        intervals.append((xl, xh))
    else:
        intervals.append((xl, yl - 1))  # tail of the first (partial) row
        intervals.append((0, xh))       # head of the last (partial) row
        if yh - 1 > yl:
            # The largest full middle row covers columns 0 .. yh−2,
            # subsuming every other middle row's contribution.
            intervals.append((0, yh - 2))
    return merge_intervals(intervals)


class DeltaPairEnumeration:
    """Global delta pair enumeration over per-block ``(old, total)`` sizes.

    Mirrors :class:`~repro.core.enumeration.PairEnumeration` for the
    delta cell scheme: block offsets, both index directions, the
    map-side relevant-range computation and the reduce-side partner
    span.
    """

    def __init__(self, block_sizes: Sequence[tuple[int, int]]):
        self.block_sizes = [(int(o), int(n)) for o, n in block_sizes]
        for o, n in self.block_sizes:
            if not 0 <= o <= n:
                raise ValueError(f"invalid delta block sizes ({o}, {n})")
        self._offsets = [0]
        for o, n in self.block_sizes:
            self._offsets.append(self._offsets[-1] + delta_pair_count(o, n))

    @property
    def total_pairs(self) -> int:
        return self._offsets[-1]

    def offset(self, block: int) -> int:
        if not 0 <= block < len(self.block_sizes):
            raise ValueError(f"block {block} out of range")
        return self._offsets[block]

    def block_bounds(self, block: int) -> tuple[int, int]:
        lo = self._offsets[block]
        hi = self._offsets[block + 1] - 1
        return (lo, hi) if hi >= lo else (0, -1)

    def pair_index(self, block: int, x: int, y: int) -> int:
        old, _total = self.block_sizes[block]
        return self._offsets[block] + delta_cell_index(x, y, old)

    def pair_at(self, pair_index: int) -> tuple[int, int, int]:
        if not 0 <= pair_index < self.total_pairs:
            raise ValueError(
                f"pair index {pair_index} outside [0, {self.total_pairs})"
            )
        block = bisect_right(self._offsets, pair_index) - 1
        while self._offsets[block + 1] == self._offsets[block]:
            block += 1
        old, total = self.block_sizes[block]
        x, y = delta_cell_of(pair_index - self._offsets[block], old, total)
        return block, x, y

    def partner_span(self, block: int, y: int, lo: int, hi: int) -> tuple[int, int]:
        """Partners ``x < y`` of *new* entity ``y`` whose pair has a
        global index in ``[lo, hi]``, as an inclusive interval
        (``(0, -1)`` when empty — in particular for old ``y``).

        Row ``y``'s cells are the contiguous run ``base + x`` with
        ``base = offset + T(y) − T(old)``, so the span is two
        subtractions — O(1), no search (the incremental counterpart of
        :meth:`~repro.core.enumeration.DualPairEnumeration.r_span`).
        """
        old, total = self.block_sizes[block]
        if not 0 <= y < total:
            raise ValueError(f"entity index {y} outside block of size {total}")
        if y < old or y == 0 or hi < lo:
            return (0, -1)
        base = self._offsets[block] + block_pair_count(y) - block_pair_count(old)
        x_lo = max(0, lo - base)
        x_hi = min(y - 1, hi - base)
        return (x_lo, x_hi) if x_lo <= x_hi else (0, -1)

    def relevant_ranges(
        self, block: int, entity_index: int, spec: PairRangeSpec
    ) -> list[int]:
        """All ranges containing at least one delta pair of this entity.

        A new entity's own-row cells are one contiguous run (only the
        boundary ranges matter); its later-row cells — and all of an
        old entity's cells — are a strictly increasing walk with the
        closed per-row increment ``c(x, y+1) − c(x, y) = y``, so the
        range ids come out pre-sorted with one add per *new* row (old
        rows are never walked: the cost per entity is bounded by the
        delta, not the corpus).
        """
        old, total = self.block_sizes[block]
        x = entity_index
        if not 0 <= x < total:
            raise ValueError(
                f"entity index {x} outside block of size {total}"
            )
        if delta_pair_count(old, total) == 0:
            return []
        o = self._offsets[block]
        ppr = spec.pairs_per_range
        ranges: list[int] = []
        last = -1
        if x >= old and x > 0:
            # Own row: cells base .. base + x − 1, one contiguous run.
            base = o + block_pair_count(x) - block_pair_count(old)
            first = base // ppr
            run_last = (base + x - 1) // ppr
            ranges.extend(range(first, run_last + 1))
            last = run_last
        # Later rows y > max(x, old−1): cell o + T(y) − T(old) + x,
        # strictly after every own-row cell, increasing by y per step.
        y = max(x + 1, old)
        if y < total:
            cell = o + block_pair_count(y) - block_pair_count(old) + x
            while y < total:
                rid = cell // ppr
                if rid != last:
                    ranges.append(rid)
                    last = rid
                cell += y
                y += 1
        return ranges


# ---------------------------------------------------------------------------
# Delta Basic
# ---------------------------------------------------------------------------


def _batched_whole_delta(job, values, emit, context) -> None:
    """Batched whole-block delta group: each new entity vs the prefix.

    Old partitions precede delta partitions in the stable shuffle, so
    entity ``t`` being new means every earlier arrival (old or new) is
    its comparison partner — the span ``(t, 0, t)``.  Shared by
    :class:`DeltaBasicJob` and :class:`DeltaBlockSplitJob`'s unsplit
    (``k.*``) groups.
    """
    num_old = job.bdm.num_old_partitions
    prepare = job.matcher.prepare
    prepared: list = []
    spans: list[tuple[int, int, int]] = []
    for t, (entity, p) in enumerate(values):
        prepared.append(prepare(entity))
        if p >= num_old and t > 0:
            spans.append((t, 0, t))
    run_batched_group(job.matcher, prepared, SpanPairs(spans), emit, context)


class DeltaBasicJob(BatchedMatchJob):
    """Basic matching of a delta: whole blocks, old entities buffered.

    Same routing as :class:`~repro.core.basic.BasicMatchJob` — hash the
    blocking key, ship whole blocks — but blocks without any new entity
    are skipped entirely, and reduce compares only the new entities
    (each against everything buffered before it).
    """

    name = "job2-basic-delta"

    def __init__(self, bdm: DeltaBDM, matcher: Matcher):
        self.bdm = bdm
        self.matcher = matcher

    def map(self, key: BlockKey, value: Entity, emit, context: TaskContext) -> None:
        k = self.bdm.block_index(key)
        if self.bdm.block_pairs(k) == 0:
            return  # no new entity in this block — nothing left to compare
        emit(key, (value, context.partition_index))

    def partition(self, key: BlockKey, num_reduce_tasks: int) -> int:
        return stable_hash(key) % num_reduce_tasks

    def sort_key(self, key: BlockKey) -> Any:
        return repr(key)

    def reduce(
        self,
        key: BlockKey,
        values: Sequence[tuple[Entity, int]],
        emit,
        context: TaskContext,
    ) -> None:
        # Old partitions precede delta partitions, so every old entity
        # is buffered before the first new one arrives (stable shuffle,
        # partition order).
        _batched_whole_delta(self, values, emit, context)


# ---------------------------------------------------------------------------
# Delta BlockSplit
# ---------------------------------------------------------------------------


def generate_delta_match_tasks(
    bdm: DeltaBDM, num_reduce_tasks: int
) -> tuple[list[MatchTask], frozenset[int], float]:
    """Match tasks over the delta comparison matrix.

    Blocks with no remaining pairs yield nothing.  Unsplit blocks yield
    one ``k.*`` task with ``T(n) − T(o)`` comparisons (all entities
    shipped, the delta-aware reduce skips old-vs-old).  Split blocks
    yield sub-block self-joins only for *new* partitions (including
    zero-comparison singletons, mirroring the one-source generator's
    bookkeeping) and cross products that skip old×old — the incremental
    analogue of the two-source generator skipping same-source pairs.
    """
    if num_reduce_tasks <= 0:
        raise ValueError(f"num_reduce_tasks must be positive, got {num_reduce_tasks}")
    threshold = bdm.pairs() / num_reduce_tasks
    tasks: list[MatchTask] = []
    split_blocks: set[int] = set()
    m = bdm.num_partitions
    for k in range(bdm.num_blocks):
        comps = bdm.block_pairs(k)
        if comps == 0:
            continue
        if comps <= threshold:
            tasks.append(MatchTask(k, 0, 0, comps))
            continue
        split_blocks.add(k)
        for i in range(m):
            size_i = bdm.size(k, i)
            if size_i == 0:
                continue
            if bdm.is_new_partition(i):
                tasks.append(MatchTask(k, i, i, block_pair_count(size_i)))
            for j in range(i):
                size_j = bdm.size(k, j)
                if size_j == 0:
                    continue
                if not bdm.is_new_partition(i) and not bdm.is_new_partition(j):
                    continue  # old×old — already matched
                tasks.append(MatchTask(k, i, j, size_i * size_j))
    return tasks, frozenset(split_blocks), threshold


class DeltaBlockSplitJob(BatchedMatchJob):
    """BlockSplit over the delta comparison matrix.

    Unsplit blocks run a delta-aware self-join (old entities buffered
    without comparing); split blocks reuse the plain sub-block
    self-join (new sub-blocks only) and cross-product reduces — a
    cross product of an old and a new sub-block is exactly the
    new-vs-old work.
    """

    name = "job2-blocksplit-delta"

    def __init__(
        self,
        bdm: DeltaBDM,
        matcher: Matcher,
        num_reduce_tasks: int,
    ):
        from .match_tasks import assign_greedy  # local import avoids cycle

        self.bdm = bdm
        self.matcher = matcher
        self.num_reduce_tasks = num_reduce_tasks
        tasks, split_blocks, threshold = generate_delta_match_tasks(
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
        )
        self.packed_projection = PackedProjection.full_key(codec)

    # -- map phase ---------------------------------------------------------

    def map(self, key: BlockKey, value: Entity, emit, context: TaskContext) -> None:
        bdm = self.bdm
        k = bdm.block_index(key)
        p = context.partition_index
        if k not in self.split_blocks:
            reduce_index = self.reduce_of.get((k, 0, 0))
            if reduce_index is None:
                return  # no remaining pairs in this block
            emit(BlockSplitKey(reduce_index, k, 0, 0), (value, p))
            return
        for i in range(bdm.num_partitions):
            hi, lo = max(p, i), min(p, i)
            reduce_index = self.reduce_of.get((k, hi, lo))
            if reduce_index is None:
                continue  # empty sub-block, or an old×old / old-self task
            emit(BlockSplitKey(reduce_index, k, hi, lo), (value, p))

    def partition(self, key: BlockSplitKey, num_reduce_tasks: int) -> int:
        return key.reduce_index

    # -- reduce phase ------------------------------------------------------

    def reduce(
        self,
        key: BlockSplitKey,
        values: Sequence[tuple[Entity, int]],
        emit,
        context: TaskContext,
    ) -> None:
        if key.i != key.j:
            # Identical to the full BlockSplit cross reduce.
            cross_product_group(self, key, values, emit, context)
        elif key.block in self.split_blocks:
            self_join_group(self, values, emit, context)  # a new sub-block
        else:
            # Whole unsplit block (``k.*``): old entities buffer silently.
            _batched_whole_delta(self, values, emit, context)


# ---------------------------------------------------------------------------
# Delta PairRange
# ---------------------------------------------------------------------------


class DeltaPairRangeJob(BatchedMatchJob):
    """PairRange over the delta enumeration.

    Same routing as the full :class:`~repro.core.pairrange.PairRangeJob`
    — entities globally enumerated per block via the merged BDM's
    offsets, keys carry ``range . block . entity index`` — but ranges
    divide only the ``T(n) − T(o)`` remaining pairs, and reduce compares
    an incoming entity only when it is new.
    """

    name = "job2-pairrange-delta"

    def __init__(
        self,
        bdm: DeltaBDM,
        matcher: Matcher,
        num_reduce_tasks: int,
    ):
        self.bdm = bdm
        self.matcher = matcher
        self.num_reduce_tasks = num_reduce_tasks
        self.enumeration = DeltaPairEnumeration(bdm.delta_block_sizes())
        self.spec = PairRangeSpec(self.enumeration.total_pairs, num_reduce_tasks)
        sizes = [n for _o, n in self.enumeration.block_sizes]
        codec = KeyCodec(
            max(1, num_reduce_tasks),
            max(1, bdm.num_blocks),
            max(1, max(sizes, default=1)),
        )
        self.packed_projection = PackedProjection.prefix(codec, 2)

    # -- map phase ---------------------------------------------------------

    def configure_map(self, context: TaskContext) -> None:
        context.next_entity_index = {}  # type: ignore[attr-defined]

    def map(self, key: BlockKey, value: Entity, emit, context: TaskContext) -> None:
        k = self.bdm.block_index(key)
        state: dict[int, int] = context.next_entity_index  # type: ignore[attr-defined]
        x = state.get(k)
        if x is None:
            x = self.bdm.entity_index_offset(k, context.partition_index)
        state[k] = x + 1
        if self.bdm.block_pairs(k) == 0:
            return  # no new entity in this block
        for range_index in self.enumeration.relevant_ranges(k, x, self.spec):
            emit(PairRangeKey(range_index, k, x), (value, x))

    def partition(self, key: PairRangeKey, num_reduce_tasks: int) -> int:
        return key.range_index

    # -- reduce phase ------------------------------------------------------

    def reduce(
        self,
        key: PairRangeKey,
        values: Sequence[tuple[Entity, int]],
        emit,
        context: TaskContext,
    ) -> None:
        # Entities arrive in ascending entity-index order (old indexes
        # precede new ones by construction), so the buffered indexes
        # form a sorted int array; each *new* incoming entity's
        # qualifying partners are one contiguous run (`partner_span`,
        # O(1) closed form).  Old incoming entities only buffer: every
        # shipped old entity has at least one of its cells in this
        # range, so it will be somebody's partner.
        block = key.block
        old = self.enumeration.block_sizes[block][0]
        lo, hi = self.spec.bounds(key.range_index)
        partner_span = self.enumeration.partner_span
        prepare = self.matcher.prepare
        buffer_x: list[int] = []
        prepared: list = []
        spans: list[tuple[int, int, int]] = []
        for t, (e2, x2) in enumerate(values):
            prepared.append(prepare(e2))
            if x2 >= old:
                x_lo, x_hi = partner_span(block, x2, lo, hi)
                if x_lo <= x_hi:
                    start, stop = sorted_run_bounds(buffer_x, x_lo, x_hi)
                    if stop > start:
                        spans.append((t, start, stop))
            buffer_x.append(x2)
        run_batched_group(self.matcher, prepared, SpanPairs(spans), emit, context)
