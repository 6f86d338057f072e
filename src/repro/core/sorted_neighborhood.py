"""MapReduce-based Sorted Neighborhood (SN) blocking.

The paper's related work (its reference [11] — the authors' own
"Multi-pass Sorted Neighborhood Blocking with MapReduce") uses a
different candidate definition: entities are *sorted* by a sorting key
and every pair within a sliding window of size ``w`` is compared
(i.e. pairs at sort distance ≤ w−1).  SN is "by design less vulnerable
to skewed data" because the work per entity is bounded by ``w``
regardless of key-value frequencies; the trade-off is that candidates
are defined by rank adjacency rather than key equality.

MR realisation (the JobSN scheme):

1. a cheap pre-pass computes the global sort order's r-quantile
   boundaries (and the partition offsets);
2. the SN job range-partitions entities by sorting key, and each reduce
   task scores every pair of its sorted run at rank distance < ``w`` —
   one band pair spec, one ``match_batch`` call;
3. a tiny driver pass scores the pairs at global rank distance < ``w``
   that straddle a partition cut, again as one spec in one
   ``match_batch`` call.

Implemented here for completeness of the paper's design space and used
by ``benchmarks/bench_sorted_neighborhood.py`` to contrast SN's
bounded-by-construction balance with BlockSplit/PairRange.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..er.batch_kernel import SpanPairs
from ..er.entity import Entity
from ..er.matching import Matcher, MatchResult
from ..mapreduce.counters import StandardCounter
from ..mapreduce.job import TaskContext
from ..mapreduce.runtime import JobResult, LocalRuntime
from ..mapreduce.types import make_partitions
from .match_tasks import BatchedMatchJob, run_batched_group

SortKeyFn = Callable[[Entity], Any]


@dataclass(frozen=True, slots=True)
class SnPlan:
    """Range-partitioning metadata computed by the pre-pass.

    ``boundaries[i]`` is the first sort key of reduce partition ``i+1``;
    ``offsets[i]`` is the global rank of partition ``i``'s first entity.
    """

    boundaries: tuple[tuple[Any, str], ...]
    offsets: tuple[int, ...]
    total: int

    @property
    def num_partitions(self) -> int:
        return len(self.offsets)


@dataclass(frozen=True, slots=True)
class SnResult:
    """Outcome of one SN run."""

    matches: MatchResult
    window: int
    comparisons: int
    boundary_comparisons: int
    reduce_comparisons: tuple[int, ...]
    job: JobResult


def compute_sn_plan(
    entities: Sequence[Entity], sort_key: SortKeyFn, num_reduce_tasks: int
) -> SnPlan:
    """Pre-pass: exact r-quantile cut points of the global sort order.

    A production deployment estimates these from a sample (as [17] does
    for theta-joins); in-process we can afford the exact order.
    """
    if num_reduce_tasks <= 0:
        raise ValueError(f"num_reduce_tasks must be positive, got {num_reduce_tasks}")
    ordered = sorted(
        ((sort_key(e), e.qualified_id) for e in entities)
    )
    total = len(ordered)
    base, extra = divmod(total, num_reduce_tasks)
    offsets = []
    boundaries = []
    position = 0
    for i in range(num_reduce_tasks):
        offsets.append(position)
        position += base + (1 if i < extra else 0)
        if i < num_reduce_tasks - 1 and position < total:
            boundaries.append(ordered[position])
    return SnPlan(tuple(boundaries), tuple(offsets), total)


class SortedNeighborhoodJob(BatchedMatchJob):
    """The SN matching job.

    map
        emits ``((sort key, entity id), entity)``; the composite key
        makes ties deterministic.
    partition
        range partitioning against the pre-pass boundaries.
    reduce
        prepares each entity of the task's sorted run; ``finish_reduce``
        then scores the run's window band — entity ``j`` against the
        ``w−1`` entities before it, the sliding window's exact pair
        order — in one ``match_batch`` call and emits the matches.
    """

    name = "sorted-neighborhood"

    def __init__(
        self,
        plan: SnPlan,
        sort_key: SortKeyFn,
        matcher: Matcher,
        window: int,
    ):
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self.plan = plan
        # Note: named _fn to avoid shadowing MapReduceJob.sort_key, the
        # engine's sort-projection hook.
        self.sort_key_fn = sort_key
        self.matcher = matcher
        self.window = window

    def map(self, key: Any, value: Entity, emit, context: TaskContext) -> None:
        emit((self.sort_key_fn(value), value.qualified_id), value)

    def partition(self, key: tuple, num_reduce_tasks: int) -> int:
        # A key equal to boundary i is the first key of partition i+1,
        # hence bisect_right.
        return bisect_right(self.plan.boundaries, key)

    def configure_reduce(self, context: TaskContext) -> None:
        context.sn_run = []  # type: ignore[attr-defined]

    def reduce(self, key: tuple, values: Sequence[Entity], emit, context) -> None:
        # Grouping on the full composite key gives one call per entity;
        # the task's sorted run builds up in the context across calls.
        prepare = self.matcher.prepare
        context.sn_run.extend(prepare(entity) for entity in values)

    def finish_reduce(self, emit, context: TaskContext) -> None:
        run = context.sn_run  # type: ignore[attr-defined]
        w = self.window
        band = SpanPairs([(j, max(0, j - w + 1), j) for j in range(1, len(run))])
        run_batched_group(self.matcher, run, band, emit, context)
        super().finish_reduce(emit, context)


def sorted_neighborhood(
    entities: Sequence[Entity],
    sort_key: SortKeyFn,
    *,
    window: int,
    matcher: Matcher,
    num_map_tasks: int = 2,
    num_reduce_tasks: int = 3,
) -> SnResult:
    """Run MR-based Sorted Neighborhood end to end.

    Returns all matches among pairs at sort distance ≤ window−1,
    including pairs straddling reduce-partition cuts.
    """
    plan = compute_sn_plan(entities, sort_key, num_reduce_tasks)
    runtime = LocalRuntime()
    partitions = make_partitions(list(entities), num_map_tasks)
    job = SortedNeighborhoodJob(plan, sort_key, matcher, window)
    result = runtime.run(job, partitions, num_reduce_tasks)

    matches = MatchResult()
    for record in result.output:
        matches.add(record.value)
    reduce_comparisons = tuple(
        task.counters.get(StandardCounter.PAIR_COMPARISONS)
        for task in result.reduce_tasks
    )

    # Driver stitching pass: entity j of the global order against the
    # window entities before the first rank of j's own partition, i.e.
    # exactly the window pairs no reduce task saw.
    ordered = sorted(entities, key=lambda e: (sort_key(e), e.qualified_id))
    offsets = plan.offsets
    spans = []
    for j in range(1, len(ordered)):
        start = max(0, j - window + 1)
        stop = offsets[bisect_right(offsets, j) - 1]
        if start < stop:
            spans.append((j, start, stop))
    stitch = SpanPairs(spans)
    prepare = matcher.prepare
    for pair in matcher.match_batch([prepare(e) for e in ordered], stitch):
        matches.add(pair)

    return SnResult(
        matches=matches,
        window=window,
        comparisons=sum(reduce_comparisons) + stitch.count,
        boundary_comparisons=stitch.count,
        reduce_comparisons=reduce_comparisons,
        job=result,
    )


def brute_force_sn_pairs(
    entities: Sequence[Entity], sort_key: SortKeyFn, window: int
) -> set[tuple[str, str]]:
    """Reference: all pairs at sort distance ≤ window−1."""
    ordered = sorted(entities, key=lambda e: (sort_key(e), e.qualified_id))
    pairs: set[tuple[str, str]] = set()
    for i, e1 in enumerate(ordered):
        for j in range(i + 1, min(i + window, len(ordered))):
            pairs.add(tuple(sorted((e1.qualified_id, ordered[j].qualified_id))))
    return pairs
