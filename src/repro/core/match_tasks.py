"""BlockSplit match-task generation and greedy reduce-task assignment.

A *match task* (Section IV) is the unit BlockSplit distributes:

* ``k.*`` — an entire unsplit block ``k`` (encoded ``(k, 0, 0)``);
* ``k.i`` — the self-join of sub-block ``i`` (encoded ``(k, i, i)``);
* ``k.i×j`` — the cross product of sub-blocks ``i > j``
  (encoded ``(k, i, j)``, the paper's ``(k, max, min)``).

Blocks are split iff their pair count exceeds the average reduce
workload ``P/r``.  Match tasks are then sorted by descending pair count
and greedily assigned to the currently least-loaded reduce task — the
classic LPT heuristic.

This module is shared by the executing MR job and the analytic planner,
so both *by construction* agree on the assignment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Protocol, Sequence

from ..er.batch_kernel import ConcatPairs, CrossPairs, TrianglePairs
from ..mapreduce.counters import flush_pair_counters
from ..mapreduce.job import MapReduceJob, TaskContext
from .enumeration import block_pair_count

#: Split-component encoding for an unsplit block ("k.*").
WHOLE_BLOCK = (0, 0)


class BdmLike(Protocol):
    """The slice of the BDM interface match-task generation needs."""

    @property
    def num_blocks(self) -> int: ...

    @property
    def num_partitions(self) -> int: ...

    def size(self, block: int, partition: int | None = None) -> int: ...

    def pairs(self) -> int: ...


@dataclass(frozen=True, slots=True)
class MatchTask:
    """One schedulable chunk of comparison work."""

    block: int
    i: int
    j: int
    comparisons: int

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.block, self.i, self.j)

    @property
    def is_whole_block(self) -> bool:
        return (self.i, self.j) == WHOLE_BLOCK

    @property
    def is_cross_product(self) -> bool:
        return self.i != self.j


@dataclass(frozen=True, slots=True)
class MatchTaskAssignment:
    """The complete BlockSplit schedule for one (BDM, m, r) instance."""

    tasks: tuple[MatchTask, ...]
    reduce_of: dict[tuple[int, int, int], int]
    reduce_comparisons: tuple[int, ...]
    split_blocks: frozenset[int]
    threshold: float

    def task_reduce_index(self, block: int, i: int, j: int) -> int | None:
        """Reduce task of match task ``(block, i, j)``; None if absent."""
        return self.reduce_of.get((block, i, j))

    def is_split(self, block: int) -> bool:
        return block in self.split_blocks

    def tasks_of_block(self, block: int) -> list[MatchTask]:
        return [t for t in self.tasks if t.block == block]


def generate_match_tasks(bdm: BdmLike, num_reduce_tasks: int) -> tuple[list[MatchTask], frozenset[int], float]:
    """Create match tasks per Algorithm 1's ``map configure``.

    Returns ``(tasks, split block set, split threshold P/r)``.

    Unsplit blocks yield one ``k.*`` task — including zero-comparison
    singleton blocks, which the map phase later suppresses (Algorithm 1
    line 33 guards ``comps > 0``); keeping them here preserves the exact
    bookkeeping of the pseudo-code.
    """
    if num_reduce_tasks <= 0:
        raise ValueError(f"num_reduce_tasks must be positive, got {num_reduce_tasks}")
    threshold = bdm.pairs() / num_reduce_tasks
    tasks: list[MatchTask] = []
    split_blocks: set[int] = set()
    m = bdm.num_partitions
    for k in range(bdm.num_blocks):
        comps = block_pair_count(bdm.size(k))
        if comps <= threshold:
            tasks.append(MatchTask(k, *WHOLE_BLOCK, comparisons=comps))
            continue
        split_blocks.add(k)
        for i in range(m):
            size_i = bdm.size(k, i)
            for j in range(i + 1):
                size_j = bdm.size(k, j)
                if size_i * size_j <= 0:
                    continue
                if i == j:
                    tasks.append(MatchTask(k, i, i, block_pair_count(size_i)))
                else:
                    tasks.append(MatchTask(k, i, j, size_i * size_j))
    return tasks, frozenset(split_blocks), threshold


def assign_greedy(
    tasks: Sequence[MatchTask], num_reduce_tasks: int
) -> tuple[dict[tuple[int, int, int], int], list[int]]:
    """LPT assignment: biggest task first, to the least-loaded reduce task.

    Ties on task size break by task key, ties on load by reduce index —
    both deterministic.  Returns the task → reduce-index map and the
    per-reduce-task comparison totals.
    """
    if num_reduce_tasks <= 0:
        raise ValueError(f"num_reduce_tasks must be positive, got {num_reduce_tasks}")
    ordered = sorted(tasks, key=lambda t: (-t.comparisons, t.key))
    # Min-heap of (load, reduce index): pop = least-loaded, lowest index.
    heap = [(0, idx) for idx in range(num_reduce_tasks)]
    loads = [0] * num_reduce_tasks
    assignment: dict[tuple[int, int, int], int] = {}
    for task in ordered:
        load, target = heapq.heappop(heap)
        assignment[task.key] = target
        loads[target] = load + task.comparisons
        heapq.heappush(heap, (loads[target], target))
    return assignment, loads


def plan_block_split(bdm: BdmLike, num_reduce_tasks: int) -> MatchTaskAssignment:
    """Full BlockSplit schedule: generation + greedy assignment."""
    tasks, split_blocks, threshold = generate_match_tasks(bdm, num_reduce_tasks)
    assignment, loads = assign_greedy(tasks, num_reduce_tasks)
    return MatchTaskAssignment(
        tasks=tuple(tasks),
        reduce_of=assignment,
        reduce_comparisons=tuple(loads),
        split_blocks=split_blocks,
        threshold=threshold,
    )


# ---------------------------------------------------------------------------
# Match-task execution
# ---------------------------------------------------------------------------
#
# The reduce functions do not walk their candidate pairs one matcher
# call at a time: they describe each group's pairs as one spec (triangle
# / cross / spans — see :mod:`repro.er.batch_kernel`) and park it on the
# task's context; the whole reduce task then goes to the matcher in a
# single ``match_batch`` call.  These helpers hold the pieces every
# reduce loop shares.

#: Most pairs a reduce task parks before it scores what it holds instead
#: of waiting for its last group (a single larger group is scored on its
#: own): the batch kernel keeps about ten 8-byte arrays per pair, ~10 MB
#: for this many.
MAX_PENDING_PAIRS = 1 << 17


class ShuffleOrderError(ValueError):
    """A reduce group's values arrived in an order the shuffle cannot produce.

    The cross-product and two-source groups read their two sides off
    the arrival order (stable shuffle: one sub-block contiguously before
    the other; full-key sort: every R before any S).  ``position`` is
    the index of the first value that breaks that shape.
    """

    def __init__(self, job_name: str, key: Any, position: int):
        # All three as ``args``: the error survives the pickle round
        # trip a distributed worker ships it through.
        super().__init__(job_name, key, position)
        self.job_name = job_name
        self.key = key
        self.position = position

    def __str__(self) -> str:
        return (
            f"{self.job_name}: group {self.key!r} is out of shuffle order "
            f"at value {self.position}"
        )


class BatchedMatchJob(MapReduceJob):
    """A matching job whose reduce groups are scored together.

    ``reduce`` hands each group to :func:`run_batched_group`, which
    only parks it; :meth:`finish_reduce` scores what the task has
    parked.  Subclasses provide ``matcher``.
    """

    matcher: Any

    def finish_reduce(self, emit, context: TaskContext) -> None:
        flush_batched_groups(self.matcher, emit, context)


def run_batched_group(matcher, prepared: list, spec, emit, context) -> None:
    """Park one reduce group's pair spec for the task's ``match_batch``.

    Groups wait on the *task's* context (the job is shared between
    concurrently running tasks) until :meth:`BatchedMatchJob.
    finish_reduce` or :data:`MAX_PENDING_PAIRS`.
    """
    if context.pending_pairs + spec.count > MAX_PENDING_PAIRS:
        flush_batched_groups(matcher, emit, context)
    context.pending.append((prepared, spec))
    context.pending_pairs += spec.count


def flush_batched_groups(matcher, emit, context) -> None:
    """Score the task's parked groups in one ``match_batch`` call.

    The matcher sees one spec over the concatenated groups — every
    pair, in group order and then each spec's own order, which is the
    order the paper's streaming loops compare and emit in — so a
    per-pair matcher (the base ``match_batch``) reproduces them pair by
    pair, and the pair counters advance by the same totals.
    """
    pending = context.pending
    if not pending:
        return
    if len(pending) == 1:
        # As it is: concatenating would copy a possibly huge group's
        # index arrays once more.
        prepared, spec = pending[0]
    else:
        prepared = []
        offsets = []
        for group, _spec in pending:
            offsets.append(len(prepared))
            prepared.extend(group)
        spec = ConcatPairs([spec for _group, spec in pending], offsets)
    pending.clear()
    context.pending_pairs = 0
    matches = matcher.match_batch(prepared, spec)
    for pair in matches:
        emit(None, pair)
    flush_pair_counters(context, spec.count, len(matches))


def leading_run_split(markers: Sequence, job_name: str, key: Any) -> int:
    """Split point of a sequence that must be two contiguous runs.

    Returns ``split`` such that ``markers[:split]`` all equal
    ``markers[0]`` and ``markers[split:]`` never repeats it — the shape
    a cross-product group has when the stable shuffle delivers one
    sub-block contiguously before the other.  A leading marker that
    reappears later means the runs are interleaved:
    :class:`ShuffleOrderError`.  An empty sequence yields 0, a single
    run its full length.
    """
    if not markers:
        return 0
    first = markers[0]
    n = len(markers)
    split = 1
    while split < n and markers[split] == first:
        split += 1
    for position in range(split, n):
        if markers[position] == first:
            raise ShuffleOrderError(job_name, key, position)
    return split


def self_join_group(job, values, emit, context: TaskContext) -> None:
    """Self-join of a whole block (``k.*``) or one sub-block (``k.i``)."""
    prepare = job.matcher.prepare
    prepared = [prepare(e) for e, _partition in values]
    run_batched_group(
        job.matcher, prepared, TrianglePairs(len(prepared)), emit, context
    )


def cross_product_group(job, key, values, emit, context: TaskContext) -> None:
    """Cartesian product of two sub-blocks (``k.i×j``).

    Values arrive partition-contiguously (stable shuffle), so the first
    partition index delimits the buffered sub-block — Algorithm 1 lines
    56-65: one buffered run × one streamed run.
    """
    split = leading_run_split(
        [partition for _e, partition in values], job.name, key
    )
    prepare = job.matcher.prepare
    prepared = [prepare(e) for e, _partition in values]
    run_batched_group(
        job.matcher, prepared, CrossPairs(split, len(prepared)), emit, context
    )
