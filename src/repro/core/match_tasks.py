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

from ..er.batch_kernel import ConcatPairs
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
# Batched match-task execution
# ---------------------------------------------------------------------------
#
# With ``batch_kernel`` enabled the reduce functions stop walking their
# candidate pairs one ``match_prepared`` call at a time: they describe
# each group's pairs as one spec (triangle / cross / spans — see
# :mod:`repro.er.batch_kernel`) and park it on the task's context; the
# whole reduce task then goes to the matcher in a single ``match_batch``
# call.  These helpers hold the pieces every batched reduce loop shares.

#: Most pairs a reduce task parks before it scores what it holds instead
#: of waiting for its last group (a single larger group is scored on its
#: own): the batch kernel keeps about ten 8-byte arrays per pair, ~10 MB
#: for this many.
MAX_PENDING_PAIRS = 1 << 17


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
    finish_reduce`, an earlier :func:`flush_batched_groups` by a reduce
    function about to emit directly, or :data:`MAX_PENDING_PAIRS`.
    """
    if context.pending_pairs + spec.count > MAX_PENDING_PAIRS:
        flush_batched_groups(matcher, emit, context)
    context.pending.append((prepared, spec))
    context.pending_pairs += spec.count


def flush_batched_groups(matcher, emit, context) -> None:
    """Score the task's parked groups in one ``match_batch`` call.

    The matcher sees one spec over the concatenated groups — every
    pair, in group order and then each spec's own order, which is the
    order the scalar streaming loops compare and emit in — and the pair
    counters advance by the same totals, so per-task outputs and
    counters are byte-identical to the scalar path.
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


def leading_run_split(markers: Sequence) -> int | None:
    """Split point of a sequence expected to be two contiguous runs.

    Returns ``split`` such that ``markers[:split]`` all equal
    ``markers[0]`` and ``markers[split:]`` never repeats it — the shape
    a cross-product group has when the stable shuffle delivers one
    sub-block contiguously before the other.  Returns ``None`` when the
    leading marker reappears later: the runs are interleaved, no
    cross-product batch can be formed, and the caller must fall back to
    its scalar streaming loop (which defines the semantics for such
    input).  An empty sequence yields 0, a single run its full length.
    """
    if not markers:
        return 0
    first = markers[0]
    n = len(markers)
    split = 1
    while split < n and markers[split] == first:
        split += 1
    for marker in markers[split:]:
        if marker == first:
            return None
    return split
