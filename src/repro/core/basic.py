"""The Basic strategy (Section III): blocking without load balancing.

Map emits ``(blocking key, entity)``; hash partitioning on the blocking
key sends every block to exactly one reduce task, which compares all of
its pairs.  One MR job, no BDM, no skew handling — the baseline every
figure of the evaluation compares against.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..er.batch_kernel import TrianglePairs
from ..er.blocking import BlockingFunction
from ..er.entity import Entity
from ..er.matching import Matcher
from ..mapreduce.job import TaskContext, stable_hash
from .match_tasks import BatchedMatchJob, run_batched_group


class BasicMatchJob(BatchedMatchJob):
    """The single MR job of the Basic strategy.

    Can consume either raw entities (``key=None, value=entity`` —
    the stand-alone single-job deployment, where map computes the
    blocking key) or Job-1-annotated records (``key=blocking key``),
    which the comparative benchmarks use so that every strategy sees
    identical input.
    """

    name = "basic-match"

    def __init__(self, matcher: Matcher, blocking: BlockingFunction | None = None):
        self.matcher = matcher
        self.blocking = blocking

    def map(self, key: Any, value: Entity, emit, context: TaskContext) -> None:
        if key is None:
            if self.blocking is None:
                raise ValueError(
                    "BasicMatchJob needs a blocking function for raw input"
                )
            key = self.blocking.key_for(value)
            if key is None:
                return
        emit(key, value)

    def partition(self, key: Any, num_reduce_tasks: int) -> int:
        return stable_hash(key) % num_reduce_tasks

    def sort_key(self, key: Any) -> Any:
        return repr(key)

    def reduce(
        self, key: Any, values: Sequence[Entity], emit, context: TaskContext
    ) -> None:
        # The whole block is one triangular batch: prepare every entity
        # once; the task's blocks are scored together in `finish_reduce`.
        prepare = self.matcher.prepare
        prepared = [prepare(e) for e in values]
        run_batched_group(
            self.matcher, prepared, TrianglePairs(len(prepared)), emit, context
        )
