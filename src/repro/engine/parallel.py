"""The parallel backend: map/reduce task units on a worker pool.

The shuffle stays in the driver (it is cheap and must see all map
output), but the task units — :func:`~repro.mapreduce.runtime.
execute_map_task` and :func:`~repro.mapreduce.runtime.
execute_reduce_task` — fan out over a ``concurrent.futures`` pool.
Results are collected in task-index order, so the merged
:class:`~repro.mapreduce.runtime.JobResult` (outputs, counters,
side files) is identical to the serial runtime's, just faster:
pair comparison dominates the runtime and parallelises across reduce
tasks, which is precisely the premise of the paper.

Executor choice:

``"process"``
    True multi-core speedup.  Requires the job (matcher, blocking
    function, BDM) to be picklable; matcher *instance* state mutated in
    workers stays in the workers — read comparison statistics from the
    job counters, which are always shipped back.  The job is pickled
    once per task submission; :class:`~repro.er.matching.ThresholdMatcher`
    pickles its configuration and counters and keeps no cache, so a
    worker scores every pair exactly as the driver would.
``"thread"``
    No pickling requirements and shared matcher state, but subject to
    the GIL — useful for tests and I/O-bound matchers.
``"auto"`` (default)
    ``"process"`` when the job round-trips through pickle, otherwise
    ``"thread"``.
"""

from __future__ import annotations

import os
import pickle
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from itertools import chain, islice
from typing import Callable, Iterable

from ..mapreduce.dfs import DistributedFileSystem
from ..mapreduce.job import MapReduceJob
from ..mapreduce.runtime import LocalRuntime, TaskCall
from .backend import register_backend
from .executing import ExecutingBackendBase

_EXECUTOR_KINDS = ("auto", "process", "thread")


class ParallelRuntime(LocalRuntime):
    """Job executor that schedules task units on a worker pool.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``os.cpu_count()``.
    executor:
        ``"process"``, ``"thread"`` or ``"auto"`` (see module docs).
    """

    def __init__(
        self,
        dfs: DistributedFileSystem | None = None,
        *,
        max_workers: int | None = None,
        executor: str = "auto",
    ):
        super().__init__(dfs)
        if executor not in _EXECUTOR_KINDS:
            raise ValueError(
                f"executor must be one of {_EXECUTOR_KINDS}, got {executor!r}"
            )
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers if max_workers is not None else os.cpu_count() or 1
        self.executor = executor
        self._pools: dict[str, Executor] = {}
        # (job, resolved kind) of the last "auto" decision; the strong
        # job reference keeps the id stable while the entry is live.
        self._auto_kind: tuple[MapReduceJob, str] | None = None

    def close(self) -> None:
        """Shut down any worker pools this runtime spun up."""
        for pool in self._pools.values():
            pool.shutdown(wait=True)
        self._pools.clear()

    # -- scheduling ---------------------------------------------------------

    def _run_calls(
        self, calls: Iterable[TaskCall], sink: "Callable | None"
    ) -> list:
        """Run the task units, collecting in submission (task-index)
        order: determinism does not depend on completion order.

        ``calls`` is the same lazily-evaluated unit stream the serial
        runtime walks: pulling a call emits the task-started event,
        checks cancellation and builds the arguments (under a memory
        budget, reduce buckets are spill-file views), and at most
        ``max_workers`` submissions are in flight — so neither task
        inputs nor uncollected results accumulate unboundedly in the
        driver.  ``sink`` is applied to each result as the driver
        obtains it.  A single task, or a single worker, runs in-process.
        """
        if self.max_workers == 1:
            return super()._run_calls(calls, sink)
        calls = iter(calls)
        head = list(islice(calls, 2))
        if len(head) < 2:
            return super()._run_calls(head, sink)
        drain = sink if sink is not None else (lambda result: result)
        # The job is the first argument of every task unit.
        pool = self._pool_for(head[0][1][0])
        results: list = []
        pending: deque = deque()
        for fn, args in chain(head, calls):
            while len(pending) >= self.max_workers:
                results.append(drain(pending.popleft().result()))
            pending.append(pool.submit(fn, *args))
        while pending:
            results.append(drain(pending.popleft().result()))
        return results

    def _pool_for(self, job: MapReduceJob) -> Executor:
        """The pool matching the job's executor kind.

        Pools are created lazily and reused for the runtime's lifetime
        (all phases of all jobs), so a two-job workflow pays worker
        startup once, not once per map/reduce phase.
        """
        kind = self._executor_kind(job)
        pool = self._pools.get(kind)
        if pool is None:
            pool = (
                ProcessPoolExecutor(max_workers=self.max_workers)
                if kind == "process"
                else ThreadPoolExecutor(max_workers=self.max_workers)
            )
            self._pools[kind] = pool
        return pool

    def _executor_kind(self, job: MapReduceJob) -> str:
        """Resolve "auto" to a pool kind, probing picklability once per
        job rather than once per map/reduce phase."""
        if self.executor != "auto":
            return self.executor
        if self._auto_kind is not None and self._auto_kind[0] is job:
            return self._auto_kind[1]
        kind = "process" if _picklable(job) else "thread"
        self._auto_kind = (job, kind)
        return kind


def _picklable(job: MapReduceJob) -> bool:
    try:
        pickle.dumps(job)
    # A probe: user matchers/blocking functions can raise anything from
    # __reduce__, and every failure means the same thing — use threads.
    except Exception:  # repro-lint: disable=silent-except -- probe by design
        return False
    return True


@register_backend
class ParallelBackend(ExecutingBackendBase):
    """Executes the workflow with :class:`ParallelRuntime` workers."""

    name = "parallel"

    def __init__(
        self,
        dfs: DistributedFileSystem | None = None,
        *,
        max_workers: int | None = None,
        executor: str = "auto",
    ):
        self._dfs = dfs
        self.max_workers = max_workers
        self.executor = executor

    def make_runtime(self) -> ParallelRuntime:
        return ParallelRuntime(
            self._dfs, max_workers=self.max_workers, executor=self.executor
        )

    def __repr__(self) -> str:
        return (
            f"ParallelBackend(max_workers={self.max_workers}, "
            f"executor={self.executor!r})"
        )
