"""The distributed backend: one job on a worker pool of its own.

The scheduler — worker bring-up, heartbeats, task timeout, requeue,
bounded retry, respawn, stale-reply handling, the in-order merge — is
:mod:`repro.engine.pool`, shared with the :mod:`repro.serve` daemon.
What this module adds is ownership: a :class:`DistributedRuntime` is a
:class:`~repro.engine.pool.PooledRuntime` over a private
:class:`~repro.engine.pool.SharedWorkerPool` that it starts at its
first task unit and closes with itself, so ``backend="distributed"``
pays worker startup per run and needs no daemon.  Matches, counters,
per-task statistics and the execution-event stream are byte-identical
to the serial backend (``tests/engine/test_distributed.py``), under
injected worker crashes and hangs too
(``tests/engine/test_fault_injection.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from ..mapreduce.dfs import DistributedFileSystem
from ..mapreduce.runtime import TaskCall
from .backend import register_backend
from .executing import ExecutingBackendBase
from .pool import PooledRuntime, SharedWorkerPool


class DistributedRuntime(PooledRuntime):
    """Job executor that ships task units to worker processes it owns.

    Parameters are those of :class:`~repro.engine.pool.SharedWorkerPool`
    (validated there, before anything is spawned), except that
    ``max_worker_respawns`` defaults to 0: a one-run pool only shrinks
    unless asked to heal.  Workers are spawned lazily, at the first
    task unit, and live until :meth:`close` — both jobs of the workflow
    pay startup once.
    """

    def __init__(
        self,
        dfs: DistributedFileSystem | None = None,
        *,
        max_worker_respawns: int = 0,
        **pool_options: Any,
    ):
        pool = SharedWorkerPool(
            max_worker_respawns=max_worker_respawns, **pool_options
        )
        super().__init__(pool, name="distributed", dfs=dfs)

    def _run_calls(
        self, calls: Iterable[TaskCall], sink: "Callable | None"
    ) -> list:
        self._pool.start()
        return super()._run_calls(calls, sink)

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._pool.close()


@register_backend
class DistributedBackend(ExecutingBackendBase):
    """Executes the workflow on :class:`DistributedRuntime` worker
    processes; registry name ``"distributed"`` (CLI: ``--backend
    distributed --workers N --task-timeout S --max-worker-respawns
    K``)."""

    name = "distributed"

    def __init__(
        self,
        dfs: DistributedFileSystem | None = None,
        *,
        num_workers: int | None = None,
        task_timeout: float | None = None,
        max_task_retries: int = 2,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float | None = 15.0,
        max_worker_respawns: int = 0,
    ):
        self._dfs = dfs
        self.num_workers = num_workers
        self.task_timeout = task_timeout
        self.max_task_retries = max_task_retries
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_worker_respawns = max_worker_respawns

    def make_runtime(self) -> DistributedRuntime:
        return DistributedRuntime(
            self._dfs,
            num_workers=self.num_workers if self.num_workers is not None else 2,
            task_timeout=self.task_timeout,
            max_task_retries=self.max_task_retries,
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_timeout=self.heartbeat_timeout,
            max_worker_respawns=self.max_worker_respawns,
        )

    def __repr__(self) -> str:
        return (
            f"DistributedBackend(num_workers={self.num_workers}, "
            f"task_timeout={self.task_timeout}, "
            f"max_task_retries={self.max_task_retries})"
        )
