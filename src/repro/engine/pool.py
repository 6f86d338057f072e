"""The worker pool: one scheduler for every out-of-process run.

This is the paper's deployment story made real at miniature scale: the
whole point of BlockSplit/PairRange is that independent workers receive
even shares of the comparison workload, and here the workers are
independent OS processes.  :class:`SharedWorkerPool` listens on a
loopback socket, spawns ``num_workers`` processes running ``python -m
repro.worker``, and ships them the very same schedulable task units
every other runtime executes —
:func:`~repro.mapreduce.runtime.execute_map_task` /
:func:`~repro.mapreduce.runtime.execute_reduce_task` — serialized over
the length-prefixed framing of :mod:`repro.mapreduce.transport`.

It is the only driver-side scheduler.  The ``"distributed"`` backend
(:mod:`repro.engine.distributed`) is the one-job case — a private pool
that lives for one run — and the :mod:`repro.serve` daemon the many-job
case — one long-lived pool multiplexing task units from any number of
concurrent jobs:

* **Fair interleaving** — dispatch rotates round-robin over the jobs
  that have runnable task units, so a large job cannot starve a small
  one; with a single active job the whole pool is its.
* **Per-job isolation** — a task that raises, or exhausts its retry
  budget after worker losses, fails *its* job only; every other job
  keeps running.  Cancelling a job drops its queued task units and
  discards results of its in-flight ones.

All scheduler state is owned by one thread; job channels and worker
receiver threads communicate with it exclusively through the inbox
queue, so there are no locks to get wrong.

Determinism per job is preserved by construction:

* task units are pure (no shared state; side outputs ride back on the
  result and are applied by the job's driver, in task order);
* each job's task units are *pulled* in submission order, at most
  ``num_workers`` in flight per job (so ``task-started`` events and
  cancellation checks fire exactly as in the serial runtime);
* results are merged and drained through the sink in **task-index
  order** by :class:`PooledRuntime`, whatever order workers finish in.

So a job's matches, counters, per-task statistics and execution-event
stream are byte-identical to the serial backend no matter how many
neighbours it shares the pool with — proven per strategy ×
source-arity × memory budget in ``tests/engine/test_distributed.py``.

Fault tolerance (the part a networked backend cannot skip):

* every worker heartbeats; a silent worker is declared dead after
  ``heartbeat_timeout`` seconds;
* a worker whose connection drops (crash) or whose current task
  exceeds ``task_timeout`` is killed and its task is **requeued** to
  the front of its job's queue — at most ``max_task_retries`` times,
  then that job fails with a clean :class:`DistributedExecutionError`;
* a lost worker is **respawned** — a fresh process under a fresh
  index — within the pool-level ``max_worker_respawns`` budget.  Past
  it the pool shrinks, and only when it empties out do the active
  jobs fail (:class:`WorkerPoolError`);
* a task that *raises* is not retried (the failure is deterministic);
  the remote exception propagates to the job's driver exactly like
  the in-process backends propagate theirs;
* a late result from a worker that was already declared dead is
  discarded by task id, so a requeued task can never be double-counted.

``tests/engine/test_fault_injection.py`` drives all of this with real
injected crashes and hangs (see the env hooks in :mod:`repro.worker`),
through the distributed backend and through a pool shared with a
second, healthy job.
"""

from __future__ import annotations

import itertools
import os
import queue
import secrets
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Iterable

from ..mapreduce.dfs import DistributedFileSystem
from ..mapreduce.runtime import LocalRuntime, TaskCall
from ..mapreduce.transport import (
    ENV_TOKEN,
    Connection,
    Listener,
    TransportError,
    encode_message,
)
from .executing import ExecutingBackendBase


class DistributedExecutionError(RuntimeError):
    """Worker processes could not finish a job: workers were lost
    faster than tasks could be retried, a task cannot be shipped, or a
    task exhausted its retry budget."""


class WorkerPoolError(DistributedExecutionError):
    """The pool itself is unusable (startup failed, every worker lost
    with no respawn budget left, or the pool was closed)."""


class WorkerLauncher:
    """Spawns and authenticates ``python -m repro.worker`` processes.

    Owns the accept socket and the per-cluster token, and knows how to
    build the child environment (token via :data:`ENV_TOKEN`, never
    argv; ``PYTHONPATH`` extended so workers import :mod:`repro` the
    same way the driver does).  A :class:`SharedWorkerPool` holds one
    for its lifetime.
    """

    def __init__(self, *, heartbeat_interval: float = 0.5):
        self.listener = Listener()
        self.heartbeat_interval = heartbeat_interval
        #: Random per-pool token; workers echo it back as a raw byte
        #: preamble before anything is unpickled from their connection.
        # repro-lint: disable=nondeterministic-call -- auth secret; never in results
        self.token: bytes = secrets.token_hex(16).encode("ascii")
        self._env: dict[str, str] | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self.listener.address

    def _build_env(self) -> dict[str, str]:
        env = os.environ.copy()
        # The token travels via the environment, never argv — other
        # local users can read a process's command line from /proc.
        env[ENV_TOKEN] = self.token.decode("ascii")
        # Workers must import repro the same way the driver does, even
        # when it is not installed (PYTHONPATH=src checkouts).
        import repro

        package_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing
            else package_root + os.pathsep + existing
        )
        return env

    def spawn(self, index: int) -> subprocess.Popen:
        """Start one worker process that will connect back and
        authenticate under ``index``."""
        if self._env is None:
            self._env = self._build_env()
        host, port = self.listener.address
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.worker",
                "--host", host, "--port", str(port),
                "--index", str(index),
                "--heartbeat-interval", str(self.heartbeat_interval),
            ],
            env=self._env,
        )

    def accept(self, timeout: float) -> tuple[int, Connection]:
        """Wait for one worker to connect and authenticate.

        Authentication happens on raw bytes, *before* the first pickled
        message is read from the socket — an unauthenticated local peer
        never gets attacker-controlled bytes into ``pickle.loads``.
        Raises :class:`DistributedExecutionError` on a bad token or
        hello, :class:`~repro.mapreduce.transport.TransportError` when
        nothing connects in time.
        """
        conn = self.listener.accept(timeout=timeout)
        preamble = conn.recv_raw(len(self.token), timeout=timeout)
        if not secrets.compare_digest(preamble, self.token):
            conn.close()
            raise DistributedExecutionError(
                "worker authentication failed: bad token preamble"
            )
        hello = conn.recv(timeout=timeout)
        if (
            not isinstance(hello, tuple)
            or len(hello) != 3
            or hello[0] != "hello"
        ):
            conn.close()
            raise DistributedExecutionError(
                "worker authentication failed: unexpected hello"
            )
        return hello[1], conn

    def close(self) -> None:
        self.listener.close()

    def __repr__(self) -> str:
        return f"WorkerLauncher(address={self.address})"


class _Task:
    """One in-flight task unit: its wire frame plus retry bookkeeping.

    The message is encoded once at creation — a requeue re-sends the
    identical frame, so retries cannot diverge from the first attempt.
    """

    __slots__ = ("task_id", "index", "unit", "frame", "attempts", "sent_at")

    def __init__(self, task_id: int, index: int, unit: str, frame: bytes):
        self.task_id = task_id
        self.index = index
        self.unit = unit
        self.frame = frame
        self.attempts = 0
        self.sent_at = 0.0

    def describe(self) -> str:
        return f"{self.unit} task #{self.index}"


class _PoolJob:
    """Scheduler-side state of one registered job."""

    __slots__ = ("job_id", "name", "pending", "outbox", "closed")

    def __init__(self, job_id: int, name: str):
        self.job_id = job_id
        self.name = name
        #: Runnable task units, in submission order (requeues go back
        #: to the front so retry order matches the first attempt).
        self.pending: deque[_Task] = deque()
        #: Completions/failures for the job channel to drain.
        self.outbox: "queue.Queue[tuple]" = queue.Queue()
        self.closed = False


class _WorkerHandle:
    """Scheduler-side view of one worker process."""

    __slots__ = ("index", "process", "conn", "task", "last_seen", "thread")

    def __init__(self, index: int, process: subprocess.Popen, conn: Connection):
        self.index = index
        self.process = process
        self.conn = conn
        #: The task unit running on this worker and the job it belongs to.
        self.task: tuple[_PoolJob, _Task] | None = None
        self.last_seen = time.monotonic()
        self.thread: threading.Thread | None = None

    def shutdown(self, *, kill: bool) -> None:
        """Stop the process: graceful (``shutdown`` message + SIGTERM)
        or immediate (SIGKILL, for hung/expired workers)."""
        if not kill:
            try:
                self.conn.send(("shutdown",))
            except TransportError:
                pass
        self.conn.close()
        if self.process.poll() is None:
            if kill:
                self.process.kill()
            else:
                self.process.terminate()
        try:
            self.process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


class PoolJobChannel:
    """One job's handle on the pool.

    Created by :meth:`SharedWorkerPool.open_job`; used from the job's
    driver thread.  ``submit`` enqueues one task unit, ordered
    completions come back through ``next_completion``, and ``close``
    withdraws the job — dropping queued tasks and telling the pool to
    discard results of tasks still running on workers.
    """

    def __init__(self, pool: "SharedWorkerPool", job: _PoolJob):
        self._pool = pool
        self._job = job

    @property
    def job_id(self) -> int:
        return self._job.job_id

    def submit(self, unit: str, index: int, args: tuple) -> None:
        """Enqueue one task unit (``unit`` is ``"map"``/``"reduce"``)."""
        # Task ids come from the pool-wide counter (atomic under the
        # GIL) so ids are unique across concurrent jobs and a stale
        # reply can never be paired with another job's task.  The frame
        # is encoded once, here in the submitting thread — pickling
        # errors surface to the job synchronously, and a requeue
        # re-ships the identical bytes.
        task_id = next(self._pool._task_ids)
        try:
            frame = encode_message(("task", task_id, unit, args))
        except Exception as exc:
            raise DistributedExecutionError(
                "task units ship to worker processes, but this "
                f"{unit} task cannot be pickled (job, matcher and "
                f"blocking function must all support pickle): {exc!r}"
            ) from exc
        self._pool._post(("submit", self._job, _Task(task_id, index, unit, frame)))

    def next_completion(self, timeout: float | None = None) -> tuple[int, Any]:
        """Block for the next finished task: ``(task_index, result)``.

        Raises the remote exception for a task that raised, and
        :class:`DistributedExecutionError` /:class:`WorkerPoolError`
        when the job or pool failed.
        """
        kind, *payload = self._job.outbox.get(timeout=timeout)
        if kind == "result":
            index, result = payload
            return index, result
        error = payload[0]
        raise error

    def close(self) -> None:
        """Withdraw the job from the pool (idempotent)."""
        self._pool._post(("close", self._job))


class SharedWorkerPool:
    """A pool of worker processes shared by any number of jobs.

    Parameters
    ----------
    num_workers:
        Worker processes to spawn (by :meth:`start`).
    task_timeout:
        Seconds one task may run on a worker before the worker is
        presumed stuck, killed, and the task requeued.  ``None``
        (default) disables the timeout — a heartbeating-but-hung worker
        is then indistinguishable from a slow one.
    max_task_retries:
        How many times one task may be *requeued* after a worker loss
        before its job fails (so a task runs at most
        ``max_task_retries + 1`` times).
    heartbeat_interval / heartbeat_timeout:
        Workers send a liveness message every ``heartbeat_interval``
        seconds; a worker silent for ``heartbeat_timeout`` seconds is
        declared dead (its process may be frozen rather than exited).
    startup_timeout:
        How long to wait for all spawned workers to connect back.
    max_worker_respawns:
        How many replacement workers may be spawned over the pool's
        lifetime when workers are lost — each a fresh process under a
        fresh index.  Defaults to ``2 * num_workers`` (a server pool
        should heal); 0 means the pool only shrinks.
    """

    def __init__(
        self,
        *,
        num_workers: int = 2,
        task_timeout: float | None = None,
        max_task_retries: int = 2,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float | None = 15.0,
        startup_timeout: float = 60.0,
        max_worker_respawns: int | None = None,
    ):
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout}")
        if max_task_retries < 0:
            raise ValueError(
                f"max_task_retries must be >= 0, got {max_task_retries}"
            )
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be positive, got {heartbeat_timeout}"
            )
        if max_worker_respawns is not None and max_worker_respawns < 0:
            raise ValueError(
                f"max_worker_respawns must be >= 0, got {max_worker_respawns}"
            )
        self.num_workers = num_workers
        self.task_timeout = task_timeout
        self.max_task_retries = max_task_retries
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.startup_timeout = startup_timeout
        self.max_worker_respawns = (
            2 * num_workers if max_worker_respawns is None
            else max_worker_respawns
        )
        self._respawns_left = self.max_worker_respawns
        self._launcher: WorkerLauncher | None = None
        self._workers: dict[int, _WorkerHandle] = {}
        self._jobs: dict[int, _PoolJob] = {}
        self._rotation: deque[_PoolJob] = deque()
        self._inbox: "queue.Queue[tuple]" = queue.Queue()
        self._job_ids = itertools.count()
        self._task_ids = itertools.count()
        #: Fresh indices for respawned workers (never reuses a dead
        #: worker's slot, so late messages cannot be misattributed).
        self._worker_indices = itertools.count(num_workers)
        self._scheduler: threading.Thread | None = None
        self._broken: BaseException | None = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SharedWorkerPool":
        """Spawn and authenticate the workers, start the scheduler."""
        if self._scheduler is not None:
            return self
        launcher = WorkerLauncher(heartbeat_interval=self.heartbeat_interval)
        self._launcher = launcher
        processes: dict[int, subprocess.Popen] = {}
        try:
            for index in range(self.num_workers):
                processes[index] = launcher.spawn(index)
            deadline = time.monotonic() + self.startup_timeout
            for _ in range(self.num_workers):
                remaining = max(0.1, deadline - time.monotonic())
                try:
                    index, conn = launcher.accept(timeout=remaining)
                except TransportError as exc:
                    exits = {i: p.poll() for i, p in processes.items()}
                    raise WorkerPoolError(
                        f"worker startup failed: {exc} "
                        f"(worker exit codes so far: {exits})"
                    ) from exc
                self._register_worker(index, processes[index], conn)
        except BaseException:
            for proc in processes.values():
                if proc.poll() is None:
                    proc.kill()
            for worker in self._workers.values():
                worker.shutdown(kill=True)
            self._workers.clear()
            launcher.close()
            self._launcher = None
            raise
        self._scheduler = threading.Thread(
            target=self._run_scheduler, name="repro-pool-scheduler", daemon=True
        )
        self._scheduler.start()
        return self

    def close(self) -> None:
        """Stop the scheduler and shut every worker down (idempotent).

        Jobs still registered fail with :class:`WorkerPoolError`.
        """
        if self._closed:
            return
        self._closed = True
        scheduler, self._scheduler = self._scheduler, None
        if scheduler is not None:
            self._post(("stop",))
            scheduler.join(timeout=30)
        for worker in list(self._workers.values()):
            worker.shutdown(kill=False)
        self._workers.clear()
        if self._launcher is not None:
            self._launcher.close()
            self._launcher = None
        if scheduler is not None and scheduler.is_alive():
            raise WorkerPoolError(
                "the pool scheduler thread did not stop within 30s of "
                "close(); its workers were shut down regardless"
            )

    def __enter__(self) -> "SharedWorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def alive_workers(self) -> int:
        """Current pool size (scheduler-owned; read for observability)."""
        return len(self._workers)

    # -- job interface -------------------------------------------------------

    def open_job(self, name: str = "job") -> PoolJobChannel:
        """Register one job; its channel is ready for submissions."""
        if self._scheduler is None or self._closed:
            raise WorkerPoolError("the shared worker pool is not running")
        job = _PoolJob(next(self._job_ids), name)
        self._post(("open", job))
        return PoolJobChannel(self, job)

    def _post(self, message: tuple) -> None:
        self._inbox.put(message)

    def _register_worker(
        self, index: int, process: subprocess.Popen, conn: Connection
    ) -> None:
        worker = _WorkerHandle(index, process, conn)
        self._workers[index] = worker
        thread = threading.Thread(
            target=self._receive_loop,
            args=(worker,),
            name=f"repro-pool-recv-{index}",
            daemon=True,
        )
        worker.thread = thread
        thread.start()

    def _receive_loop(self, worker: _WorkerHandle) -> None:
        """Pump one worker's messages into the inbox; a broken stream
        becomes a synthetic ``died`` message."""
        while True:
            try:
                message = worker.conn.recv()
            # Deliberately broad: *any* receive failure — transport,
            # truncated pickle, decode — means this worker is dead to
            # the scheduler, which owns retry/respawn policy.
            except Exception:  # repro-lint: disable=silent-except -- becomes a 'died' message
                self._post(("worker", worker.index, ("died",)))
                return
            self._post(("worker", worker.index, message))

    # -- the scheduler thread ------------------------------------------------

    def _run_scheduler(self) -> None:
        while True:
            try:
                if self._scheduler_step():
                    return
            # This thread is the boundary that must keep running: an
            # unexpected error used to kill it silently and leave every
            # job blocked in next_completion() forever.  Now the jobs
            # fail with the cause, and the loop stays up only to refuse
            # later submissions and to honour close().
            except Exception as exc:  # repro-lint: disable=silent-except -- fails every job with it
                error = WorkerPoolError(f"the pool scheduler died: {exc!r}")
                error.__cause__ = exc
                self._broken = error
                self._fail_all_jobs(error)

    def _scheduler_step(self) -> bool:
        """Handle one inbox message or deadline tick; true once stopped.

        A broken pool (no workers left, or the scheduler itself failed)
        schedules nothing any more: submissions are refused in
        :meth:`_on_submit` and worker chatter is dropped.
        """
        scheduling = self._broken is None
        try:
            message = self._inbox.get(timeout=self._tick() if scheduling else None)
        except queue.Empty:
            message = ("tick",)
        kind = message[0]
        if kind == "stop":
            self._fail_all_jobs(WorkerPoolError(
                "the shared worker pool was shut down"
            ))
            return True
        if kind == "open":
            job = message[1]
            self._jobs[job.job_id] = job
        elif kind == "submit":
            self._on_submit(message[1], message[2])
        elif kind == "close":
            self._on_close(message[1])
        elif kind == "worker" and scheduling:
            self._on_worker_message(message[1], message[2])
        if scheduling:
            self._reap_expired()
            self._dispatch_ready()
        return False

    def _on_submit(self, job: _PoolJob, task: _Task) -> None:
        if job.closed or job.job_id not in self._jobs:
            return
        if self._broken is not None:
            job.outbox.put(("failed", self._broken))
            return
        if not job.pending:
            self._rotation.append(job)
        job.pending.append(task)

    def _on_close(self, job: _PoolJob) -> None:
        job.closed = True
        job.pending.clear()
        self._jobs.pop(job.job_id, None)
        # In-flight tasks of this job finish on their workers; their
        # results are discarded on arrival (the job is gone) and the
        # workers become free for other jobs.

    def _on_worker_message(self, worker_index: int, message: tuple) -> None:
        worker = self._workers.get(worker_index)
        if worker is None:
            return  # stale: that worker was already written off
        worker.last_seen = time.monotonic()
        kind = message[0]
        if kind == "died":
            self._fail_worker(worker, "worker process died")
            return
        if kind not in ("result", "error"):
            return  # heartbeat (or unknown chatter): liveness recorded
        assignment = worker.task
        if assignment is None or assignment[1].task_id != message[1]:
            return  # stale reply for a task requeued elsewhere
        worker.task = None
        job, task = assignment
        if job.closed or job.job_id not in self._jobs:
            return  # the job was cancelled/closed: discard the result
        if kind == "error":
            # Deterministic failure: not retried, fails this job only.
            job.outbox.put(("task-error", message[2]))
        else:
            job.outbox.put(("result", task.index, message[2]))

    # -- dispatch ------------------------------------------------------------

    def _dispatch_ready(self) -> None:
        for worker in [w for w in self._workers.values() if w.task is None]:
            assignment = self._next_pending()
            if assignment is None:
                return
            self._dispatch(worker, *assignment)

    def _next_pending(self) -> "tuple[_PoolJob, _Task] | None":
        """Round-robin over jobs with runnable tasks: pop one task from
        the job at the head of the rotation, then rotate it to the
        back — fair interleaving across however many jobs are active."""
        while self._rotation:
            job = self._rotation.popleft()
            if job.closed or job.job_id not in self._jobs or not job.pending:
                continue
            task = job.pending.popleft()
            if job.pending:
                self._rotation.append(job)
            return job, task
        return None

    def _dispatch(self, worker: _WorkerHandle, job: _PoolJob, task: _Task) -> None:
        worker.task = (job, task)
        task.sent_at = time.monotonic()
        try:
            worker.conn.send_bytes(task.frame)
        except TransportError:
            self._fail_worker(worker, "connection failed at dispatch")

    # -- failure handling ----------------------------------------------------

    def _tick(self) -> float | None:
        """How long the scheduler may block before a deadline needs
        checking (``None`` = no deadlines configured, wait for events)."""
        deadlines: list[float] = []
        for worker in self._workers.values():
            if self.heartbeat_timeout is not None:
                deadlines.append(worker.last_seen + self.heartbeat_timeout)
            if self.task_timeout is not None and worker.task is not None:
                deadlines.append(worker.task[1].sent_at + self.task_timeout)
        if not deadlines:
            return None
        return max(0.01, min(deadlines) - time.monotonic())

    def _reap_expired(self) -> None:
        now = time.monotonic()
        expired: list[tuple[_WorkerHandle, str]] = []
        for worker in self._workers.values():
            if (
                self.task_timeout is not None
                and worker.task is not None
                and now - worker.task[1].sent_at > self.task_timeout
            ):
                expired.append((
                    worker,
                    f"{worker.task[1].describe()} exceeded "
                    f"task_timeout={self.task_timeout}s",
                ))
            elif (
                self.heartbeat_timeout is not None
                and now - worker.last_seen > self.heartbeat_timeout
            ):
                expired.append((
                    worker,
                    f"no heartbeat for {self.heartbeat_timeout}s",
                ))
        for worker, reason in expired:
            self._fail_worker(worker, reason)

    def _fail_worker(self, worker: _WorkerHandle, reason: str) -> None:
        """Write a worker off: kill, respawn within budget, requeue its
        task (bounded) — failing only the task's own job on exhaustion,
        and all jobs only when the pool itself is gone."""
        self._workers.pop(worker.index, None)
        assignment = worker.task
        worker.task = None
        worker.shutdown(kill=True)
        # Heal the pool before deciding the task's fate: a successful
        # respawn is one more survivor for the unchanged requeue path.
        self._respawn_worker()
        if assignment is not None:
            job, task = assignment
            if not job.closed and job.job_id in self._jobs:
                task.attempts += 1
                if task.attempts > self.max_task_retries:
                    job.outbox.put(("failed", DistributedExecutionError(
                        f"{task.describe()} failed {task.attempts} time(s) "
                        f"and exhausted its retry budget "
                        f"(max_task_retries={self.max_task_retries}); "
                        f"last failure: worker {worker.index}: {reason}"
                    )))
                    self._on_close(job)
                else:
                    job.pending.appendleft(task)
                    if job not in self._rotation:
                        self._rotation.append(job)
        if not self._workers:
            self._broken = WorkerPoolError(
                f"all workers were lost (last: worker "
                f"{worker.index}: {reason}) and the respawn budget "
                f"(max_worker_respawns={self.max_worker_respawns}) "
                f"is exhausted"
            )
            self._fail_all_jobs(self._broken)

    def _respawn_worker(self) -> None:
        """Replace one lost worker, if the respawn budget allows.

        A failed respawn (spawn error, startup timeout) consumes budget
        and the pool simply stays smaller, exactly as if no budget had
        been configured.
        """
        if self._respawns_left <= 0 or self._launcher is None:
            return
        self._respawns_left -= 1
        index = next(self._worker_indices)
        process: subprocess.Popen | None = None
        try:
            process = self._launcher.spawn(index)
            accepted_index, conn = self._launcher.accept(
                timeout=self.startup_timeout
            )
            self._register_worker(accepted_index, process, conn)
        except (OSError, TransportError, DistributedExecutionError):
            # Failed respawn: reap the half-started process; the pool
            # keeps running with one fewer worker.
            if process is not None and process.poll() is None:
                process.kill()

    def _fail_all_jobs(self, error: BaseException) -> None:
        for job in list(self._jobs.values()):
            job.outbox.put(("failed", error))
            self._on_close(job)

    def __repr__(self) -> str:
        return (
            f"SharedWorkerPool(num_workers={self.num_workers}, "
            f"alive={self.alive_workers}, jobs={len(self._jobs)})"
        )


def _unit_names() -> dict[Callable[..., Any], str]:
    """Task-unit function → the name the wire protocol ships, derived
    from the worker's registry (the one place units are listed)."""
    # Imported here, not at module level: worker processes run
    # ``repro.worker`` as ``__main__`` after importing this package, and
    # runpy warns when the module it is about to run is already loaded.
    from ..worker import TASK_UNITS

    return {fn: name for name, fn in TASK_UNITS.items()}


class PooledRuntime(LocalRuntime):
    """A job executor whose task units run on a :class:`SharedWorkerPool`.

    One runtime = one job on the pool.  This single ``_run_calls``
    override carries both phases of both jobs of the workflow: task
    units are pulled lazily in submission order (``task-started``
    events and cancellation checks fire at the pull, at most
    ``num_workers`` payloads of this job in flight — reduce buckets
    included) and results are merged — and drained through the sink —
    in task-index order.  What order the *pool* runs them in,
    interleaved with other jobs, is invisible to the result.

    The job (strategy job, matcher, blocking function, BDM) must be
    picklable — the same requirement as the parallel backend's process
    pool.  Matcher instance state mutated in workers stays in the
    workers; read per-run numbers from the job counters, which always
    ship back with the task results.
    """

    def __init__(
        self,
        pool: SharedWorkerPool,
        *,
        name: str = "job",
        dfs: DistributedFileSystem | None = None,
    ):
        super().__init__(dfs)
        self._pool = pool
        self._name = name

    def _run_calls(
        self, calls: Iterable[TaskCall], sink: "Callable | None"
    ) -> list:
        drain = sink if sink is not None else (lambda result: result)
        unit_names = _unit_names()
        window = self._pool.num_workers
        calls_iter = iter(calls)
        exhausted = False
        pulled = 0
        completed = 0
        next_index = 0
        buffered: dict[int, Any] = {}
        ordered: list = []
        channel = self._pool.open_job(self._name)
        try:
            while True:
                while not exhausted and pulled - completed < window:
                    try:
                        fn, args = next(calls_iter)
                    except StopIteration:
                        exhausted = True
                        break
                    channel.submit(unit_names[fn], pulled, args)
                    pulled += 1
                if exhausted and completed == pulled:
                    return ordered
                index, result = channel.next_completion()
                buffered[index] = result
                completed += 1
                while next_index in buffered:
                    ordered.append(drain(buffered.pop(next_index)))
                    next_index += 1
        finally:
            # Normal completion: everything was drained, close is a
            # cheap unregister.  On error/cancel: queued tasks are
            # dropped and in-flight results discarded by the pool.
            channel.close()


class PooledBackend(ExecutingBackendBase):
    """Executes pipeline requests on a pool it does **not** own.

    This is the server's execution backend: every submitted job gets a
    fresh :class:`PooledRuntime` (fresh per-job DFS, exactly like every
    other backend), all multiplexed over the one long-lived pool.  Not
    in the backend registry — it only makes sense wired to a running
    :class:`SharedWorkerPool`.
    """

    name = "serve-pool"

    def __init__(self, pool: SharedWorkerPool, *, job_name: str = "job"):
        self._pool = pool
        self.job_name = job_name

    def make_runtime(self) -> PooledRuntime:
        return PooledRuntime(self._pool, name=self.job_name)

    def __repr__(self) -> str:
        return f"PooledBackend(pool={self._pool!r})"
