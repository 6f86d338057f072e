"""The ER service daemon: one worker pool, many concurrent jobs.

:class:`ERServer` is the paper's driver turned into a long-running
service.  It owns one :class:`~repro.engine.pool.SharedWorkerPool`
(startup paid once, healed on worker loss) and a TCP front end speaking
the protocol of :mod:`repro.serve.protocol`: any number of clients
connect, authenticate, and submit :class:`~repro.engine.backend.
PipelineRequest`\\ s; every submission becomes a server-side
:class:`~repro.engine.execution.PipelineExecution` on a
:class:`~repro.engine.pool.PooledBackend`, so all active jobs multiplex
their task units over the one pool with fair scheduling — and each
client still gets the full execution surface remotely: ordered events
(streamed matches included), progress, cooperative cancel, and the
final :class:`~repro.engine.result.PipelineResult`.

Failure semantics, by construction:

* **Bad token** — the connection is closed after the raw preamble
  comparison; nothing the peer sent is ever unpickled.
* **Client disconnect** — every job of *that* session is cancelled
  cooperatively; other sessions and their jobs are untouched.
* **Worker crash** — the pool requeues the lost worker's task and
  respawns a replacement within budget; served jobs simply keep
  running (the affected task re-runs, results stay byte-identical).
* **Shutdown** — new submissions are refused, active jobs drain for up
  to ``drain_timeout`` seconds, stragglers are cancelled, workers are
  shut down gracefully.

Every finished job (succeeded, failed or cancelled) appends one JSON
line to the workload log, when configured: request parameters,
per-stage wall-clock timings, and the comparison/match counters — the
service-side equivalent of the paper's per-experiment bookkeeping.
"""

from __future__ import annotations

import json
import secrets
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from ..engine.backend import DeltaSpec, PipelineRequest
from ..engine.execution import PipelineExecution
from ..engine.pool import PooledBackend, SharedWorkerPool
from ..mapreduce.events import ExecutionEvent
from ..mapreduce.transport import (
    Connection,
    Listener,
    TransportError,
)
from .protocol import TOKEN_BYTES, encode_token, service_token, wire_event


@dataclass
class _ServedJob:
    """Server-side state of one submitted job.

    ``execution`` is ``None`` for the moment between registration and
    construction: the job is registered (atomically with the draining
    check) *before* the execution starts, so shutdown can never miss
    an accepted job — see :meth:`ERServer._handle_submit`.
    """

    job_id: int
    session: "_Session"
    request: PipelineRequest
    execution: PipelineExecution | None
    started_at: float
    #: stage name -> [first event monotonic, last event monotonic];
    #: written by the job's driver thread (event order), read by the
    #: waiter thread after completion.
    stage_times: dict[str, list[float]] = field(default_factory=dict)
    #: Set for ``submit-delta`` jobs: the server-resident corpus state
    #: this ingest runs against (and advances on success).
    state_name: str | None = None


class _Session:
    """One authenticated client connection."""

    def __init__(self, session_id: int, conn: Connection):
        self.session_id = session_id
        self.conn = conn
        self.jobs: dict[int, _ServedJob] = {}  # guarded-by: lock
        self.lock = threading.Lock()
        self.gone = False

    def send(self, message: tuple) -> bool:
        """Ship one message; on a dead peer, mark the session gone
        (senders race with the disconnect — losing is harmless)."""
        if self.gone:
            return False
        try:
            self.conn.send(message)
            return True
        except (TransportError, OSError):
            self.gone = True
            return False

    def cancel_jobs(self) -> None:
        with self.lock:
            jobs = list(self.jobs.values())
        for job in jobs:
            if job.execution is not None:
                job.execution.cancel()


class ERServer:
    """The persistent ER daemon (see the module docstring).

    Parameters
    ----------
    num_workers:
        Size of the shared worker pool.
    host / port:
        Front-end bind address (``port=0`` picks an ephemeral port;
        read :attr:`address` after :meth:`start`).
    token:
        Shared client-authentication secret.  Resolution order:
        explicit argument, the :data:`~repro.serve.protocol.
        ENV_SERVE_TOKEN` environment variable, else a random token is
        generated (read :attr:`token`; :attr:`token_generated` tells
        you the daemon made it up and clients must be handed it).
    task_timeout / max_task_retries / heartbeat_* / max_worker_respawns:
        Forwarded to the pool — identical semantics to the distributed
        backend, with ``max_worker_respawns`` defaulting to
        ``2 * num_workers`` (a service pool should heal).
    workload_log:
        Path of the JSONL workload log; ``None`` disables logging.
    state_root:
        Directory holding the server-resident corpus states, one
        subdirectory per state name; enables the ``submit-delta`` verb
        (incremental ingests against persisted state).  ``None``
        (the default) rejects delta submissions.
    drain_timeout:
        Seconds :meth:`shutdown` waits for active jobs before
        cancelling them (0 cancels immediately).
    client_timeout:
        Seconds a fresh connection gets to authenticate.
    """

    def __init__(
        self,
        *,
        num_workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        token: str | None = None,
        task_timeout: float | None = None,
        max_task_retries: int = 2,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float | None = 15.0,
        max_worker_respawns: int | None = None,
        workload_log: "str | Path | None" = None,
        state_root: "str | Path | None" = None,
        drain_timeout: float = 30.0,
        client_timeout: float = 30.0,
    ):
        resolved = service_token(token)
        self.token_generated = resolved is None
        #: The shared secret clients must present.
        self.token: str = (
            resolved if resolved is not None else secrets.token_hex(16)
        )
        self._token_raw = encode_token(self.token)
        self._pool = SharedWorkerPool(
            num_workers=num_workers,
            task_timeout=task_timeout,
            max_task_retries=max_task_retries,
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            max_worker_respawns=max_worker_respawns,
        )
        self._host = host
        self._port = port
        self.workload_log = Path(workload_log) if workload_log else None
        self.state_root = Path(state_root) if state_root else None
        #: One lock per state name: ingests against the same state are
        #: strictly serialized (load -> run -> advance -> save is one
        #: critical section); different states ingest concurrently.
        self._state_locks: dict[str, threading.Lock] = {}  # guarded-by: _lock
        self.drain_timeout = drain_timeout
        self.client_timeout = client_timeout
        self._listener: Listener | None = None
        self._accept_thread: threading.Thread | None = None
        self._sessions: dict[int, _Session] = {}  # guarded-by: _lock
        self._jobs: dict[int, _ServedJob] = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        self._session_ids = iter(range(1, 1 << 62))
        self._job_ids = iter(range(1, 1 << 62))
        self._draining = False  # guarded-by: _lock
        self._closed = False
        self._log_lock = threading.Lock()
        #: Connections refused for a bad token (observability/tests).
        self.auth_failures = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """Front-end ``(host, port)`` once :meth:`start` has run."""
        if self._listener is None:
            raise RuntimeError("server not started")
        return self._listener.address

    def start(self) -> "ERServer":
        """Bring the pool up and start accepting clients."""
        if self._accept_thread is not None:
            return self
        self._pool.start()
        try:
            self._listener = Listener(self._host, self._port)
        except BaseException:
            self._pool.close()
            raise
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def shutdown(self) -> None:
        """Drain and stop (idempotent).

        New submissions are refused immediately; running jobs get up to
        ``drain_timeout`` seconds to finish, then are cancelled; every
        session is told ``("shutting-down",)``; workers exit cleanly.
        """
        if self._closed:
            return
        self._closed = True
        # Setting the flag and snapshotting the registry both happen
        # under the lock _handle_submit registers under: any accepted
        # job is in the snapshot, any later submission is rejected.
        with self._lock:
            self._draining = True
            sessions = list(self._sessions.values())
            jobs = list(self._jobs.values())
        if self._listener is not None:
            self._listener.close()
        for session in sessions:
            session.send(("shutting-down",))
        deadline = time.monotonic() + max(0.0, self.drain_timeout)
        for job in jobs:
            execution = self._settled_execution(job)
            if execution is None:
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not execution.wait(timeout=remaining):
                execution.cancel()
        # Every wait below is on a clean path that should finish at
        # once; one that runs out is a bug to surface (after the
        # teardown has gone as far as it can), not a timeout to let pass.
        overdue: list[str] = []
        for job in jobs:
            if job.execution is not None and not job.execution.wait(timeout=30):
                overdue.append(
                    f"job {job.job_id} did not finish within 30s of cancel()"
                )
        # The waiter threads ship each job's terminal message *before*
        # retiring it from the registry; only close the session
        # connections once the registry has drained, so clients see
        # done/cancelled rather than a dropped connection.
        retire_deadline = time.monotonic() + 10
        while True:
            with self._lock:
                unretired = sorted(self._jobs)
            if not unretired or time.monotonic() >= retire_deadline:
                break
            time.sleep(0.01)
        if unretired:
            overdue.append(
                f"jobs {unretired} were not retired from the registry "
                "within 10s of finishing"
            )
        for session in sessions:
            session.conn.close()
        accept_thread, self._accept_thread = self._accept_thread, None
        if accept_thread is not None:
            accept_thread.join(timeout=10)
        self._pool.close()
        # Closing the listener wakes accept(); a thread still in it now
        # is the same kind of bug.
        if accept_thread is not None and accept_thread.is_alive():
            overdue.append(
                "the accept thread did not stop within 10s of shutdown()"
            )
        if overdue:
            raise RuntimeError("; ".join(overdue))

    def __enter__(self) -> "ERServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- observability -------------------------------------------------------

    @property
    def active_jobs(self) -> int:
        with self._lock:
            return len(self._jobs)

    @property
    def active_sessions(self) -> int:
        with self._lock:
            return len(self._sessions)

    # -- accepting -----------------------------------------------------------

    def _accept_loop(self) -> None:
        if self._listener is None:
            raise RuntimeError("accept loop started before listen()")
        while not self._closed:
            try:
                conn = self._listener.accept()
            except (TransportError, OSError):
                if self._closed:
                    return
                continue
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="repro-serve-session",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: Connection) -> None:
        # Authentication first, on raw bytes: an unauthenticated peer
        # never gets a byte into pickle.loads.
        try:
            preamble = conn.recv_raw(TOKEN_BYTES, timeout=self.client_timeout)
        except (TransportError, OSError):
            conn.close()
            return
        if not secrets.compare_digest(preamble, self._token_raw):
            self.auth_failures += 1
            conn.close()
            return
        try:
            hello = conn.recv(timeout=self.client_timeout)
        except (TransportError, OSError):
            conn.close()
            return
        if not isinstance(hello, tuple) or not hello or hello[0] != "hello":
            conn.close()
            return
        session = _Session(next(self._session_ids), conn)
        with self._lock:
            if self._closed:
                conn.close()
                return
            self._sessions[session.session_id] = session
            draining = self._draining
        session.send((
            "welcome",
            {
                "session_id": session.session_id,
                "num_workers": self._pool.num_workers,
                "draining": draining,
            },
        ))
        try:
            self._session_loop(session)
        finally:
            session.gone = True
            # A vanished (or departing) client must not keep burning
            # pool time: cancel that session's jobs — and only those.
            session.cancel_jobs()
            with self._lock:
                self._sessions.pop(session.session_id, None)
            conn.close()

    def _session_loop(self, session: _Session) -> None:
        while True:
            try:
                message = session.conn.recv()
            except (TransportError, OSError):
                return  # client gone (or we are shutting down)
            if not isinstance(message, tuple) or not message:
                continue
            verb = message[0]
            if verb == "bye":
                return
            if verb == "submit" and len(message) == 3:
                self._handle_submit(session, message[1], message[2])
            elif verb == "submit-delta" and len(message) == 4:
                self._handle_submit_delta(
                    session, message[1], message[2], message[3]
                )
            elif verb == "cancel" and len(message) == 2:
                self._handle_cancel(session, message[1])

    # -- job handling --------------------------------------------------------

    @staticmethod
    def _settled_execution(
        job: _ServedJob, timeout: float = 5.0
    ) -> PipelineExecution | None:
        """The job's execution, waiting out the registration window."""
        deadline = time.monotonic() + timeout
        while job.execution is None and time.monotonic() < deadline:
            time.sleep(0.005)
        return job.execution

    def _handle_submit(
        self, session: _Session, ticket: Any, request: Any
    ) -> None:
        if not isinstance(request, PipelineRequest):
            session.send((
                "rejected", ticket,
                f"expected a PipelineRequest, got {type(request).__name__}",
            ))
            return
        job_id = next(self._job_ids)
        job = _ServedJob(
            job_id=job_id,
            session=session,
            request=request,
            execution=None,
            started_at=time.monotonic(),
        )
        # The draining check and the registration are one critical
        # section, mirrored by shutdown(): either this job makes the
        # shutdown snapshot, or it is rejected here.
        with self._lock:
            if self._draining:
                session.send(("rejected", ticket, "server is shutting down"))
                return
            self._jobs[job_id] = job
        with session.lock:
            session.jobs[job_id] = job
        # Wire ordering: the client learns the job id from "accepted"
        # before the first "event" of that job can possibly arrive
        # (the execution starts running only on construction below).
        session.send(("accepted", ticket, job_id))

        def forward(event: ExecutionEvent) -> None:
            # Runs on the job's driver thread, in event order.
            times = job.stage_times.setdefault(
                event.stage, [time.monotonic(), 0.0]
            )
            times[1] = time.monotonic()
            session.send(("event", job_id, wire_event(event)))

        try:
            job.execution = PipelineExecution(
                PooledBackend(self._pool, job_name=f"job-{job_id}"),
                request,
                on_event=forward,
            )
        # Shipped, not swallowed: whatever submission raises becomes a
        # "failed" message the client re-raises.
        except BaseException as exc:  # repro-lint: disable=silent-except -- shipped to client
            with self._lock:
                self._jobs.pop(job_id, None)
            with session.lock:
                session.jobs.pop(job_id, None)
            from ..mapreduce.transport import shippable_exception

            session.send(("failed", job_id, shippable_exception(exc)))
            return
        threading.Thread(
            target=self._finish_job,
            args=(job,),
            name=f"repro-serve-job-{job_id}",
            daemon=True,
        ).start()

    def _handle_cancel(self, session: _Session, job_id: Any) -> None:
        with session.lock:
            job = session.jobs.get(job_id)
        # ``execution`` is still None in the registration window (and
        # while a delta job queues on its state lock); a cancel landing
        # there is simply too early and is dropped, like one landing
        # after completion.
        if job is not None and job.execution is not None:
            job.execution.cancel()

    # -- incremental ingests -------------------------------------------------

    def _state_lock(self, name: str) -> threading.Lock:
        with self._lock:
            return self._state_locks.setdefault(name, threading.Lock())

    @staticmethod
    def _valid_state_name(name: Any) -> bool:
        """One safe path component: letters, digits, ``-``, ``_``, ``.``
        (and not the directory dots) — state names come off the wire."""
        return (
            isinstance(name, str)
            and 0 < len(name) <= 200
            and name not in (".", "..")
            and all(ch.isalnum() or ch in "-_." for ch in name)
        )

    def _handle_submit_delta(
        self, session: _Session, ticket: Any, state_name: Any, request: Any
    ) -> None:
        """Accept one incremental ingest against a server-resident state.

        The client ships a *plain* request over the delta partitions;
        merging the persisted corpus in (as a
        :class:`~repro.engine.backend.DeltaSpec`) is the server's job,
        so clients never hold or transfer the accumulated state.
        Mirrors :meth:`_handle_submit`'s critical section; the work
        itself runs on a dedicated thread because ingests of the same
        state serialize on the state lock.
        """
        if self.state_root is None:
            session.send((
                "rejected", ticket,
                "this server keeps no corpus states "
                "(start it with --state-root)",
            ))
            return
        if not self._valid_state_name(state_name):
            session.send((
                "rejected", ticket,
                f"invalid state name {state_name!r} (one path component: "
                "letters, digits, '-', '_', '.')",
            ))
            return
        if not isinstance(request, PipelineRequest):
            session.send((
                "rejected", ticket,
                f"expected a PipelineRequest, got {type(request).__name__}",
            ))
            return
        if request.delta is not None or request.dual:
            session.send((
                "rejected", ticket,
                "a submit-delta request ships plain delta partitions; "
                "the server merges its persisted state itself",
            ))
            return
        job_id = next(self._job_ids)
        job = _ServedJob(
            job_id=job_id,
            session=session,
            request=request,
            execution=None,
            started_at=time.monotonic(),
            state_name=state_name,
        )
        with self._lock:
            if self._draining:
                session.send(("rejected", ticket, "server is shutting down"))
                return
            self._jobs[job_id] = job
        with session.lock:
            session.jobs[job_id] = job
        session.send(("accepted", ticket, job_id))
        threading.Thread(
            target=self._run_delta_job,
            args=(job,),
            name=f"repro-serve-delta-{job_id}",
            daemon=True,
        ).start()

    def _run_delta_job(self, job: _ServedJob) -> None:
        """One ingest, under its state's lock: load the persisted
        :class:`~repro.engine.incremental.CorpusState`, run the request
        as a delta against it (or as a plain full run when the state is
        still empty), advance and save atomically on success.  A failed
        or cancelled ingest leaves the persisted state untouched, so
        retrying the same batch converges."""
        from ..engine.incremental import CorpusState
        from ..engine.persistence import STATE_FILE, load_state, save_state
        from ..mapreduce.transport import shippable_exception

        if self.state_root is None or job.state_name is None:
            raise RuntimeError(
                "delta job dispatched without a state root/state name"
            )
        state_dir = self.state_root / job.state_name

        def forward(event: ExecutionEvent) -> None:
            times = job.stage_times.setdefault(
                event.stage, [time.monotonic(), 0.0]
            )
            times[1] = time.monotonic()
            job.session.send(("event", job.job_id, wire_event(event)))

        terminal = "failed"
        try:
            with self._state_lock(job.state_name):
                if (state_dir / STATE_FILE).exists():
                    corpus = load_state(state_dir)
                else:
                    corpus = CorpusState.empty()
                request = job.request
                if corpus.partitions:
                    request = replace(
                        request,
                        delta=DeltaSpec(
                            old_partitions=corpus.partitions,
                            old_bdm=corpus.bdm,
                        ),
                    )
                job.execution = PipelineExecution(
                    PooledBackend(self._pool, job_name=f"job-{job.job_id}"),
                    request,
                    on_event=forward,
                )
                # Intentionally blocking while the state lock is held:
                # delta jobs against one state name are serialized, and
                # the pool keeps making progress on its own threads.
                job.execution.wait()  # repro-lint: disable=blocking-under-lock -- serializes per-state jobs
                terminal = job.execution.state
                if terminal == "succeeded":
                    result = job.execution.result()
                    advanced = corpus.advanced(
                        result, job.request.partitions, job.request.blocking
                    )
                    # The save happens before "done" goes out: a client
                    # that saw its ingest succeed can rely on the state
                    # having committed.
                    save_state(advanced, state_dir)
                    job.session.send(("done", job.job_id, result))
                elif terminal == "cancelled":
                    job.session.send(("cancelled", job.job_id))
                else:
                    try:
                        job.execution.result()
                    # Shipped, not swallowed: the client re-raises it.
                    except BaseException as exc:  # repro-lint: disable=silent-except -- shipped to client
                        job.session.send(
                            ("failed", job.job_id, shippable_exception(exc))
                        )
        # Shipped, not swallowed: state-load/save failures included.
        except BaseException as exc:  # repro-lint: disable=silent-except -- shipped to client
            terminal = "failed"
            job.session.send(("failed", job.job_id, shippable_exception(exc)))
        finally:
            with self._lock:
                self._jobs.pop(job.job_id, None)
            with job.session.lock:
                job.session.jobs.pop(job.job_id, None)
            self._log_job(job, terminal)

    def _finish_job(self, job: _ServedJob) -> None:
        """Wait one job out, report its terminal state, log it."""
        execution = job.execution
        execution.wait()
        state = execution.state
        if state == "succeeded":
            job.session.send(("done", job.job_id, execution.result()))
        elif state == "cancelled":
            job.session.send(("cancelled", job.job_id))
        else:
            try:
                execution.result()
            # Shipped, not swallowed: the client re-raises it.
            except BaseException as exc:  # repro-lint: disable=silent-except -- shipped to client
                from ..mapreduce.transport import shippable_exception

                job.session.send(("failed", job.job_id, shippable_exception(exc)))
        with self._lock:
            self._jobs.pop(job.job_id, None)
        with job.session.lock:
            job.session.jobs.pop(job.job_id, None)
        self._log_job(job, state)

    # -- workload log --------------------------------------------------------

    def _log_job(self, job: _ServedJob, state: str) -> None:
        if self.workload_log is None:
            return
        if job.execution is None:
            # A delta job can fail before its execution exists (e.g. a
            # corrupt persisted state); log the outcome without counters.
            progress = None
        else:
            progress = job.execution.progress()
        entry = {
            "ts": time.time(),
            "job_id": job.job_id,
            "session_id": job.session.session_id,
            "state": state,
            "wall_s": round(time.monotonic() - job.started_at, 6),
            "strategy": job.request.strategy.name,
            "params": {
                "num_partitions": len(job.request.partitions),
                "num_reduce_tasks": job.request.num_reduce_tasks,
                "dual": job.request.dual,
            },
            "stages": {
                stage: {
                    "wall_s": round(times[1] - times[0], 6),
                }
                for stage, times in job.stage_times.items()
            },
            "comparisons": progress.comparisons if progress else 0,
            "matches": progress.matches if progress else 0,
        }
        if job.state_name is not None:
            entry["corpus_state"] = job.state_name
        for stage in progress.stages if progress else ():
            entry["stages"].setdefault(stage.stage, {})
            entry["stages"][stage.stage].update(
                comparisons=stage.comparisons, matches=stage.matches
            )
        line = json.dumps(entry, sort_keys=True)
        with self._log_lock:
            with self.workload_log.open("a", encoding="utf-8") as handle:
                handle.write(line + "\n")

    def __repr__(self) -> str:
        where = self._listener.address if self._listener else "unbound"
        return (
            f"ERServer(address={where}, sessions={self.active_sessions}, "
            f"jobs={self.active_jobs})"
        )
