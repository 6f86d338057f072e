"""The client side of the ER service: remote submission, local handle.

:class:`ServeClient` speaks the protocol of :mod:`repro.serve.protocol`
to a running :class:`~repro.serve.server.ERServer`.  A submission ships
a locally-built :class:`~repro.engine.backend.PipelineRequest` (the
backend-independent half of ``ERPipeline.submit``) and returns a
:class:`RemoteExecution` — deliberately the same surface as the local
:class:`~repro.engine.execution.PipelineExecution`:

* ``iter_matches()`` streams matches as the server's reduce task units
  complete, in the same deterministic task-index order;
* ``progress()`` snapshots per-stage task completion — driven by the
  very same :class:`~repro.engine.execution.ExecutionStateMirror` the
  local handle uses, fed from the forwarded event stream, so local and
  remote progress reports are identical;
* ``cancel()`` requests cooperative cancellation on the server;
* ``result()`` blocks for the final :class:`~repro.engine.result.
  PipelineResult`, re-raising the server-side error for failed runs.

One client connection multiplexes any number of in-flight submissions;
a broken connection fails every outstanding handle with
:class:`ServeConnectionError` (the server, for its part, cancels the
disconnected session's jobs).
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Iterator

from ..engine.execution import (
    CANCELLED,
    FAILED,
    RUNNING,
    SUCCEEDED,
    ExecutionProgress,
    ExecutionStateMirror,
)
from ..mapreduce.events import ExecutionEvent, PipelineCancelled
from ..mapreduce.transport import TransportError, connect
from .protocol import encode_token, service_token

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..engine.pipeline import ERPipeline
    from ..engine.result import PipelineResult
    from ..er.matching import MatchPair


class ServeConnectionError(ConnectionError):
    """The connection to the ER server was lost (or never worked) while
    submissions or handles were outstanding."""


class SubmissionRejected(RuntimeError):
    """The server refused a submission (draining, or a bad request)."""


class RemoteExecution:
    """A live handle on one job running on a remote ER server.

    Created by :meth:`ServeClient.submit`; not constructed directly.
    The surface mirrors :class:`~repro.engine.execution.
    PipelineExecution` (``state``/``done``/``wait``/``result``/
    ``iter_matches``/``progress``/``cancel``), with the run executing
    on the server's shared pool instead of a local backend.  Matches
    and progress derive from the forwarded event stream through the
    same mirror the local handle uses, so both report identically.
    """

    def __init__(self, client: "ServeClient", job_id: int):
        self._client = client
        self.job_id = job_id
        self._cond = threading.Condition()
        self._mirror = ExecutionStateMirror()  # guarded-by: _cond
        self._streamed: list["MatchPair"] = []  # guarded-by: _cond
        self._state = RUNNING  # guarded-by: _cond
        self._result: "PipelineResult | None" = None  # guarded-by: _cond
        self._error: BaseException | None = None  # guarded-by: _cond

    # -- fed by the client's receiver thread ---------------------------------

    def _on_event(self, event: ExecutionEvent) -> None:
        with self._cond:
            self._streamed.extend(self._mirror.update(event))
            self._cond.notify_all()

    def _finish(
        self,
        state: str,
        result: "PipelineResult | None" = None,
        error: BaseException | None = None,
    ) -> None:
        with self._cond:
            if self._state != RUNNING:
                return  # terminal already (e.g. done raced a drop)
            self._state = state
            self._result = result
            self._error = error
            self._cond.notify_all()

    # -- the PipelineExecution surface ---------------------------------------

    @property
    def state(self) -> str:
        """``"running"``, ``"succeeded"``, ``"failed"`` or ``"cancelled"``."""
        with self._cond:
            return self._state

    @property
    def done(self) -> bool:
        return self.state != RUNNING

    @property
    def cancelled(self) -> bool:
        return self.state == CANCELLED

    def cancel(self) -> bool:
        """Ask the server to cancel this job cooperatively.

        Returns ``False`` when the job is already finished; ``True``
        means the request was sent (a cancel can still lose the race
        against completion, exactly as with the local handle).
        """
        with self._cond:
            if self._state != RUNNING:
                return False
        self._client._send_cancel(self.job_id)
        return True

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job finishes; ``False`` on timeout."""
        with self._cond:
            return self._cond.wait_for(lambda: self._state != RUNNING, timeout)

    def result(self, timeout: float | None = None) -> "PipelineResult":
        """The finished job's result, exactly as the server computed it.

        Re-raises the server-side error for failed jobs,
        :class:`~repro.mapreduce.events.PipelineCancelled` for
        cancelled ones, and :class:`ServeConnectionError` when the
        connection died mid-run.
        """
        if not self.wait(timeout):
            raise TimeoutError(
                f"remote execution still running after {timeout} seconds"
            )
        with self._cond:
            if self._error is not None:
                raise self._error
            if self._result is None:
                raise RuntimeError(
                    "remote execution finished with neither result nor error"
                )
            return self._result

    def iter_matches(self) -> Iterator["MatchPair"]:
        """Stream matches as they arrive from the server.

        Same contract as the local handle: every match exactly once, in
        deterministic reduce-task-index order; replays from the start
        on repeated calls; ends by raising the job's error when it
        failed or was cancelled.
        """
        index = 0
        while True:
            with self._cond:
                self._cond.wait_for(
                    lambda: len(self._streamed) > index
                    or self._state != RUNNING
                )
                batch = self._streamed[index:]
                index += len(batch)
                drained = self._state != RUNNING and index == len(self._streamed)
                error = self._error
            yield from batch
            if drained:
                if error is not None:
                    raise error
                return

    def progress(self) -> ExecutionProgress:
        """A point-in-time snapshot of task completion per stage."""
        with self._cond:
            return self._mirror.progress(self._state)

    def __repr__(self) -> str:
        return f"RemoteExecution(job_id={self.job_id}, state={self.state!r})"


class _PendingSubmit:
    """A submit awaiting its accepted/rejected reply."""

    __slots__ = ("event", "execution", "rejection")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.execution: RemoteExecution | None = None
        self.rejection: str | None = None


class ServeClient:
    """A connection to a running ER server.

    Parameters
    ----------
    host / port:
        The server's front-end address.
    token:
        Shared service token; defaults to the
        :data:`~repro.serve.protocol.ENV_SERVE_TOKEN` environment
        variable.  Without one the client refuses to connect (the
        server would drop us anyway).
    timeout:
        Seconds to wait for the connection and the welcome.
    on_event:
        Optional callback receiving every forwarded
        :class:`~repro.mapreduce.events.ExecutionEvent` of every job
        submitted through this client (called on the receiver thread).

    Use as a context manager, or call :meth:`close`; closing ends the
    session cleanly (the server cancels any jobs still running).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        token: str | None = None,
        timeout: float = 30.0,
        on_event: Callable[[ExecutionEvent], None] | None = None,
    ):
        resolved = service_token(token)
        if resolved is None:
            raise ValueError(
                "no service token: pass token= or set the "
                "REPRO_SERVE_TOKEN environment variable"
            )
        self._on_event = on_event
        self._conn = connect(host, port, timeout=timeout)
        self._lock = threading.Lock()
        self._jobs: dict[int, RemoteExecution] = {}  # guarded-by: _lock
        self._pending: dict[int, _PendingSubmit] = {}  # guarded-by: _lock
        self._tickets = iter(range(1, 1 << 62))
        self._closed = False
        self.server_draining = False
        try:
            self._conn.send_bytes(encode_token(resolved))
            self._conn.send(("hello", os.getpid()))
            welcome = self._conn.recv(timeout=timeout)
        except (TransportError, OSError) as exc:
            self._conn.close()
            raise ServeConnectionError(
                f"handshake with {host}:{port} failed (bad token?): {exc}"
            ) from exc
        if (
            not isinstance(welcome, tuple)
            or len(welcome) != 2
            or welcome[0] != "welcome"
        ):
            self._conn.close()
            raise ServeConnectionError(
                f"unexpected handshake reply from {host}:{port}: {welcome!r}"
            )
        #: Server-reported session info (session_id, num_workers, …).
        self.server_info: dict[str, Any] = dict(welcome[1])
        self._receiver = threading.Thread(
            target=self._receive_loop, name="repro-serve-client", daemon=True
        )
        self._receiver.start()

    # -- submitting ----------------------------------------------------------

    def submit(
        self,
        pipeline: "ERPipeline",
        r,
        s=None,
        *,
        num_r_partitions: int | None = None,
        num_s_partitions: int | None = None,
        timeout: float = 60.0,
    ) -> RemoteExecution:
        """Run one pipeline on the server; returns the live handle.

        The request is resolved locally — strategy, blocking, matcher,
        partitioning, exactly as ``pipeline.submit`` would — and
        shipped; the pipeline's *backend* is irrelevant (the server's
        shared pool executes).  Streaming record sources are
        materialized into partitions before shipping, since a source
        (generators, open files) rarely survives pickling.

        Raises :class:`SubmissionRejected` when the server refuses
        (draining or bad request) and :class:`ServeConnectionError`
        when the connection fails.
        """
        request = pipeline.build_request(
            r,
            s,
            num_r_partitions=num_r_partitions,
            num_s_partitions=num_s_partitions,
        )
        return self._roundtrip("submit", (self._shipped(request),), timeout)

    def submit_delta(
        self,
        pipeline: "ERPipeline",
        new_records,
        state_name: str,
        *,
        num_partitions: int | None = None,
        timeout: float = 60.0,
    ) -> RemoteExecution:
        """Ingest a batch of records into the server-resident corpus
        state ``state_name``; returns the live handle on the delta run.

        The batch is resolved into a plain request locally (strategy,
        blocking, matcher, partitioning — exactly as :meth:`submit`
        would); the *server* merges the corpus state persisted under
        its ``--state-root`` into the run as a delta, serializes
        ingests per state name, and advances the state atomically
        before reporting success.  The handle's matches and result are
        the *new* pairs only — the old corpus never re-compares.

        Raises :class:`SubmissionRejected` when the server refuses
        (no state root, bad state name, draining) and
        :class:`ServeConnectionError` when the connection fails.
        """
        request = pipeline.build_request(
            new_records, num_r_partitions=num_partitions
        )
        return self._roundtrip(
            "submit-delta", (state_name, self._shipped(request)), timeout
        )

    @staticmethod
    def _shipped(request):
        """``request`` with any streaming source materialized (sources
        — generators, open files — rarely survive pickling)."""
        if request.source is None:
            return request
        return replace(
            request,
            partitions=request.partitions
            or tuple(request.source.as_partitions()),
            source=None,
        )

    def _roundtrip(
        self, verb: str, tail: tuple, timeout: float
    ) -> RemoteExecution:
        """Ship one submission, wait for accepted/rejected."""
        with self._lock:
            if self._closed:
                raise ServeConnectionError("client is closed")
            ticket = next(self._tickets)
            pending = _PendingSubmit()
            self._pending[ticket] = pending
        try:
            self._conn.send((verb, ticket, *tail))
        except (TransportError, OSError) as exc:
            with self._lock:
                self._pending.pop(ticket, None)
            raise ServeConnectionError(f"submission failed: {exc}") from exc
        if not pending.event.wait(timeout):
            with self._lock:
                self._pending.pop(ticket, None)
            raise TimeoutError(
                f"server did not answer the submission within {timeout}s"
            )
        if pending.execution is None:
            raise SubmissionRejected(
                pending.rejection or "submission rejected"
            )
        return pending.execution

    def _send_cancel(self, job_id: int) -> None:
        try:
            self._conn.send(("cancel", job_id))
        except (TransportError, OSError):
            pass  # the receiver loop will fail the handle

    # -- the receiver thread -------------------------------------------------

    def _receive_loop(self) -> None:
        while True:
            try:
                message = self._conn.recv()
            except (TransportError, OSError):
                self._fail_outstanding()
                return
            if not isinstance(message, tuple) or not message:
                continue
            verb = message[0]
            if verb == "accepted":
                _, ticket, job_id = message
                execution = RemoteExecution(self, job_id)
                with self._lock:
                    self._jobs[job_id] = execution
                    pending = self._pending.pop(ticket, None)
                if pending is not None:
                    pending.execution = execution
                    pending.event.set()
            elif verb == "rejected":
                _, ticket, reason = message
                with self._lock:
                    pending = self._pending.pop(ticket, None)
                if pending is not None:
                    pending.rejection = str(reason)
                    pending.event.set()
            elif verb == "event":
                _, job_id, event = message
                with self._lock:
                    execution = self._jobs.get(job_id)
                if execution is not None:
                    execution._on_event(event)
                if self._on_event is not None:
                    self._on_event(event)
            elif verb in ("done", "failed", "cancelled"):
                self._finish_job(message)
            elif verb == "shutting-down":
                self.server_draining = True

    def _finish_job(self, message: tuple) -> None:
        verb, job_id = message[0], message[1]
        with self._lock:
            execution = self._jobs.pop(job_id, None)
        if execution is None:
            return
        if verb == "done":
            execution._finish(SUCCEEDED, result=message[2])
        elif verb == "failed":
            execution._finish(FAILED, error=message[2])
        else:
            execution._finish(
                CANCELLED, error=PipelineCancelled("execution cancelled")
            )

    def _fail_outstanding(self) -> None:
        error = ServeConnectionError("connection to the ER server was lost")
        with self._lock:
            jobs = list(self._jobs.values())
            self._jobs.clear()
            pending = list(self._pending.values())
            self._pending.clear()
            self._closed = True
        for execution in jobs:
            execution._finish(FAILED, error=error)
        for entry in pending:
            entry.rejection = str(error)
            entry.event.set()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """End the session (idempotent).

        Jobs still running on the server are cancelled by it when the
        connection drops; their local handles fail with
        :class:`ServeConnectionError`.
        """
        with self._lock:
            if self._closed:
                self._conn.close()
                return
            self._closed = True
        try:
            self._conn.send(("bye",))
        except (TransportError, OSError):
            pass
        self._conn.close()
        self._receiver.join(timeout=10)
        # Closing the connection ends the receive loop; a receiver still
        # running now is a bug to surface, not a timeout to let pass.
        if self._receiver.is_alive():
            raise RuntimeError(
                f"the {self._receiver.name} receiver thread did not stop "
                "within 10s of close()"
            )

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"ServeClient(jobs={len(self._jobs)}, "
                f"closed={self._closed})"
            )
