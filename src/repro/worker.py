"""The worker process of the worker pool (``python -m repro.worker``).

A worker is the remote half of
:class:`~repro.engine.pool.SharedWorkerPool` — the scheduler behind
both the distributed backend and the serve daemon, "the driver" below:
it connects back to the driver's loopback socket, authenticates with
the per-cluster token, and then loops — receive one task message, run
the named task unit (:func:`~repro.mapreduce.runtime.execute_map_task`
or :func:`~repro.mapreduce.runtime.execute_reduce_task`), send the
result back.  Task units are pure with respect to the worker, so the driver
can merge results in task-index order and requeue a lost task on a
different worker without any cleanup protocol.

A daemon thread sends a heartbeat message every ``--heartbeat-interval``
seconds.  Heartbeats prove the *process* is alive (the driver declares
a silent worker dead); a worker stuck inside a task unit keeps
heartbeating, which is exactly why the driver pairs heartbeats with a
per-task timeout.

Protocol (all messages are tuples; see :mod:`repro.mapreduce.transport`
for the framing):

========================================  ===============================
worker → driver                           meaning
========================================  ===============================
*raw token bytes* (no framing)            authenticate — compared by the
                                          driver before it unpickles
                                          anything from this connection
``("hello", index, pid)``                 identify
``("heartbeat",)``                        liveness
``("result", task_id, result)``           task unit finished
``("error", task_id, exception)``         task unit raised
========================================  ===============================

The token arrives in the :data:`ENV_TOKEN` environment variable (never
on the command line, which other local users could read via ``ps`` /
``/proc``).

========================================  ===============================
driver → worker                           meaning
========================================  ===============================
``("task", task_id, kind, args)``         run ``kind`` ("map"/"reduce")
``("shutdown",)``                         exit cleanly
========================================  ===============================

Fault injection (test hook)
---------------------------
The fault-injection test harness arms workers through the environment —
no special build, no monkeypatching across process boundaries:

``REPRO_WORKER_FAULT=crash:N``
    ``os._exit`` (no result, no goodbye) on receiving the N-th task.
``REPRO_WORKER_FAULT=hang:N``
    sleep indefinitely inside the N-th task, heartbeats still flowing —
    only the driver's per-task timeout can catch this.
``REPRO_WORKER_FAULT_WORKERS=0,2`` / ``all``
    which worker indices inject (default ``0``: one faulty worker).

``N`` is 1-based and counted per worker (its N-th received task), so a
requeued task does not re-trigger the fault on the surviving workers.
"""

from __future__ import annotations

import argparse
import os
import threading
import time
from typing import Any, Sequence

from .mapreduce.runtime import execute_map_task, execute_reduce_task
from .mapreduce.transport import (
    ENV_TOKEN,
    Connection,
    TransportError,
    connect,
    shippable_exception,
)

#: Task-unit registry: the driver names units, it never ships code.
#: The only such table — the driver inverts it to name the units it
#: ships (``repro.engine.pool``), so the two sides cannot drift.
TASK_UNITS = {
    "map": execute_map_task,
    "reduce": execute_reduce_task,
}

#: Exit code of an injected crash (distinguishable from real tracebacks).
FAULT_EXIT_CODE = 23

ENV_FAULT = "REPRO_WORKER_FAULT"
ENV_FAULT_WORKERS = "REPRO_WORKER_FAULT_WORKERS"


class FaultInjector:
    """Parses the fault env hook and trips it at the configured task.

    Inert unless :data:`ENV_FAULT` is set *and* this worker's index is
    selected by :data:`ENV_FAULT_WORKERS`.
    """

    def __init__(self, worker_index: int, env: "dict[str, str] | None" = None):
        environ = os.environ if env is None else env
        self.mode: str | None = None
        self.at_task = 0
        spec = environ.get(ENV_FAULT, "")
        if not spec:
            return
        try:
            mode, _, number = spec.partition(":")
            at_task = int(number)
        except ValueError:
            raise SystemExit(
                f"{ENV_FAULT} must look like 'crash:N' or 'hang:N', got {spec!r}"
            )
        if mode not in ("crash", "hang") or at_task < 1:
            raise SystemExit(
                f"{ENV_FAULT} must look like 'crash:N' or 'hang:N', got {spec!r}"
            )
        selected = environ.get(ENV_FAULT_WORKERS, "0")
        if selected != "all":
            try:
                indices = {int(piece) for piece in selected.split(",")}
            except ValueError:
                raise SystemExit(
                    f"{ENV_FAULT_WORKERS} must be 'all' or comma-separated "
                    f"indices, got {selected!r}"
                )
            if worker_index not in indices:
                return
        self.mode = mode
        self.at_task = at_task

    def maybe_trip(self, task_number: int) -> None:
        """Crash or hang if ``task_number`` (1-based) is the armed one."""
        if self.mode is None or task_number != self.at_task:
            return
        if self.mode == "crash":
            # A real crash: no result message, no clean shutdown — the
            # driver learns about it from the broken connection.
            os._exit(FAULT_EXIT_CODE)
        while True:  # "hang": burn wall-clock inside the task unit
            time.sleep(3600)


def _start_heartbeats(conn: Connection, interval: float) -> threading.Event:
    """Send ``("heartbeat",)`` every ``interval`` seconds until told to
    stop or the driver goes away; returns the stop flag."""
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(interval):
            try:
                conn.send(("heartbeat",))
            except TransportError:
                return

    threading.Thread(target=beat, name="repro-worker-heartbeat", daemon=True).start()
    return stop


def serve(conn: Connection, fault: FaultInjector) -> int:
    """The worker main loop: one task at a time until shutdown/EOF."""
    tasks_received = 0
    while True:
        try:
            message = conn.recv()
        except TransportError:
            return 0  # driver gone: nothing useful left to do
        kind = message[0]
        if kind == "shutdown":
            return 0
        if kind != "task":
            continue  # unknown chatter: ignore, stay available
        _, task_id, unit, args = message
        tasks_received += 1
        fault.maybe_trip(tasks_received)
        try:
            result: Any = TASK_UNITS[unit](*args)
        # Report, don't die: the failure ships to the driver (which
        # re-raises it) and this worker stays schedulable.
        except BaseException as exc:  # repro-lint: disable=silent-except -- shipped to driver
            reply = ("error", task_id, shippable_exception(exc))
        else:
            reply = ("result", task_id, result)
        try:
            conn.send(reply)
        except TransportError:
            return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.worker",
        description="Worker process of the distributed backend and the "
        "serve daemon (spawned by SharedWorkerPool; not meant for manual use).",
    )
    parser.add_argument("--host", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--index", type=int, required=True,
                        help="this worker's slot index in the driver's pool")
    parser.add_argument("--heartbeat-interval", type=float, default=0.5)
    args = parser.parse_args(argv)
    token = os.environ.get(ENV_TOKEN, "")
    if not token:
        raise SystemExit(
            f"{ENV_TOKEN} must carry the cluster token "
            "(this process is spawned by SharedWorkerPool)"
        )

    conn = connect(args.host, args.port)
    stop_heartbeats = threading.Event()
    try:
        # Raw, unframed token bytes first: the driver authenticates
        # this connection before it unpickles a single message from it.
        conn.send_bytes(token.encode("ascii"))
        conn.send(("hello", args.index, os.getpid()))
        stop_heartbeats = _start_heartbeats(conn, args.heartbeat_interval)
        return serve(conn, FaultInjector(args.index))
    finally:
        stop_heartbeats.set()
        conn.close()


if __name__ == "__main__":
    raise SystemExit(main())
