"""ER as a service: a persistent driver daemon with a TCP front end.

The paper's driver, kept alive: ``python -m repro.serve --workers N``
starts an :class:`ERServer` that pays worker-pool startup once and then
executes any number of concurrently submitted pipeline runs,
multiplexing all their task units over the one
:class:`SharedWorkerPool` with fair round-robin scheduling.  Clients
connect over the same authenticated length-prefixed transport the
worker protocol uses and get the full execution surface remotely
through :class:`ServeClient` / :class:`RemoteExecution` — streamed
matches, progress, cooperative cancel, final results — byte-identical
to running the same pipeline locally.

Quick tour::

    server = ERServer(num_workers=4, workload_log="jobs.jsonl").start()
    host, port = server.address

    with ServeClient(host, port, token=server.token) as client:
        execution = client.submit(pipeline, entities)
        for pair in execution.iter_matches():
            ...
        result = execution.result()

    server.shutdown()

See ``docs/architecture.md`` for the server/session/job anatomy and
failure semantics, and ``docs/api.md`` for the client guide.
"""

from .client import (
    RemoteExecution,
    ServeClient,
    ServeConnectionError,
    SubmissionRejected,
)
from ..engine.pool import (
    PooledBackend,
    PooledRuntime,
    PoolJobChannel,
    SharedWorkerPool,
    WorkerPoolError,
)
from .protocol import ENV_SERVE_TOKEN, service_token, wire_event
from .server import ERServer

__all__ = [
    "ENV_SERVE_TOKEN",
    "ERServer",
    "PooledBackend",
    "PooledRuntime",
    "PoolJobChannel",
    "RemoteExecution",
    "ServeClient",
    "ServeConnectionError",
    "SharedWorkerPool",
    "SubmissionRejected",
    "WorkerPoolError",
    "service_token",
    "wire_event",
]
