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

from .. import _lazy

#: Public name → the module that defines it, imported on first access.
_EXPORTS = {
    "ENV_SERVE_TOKEN": ".protocol",
    "ERServer": ".server",
    "PooledBackend": "..engine.pool",
    "PooledRuntime": "..engine.pool",
    "PoolJobChannel": "..engine.pool",
    "RemoteExecution": ".client",
    "ServeClient": ".client",
    "ServeConnectionError": ".client",
    "SharedWorkerPool": "..engine.pool",
    "SubmissionRejected": ".client",
    "WorkerPoolError": "..engine.pool",
    "service_token": ".protocol",
    "wire_event": ".protocol",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
