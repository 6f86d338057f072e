"""Unified pipeline API over pluggable execution backends.

``ERPipeline`` is the single entry point for the paper's two-job
workflow (Job 1 BDM computation, Job 2 load-balanced matching): one- and
two-source matching share one ``run(r, s=None)`` code path, and the
*how* of execution is delegated to an :class:`ExecutionBackend`:

=================  ======================================================
backend            what it does
=================  ======================================================
``serial``         deterministic in-process execution (the reference)
``parallel``       map/reduce tasks fan out over a process or thread pool
``distributed``    the same task units shipped to worker *processes* over
                   loopback sockets, with heartbeats, per-task timeouts
                   and bounded requeue on worker failure
``planned``        no execution — analytic planners + cluster simulation,
                   which is what makes DS2-scale figures tractable
=================  ======================================================

All backends return a :class:`PipelineResult`; executing backends fill
``matches``/``job1``/``job2``, and every backend fills the analytic
``plan`` (and a simulated ``timeline`` when a cluster is configured).
Backends self-register via :func:`register_backend`, exactly like
strategies do via ``@register_strategy``.

``run()`` is sugar over the submission model: :meth:`ERPipeline.submit`
returns a :class:`PipelineExecution` handle that streams matches as
reduce task units complete, reports progress, and cancels
cooperatively; results persist to versioned JSON via
:meth:`PipelineResult.save` / :meth:`PipelineResult.load`, so analysis
sweeps can replan from a finished run without re-executing it.

Inputs may be entity lists, ready-made partitions, or a streaming
:class:`~repro.io.RecordSource` (CSV shards, generators); a
``memory_budget`` makes the shuffle spill sorted run files to disk
instead of buffering all map output.  See ``docs/api.md`` for the guide
with runnable examples and ``docs/architecture.md`` for the dataflow.
"""

from ..mapreduce.events import (
    EventChannel,
    EventKind,
    ExecutionEvent,
    PipelineCancelled,
)
from .backend import (
    BACKENDS,
    DeltaSpec,
    ExecutionBackend,
    PipelineRequest,
    get_backend,
    register_backend,
)
from .distributed import DistributedBackend, DistributedRuntime
from .execution import (
    ExecutionProgress,
    ExecutionStateMirror,
    MatcherStats,
    PipelineExecution,
    StageProgress,
)
from .incremental import CorpusState, ingest
from .parallel import ParallelBackend, ParallelRuntime
from .persistence import (
    PersistenceError,
    load_result,
    load_state,
    result_from_dict,
    result_to_dict,
    save_result,
    save_state,
    state_from_dict,
    state_to_dict,
)
from .pipeline import ERPipeline
from .planned import PlannedBackend
from .pool import DistributedExecutionError
from .result import PipelineResult
from .serial import SerialBackend
from .simulate import (
    simulate_executed_workflow,
    simulate_planned_workflow,
    simulate_strategy,
)

__all__ = [
    "BACKENDS",
    "CorpusState",
    "DeltaSpec",
    "DistributedBackend",
    "DistributedExecutionError",
    "DistributedRuntime",
    "ERPipeline",
    "EventChannel",
    "EventKind",
    "ExecutionBackend",
    "ExecutionEvent",
    "ExecutionProgress",
    "ExecutionStateMirror",
    "MatcherStats",
    "ParallelBackend",
    "ParallelRuntime",
    "PersistenceError",
    "PipelineCancelled",
    "PipelineExecution",
    "PipelineRequest",
    "PipelineResult",
    "PlannedBackend",
    "SerialBackend",
    "StageProgress",
    "get_backend",
    "ingest",
    "load_result",
    "load_state",
    "register_backend",
    "result_from_dict",
    "result_to_dict",
    "save_result",
    "save_state",
    "state_from_dict",
    "state_to_dict",
    "simulate_executed_workflow",
    "simulate_planned_workflow",
    "simulate_strategy",
]
