"""The execution event channel: task lifecycle + cooperative cancellation.

The runtime is observable: while a job runs, :class:`LocalRuntime` (and
the runtimes built on it) emits :class:`ExecutionEvent`\\ s into an
:class:`EventChannel` — job/phase/task lifecycle, per-task statistics,
and, for reduce tasks, the task's output records.  The engine's
:class:`~repro.engine.execution.PipelineExecution` handle is built
entirely on this channel: streamed matches, progress snapshots and
cancellation are all derived from the same event stream, so serial,
parallel and distributed execution share one observability surface.

Events are emitted from the *driver* thread (the thread that called
``run()``), in deterministic order: task-started events fire in
submission order, task-finished events in task-index order — the same
order results are merged in, whatever the backend.  Listener exceptions
propagate to the driver; listeners should be cheap and non-throwing.

Cancellation is cooperative: :meth:`EventChannel.cancel` sets a flag the
runtime checks between task units (and between jobs/phases).  Task
units already running complete normally; nothing later starts, and the
driver raises :class:`PipelineCancelled`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


class PipelineCancelled(Exception):
    """Raised by the driver when a cancelled execution reaches a
    cancellation point (between task units, phases, or jobs)."""


class EventKind:
    """Well-known :attr:`ExecutionEvent.kind` values."""

    JOB_STARTED = "job-started"
    JOB_FINISHED = "job-finished"
    PHASE_STARTED = "phase-started"
    PHASE_FINISHED = "phase-finished"
    TASK_STARTED = "task-started"
    TASK_FINISHED = "task-finished"


@dataclass(frozen=True, slots=True)
class ExecutionEvent:
    """One observation of a running job.

    ``stage`` is the workflow-level label the execution engine assigns
    (``"bdm"`` for Job 1, ``"matching"`` for Job 2; ``""`` when a job
    runs outside the pipeline).  ``job`` is the
    :attr:`~repro.mapreduce.job.MapReduceJob.name`.  ``phase`` is
    ``"map"``, ``"shuffle"`` or ``"reduce"`` for phase/task events and
    ``None`` for job-level events.  ``data`` carries kind-specific
    payload:

    =====================  ==============================================
    kind                   data keys
    =====================  ==============================================
    ``job-started``        ``num_map_tasks``, ``num_reduce_tasks``
    ``task-finished`` map  ``input_records``, ``output_records``
    ``task-finished`` red  ``input_records``, ``input_groups``,
                           ``output_records``, ``comparisons``,
                           ``matches``, ``output`` (the task's output
                           records, in emission order)
    ``job-finished``       ``counters`` (merged job counters, a dict)
    =====================  ==============================================
    """

    kind: str
    stage: str
    job: str
    phase: str | None = None
    task_index: int | None = None
    data: dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:
        where = f", phase={self.phase!r}" if self.phase else ""
        task = f", task={self.task_index}" if self.task_index is not None else ""
        return (
            f"ExecutionEvent({self.kind!r}, stage={self.stage!r}, "
            f"job={self.job!r}{where}{task})"
        )


#: An event listener: called synchronously from the driver thread.
EventListener = Callable[[ExecutionEvent], None]


class EventChannel:
    """Carries events from a running execution to its observers.

    The channel is also the cancellation token: the runtime calls
    :meth:`raise_if_cancelled` at every scheduling decision, so a
    :meth:`cancel` from any thread stops the execution at the next
    task-unit boundary.

    ``stage`` is mutable context the execution engine sets before each
    job of the workflow; every event emitted afterwards carries it.
    """

    def __init__(self, listeners: Iterable[EventListener] = ()):
        self._listeners: list[EventListener] = list(listeners)
        self._cancelled = threading.Event()
        #: Workflow-stage label stamped onto emitted events.
        self.stage: str = ""

    # -- observation --------------------------------------------------------

    def subscribe(self, listener: EventListener) -> None:
        """Add a listener; events are delivered in subscription order."""
        self._listeners.append(listener)

    def emit(
        self,
        kind: str,
        job: str,
        *,
        phase: str | None = None,
        task_index: int | None = None,
        **data: Any,
    ) -> ExecutionEvent:
        """Build an event stamped with the current stage and deliver it."""
        event = ExecutionEvent(
            kind=kind,
            stage=self.stage,
            job=job,
            phase=phase,
            task_index=task_index,
            data=data,
        )
        for listener in self._listeners:
            listener(event)
        return event

    # -- cancellation --------------------------------------------------------

    def cancel(self) -> None:
        """Request cooperative cancellation (idempotent, thread-safe)."""
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def raise_if_cancelled(self) -> None:
        """Raise :class:`PipelineCancelled` if cancellation was requested."""
        if self._cancelled.is_set():
            raise PipelineCancelled("execution cancelled")

    def __repr__(self) -> str:
        return (
            f"EventChannel(listeners={len(self._listeners)}, "
            f"cancelled={self.cancelled})"
        )
