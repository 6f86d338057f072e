"""Execution handles: submit → observe → stream → persist.

:meth:`ERPipeline.submit` returns a :class:`PipelineExecution` — a live
handle on one pipeline run.  The backend executes on a dedicated driver
thread with an :class:`~repro.mapreduce.events.EventChannel` attached,
and everything the handle offers is derived from that one event stream:

* :meth:`~PipelineExecution.iter_matches` — matches stream out as each
  reduce task unit of the matching job completes, in deterministic
  task order (the same order ``result().matches`` is built in);
* :meth:`~PipelineExecution.progress` — a point-in-time snapshot of
  map/reduce task completion and per-task comparison counts, per
  workflow stage;
* :meth:`~PipelineExecution.cancel` — cooperative cancellation at the
  next task-unit boundary;
* :meth:`~PipelineExecution.result` — the final
  :class:`~repro.engine.result.PipelineResult`, byte-identical to what
  a plain ``run()`` returns (``run()`` *is* ``submit().result()``).

The handle also snapshots the matcher's cumulative counters at submit
time, so :meth:`~PipelineExecution.matcher_stats` reports **per-run**
numbers even when one stateful matcher instance is reused across
back-to-back runs — no manual ``reset_counters()`` needed.  The
matcher object itself still accumulates across runs (the documented
legacy behaviour, still reachable via ``matcher.comparisons``).
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, AsyncIterator, Callable, Iterator

from ..mapreduce.events import (
    EventChannel,
    EventKind,
    ExecutionEvent,
    PipelineCancelled,
)
from .executing import STAGE_MATCHING

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..er.matching import Matcher, MatchPair
    from .backend import ExecutionBackend, PipelineRequest
    from .result import PipelineResult

#: Lifecycle states of a :class:`PipelineExecution`.
RUNNING = "running"
SUCCEEDED = "succeeded"
FAILED = "failed"
CANCELLED = "cancelled"


@dataclass(frozen=True, slots=True)
class MatcherStats:
    """Per-run matcher counter deltas (submit snapshot → completion).

    The counters are snapshotted at submit time, so a matcher reused
    across back-to-back runs reports *this* run's work, never numbers
    leaked from a prior run.

    With backends that run matching in other processes (the parallel
    process pool, distributed workers), matcher instance state mutates
    in the workers and never returns to the driver, so the deltas are
    zero there — the job counters on the result
    (``result().total_comparisons()``) are the authoritative per-run
    numbers on every backend.
    """

    comparisons: int
    matches_found: int


@dataclass(frozen=True, slots=True)
class StageProgress:
    """Task completion of one workflow stage (``"bdm"`` / ``"matching"``)."""

    stage: str
    job: str
    map_tasks_done: int
    map_tasks_total: int
    reduce_tasks_done: int
    reduce_tasks_total: int
    comparisons: int
    matches: int
    finished: bool


@dataclass(frozen=True, slots=True)
class ExecutionProgress:
    """A point-in-time snapshot of one execution."""

    state: str
    stages: tuple[StageProgress, ...]

    @property
    def comparisons(self) -> int:
        """Pair comparisons performed so far (across completed tasks)."""
        return sum(stage.comparisons for stage in self.stages)

    @property
    def matches(self) -> int:
        """Matches found so far (across completed reduce tasks)."""
        return sum(stage.matches for stage in self.stages)

    @property
    def tasks_done(self) -> int:
        return sum(s.map_tasks_done + s.reduce_tasks_done for s in self.stages)

    @property
    def tasks_total(self) -> int:
        return sum(s.map_tasks_total + s.reduce_tasks_total for s in self.stages)

    @property
    def current_stage(self) -> str | None:
        """The deepest stage that has started (None before any job)."""
        return self.stages[-1].stage if self.stages else None


class _StageState:
    """Mutable per-stage progress, updated by the event observer."""

    __slots__ = (
        "stage", "job", "map_done", "map_total",
        "reduce_done", "reduce_total", "comparisons", "matches", "finished",
    )

    def __init__(self, stage: str, job: str, map_total: int, reduce_total: int):
        self.stage = stage
        self.job = job
        self.map_done = 0
        self.map_total = map_total
        self.reduce_done = 0
        self.reduce_total = reduce_total
        self.comparisons = 0
        self.matches = 0
        self.finished = False

    def snapshot(self) -> StageProgress:
        return StageProgress(
            stage=self.stage,
            job=self.job,
            map_tasks_done=self.map_done,
            map_tasks_total=self.map_total,
            reduce_tasks_done=self.reduce_done,
            reduce_tasks_total=self.reduce_total,
            comparisons=self.comparisons,
            matches=self.matches,
            finished=self.finished,
        )


class ExecutionStateMirror:
    """Rebuilds the observable state of one run from its event stream.

    Feed it every :class:`~repro.mapreduce.events.ExecutionEvent` of an
    execution (in emission order) and it maintains per-stage progress
    and surfaces the matching job's streamed outputs.  It is the one
    place the event-stream → progress/matches derivation lives: the
    in-process :class:`PipelineExecution` drives it from its event
    channel, and the remote client handle of :mod:`repro.serve` drives
    an identical instance from events forwarded over the wire — which
    is why local and remote handles report byte-identical progress and
    match streams.

    Not thread-safe; callers serialize :meth:`update` themselves (both
    handles update under their condition lock).
    """

    __slots__ = ("_stages", "_stage_order")

    def __init__(self) -> None:
        self._stages: dict[str, _StageState] = {}
        self._stage_order: list[str] = []

    def update(self, event: ExecutionEvent) -> "tuple[MatchPair, ...]":
        """Absorb one event; returns any newly streamed matches.

        The matching job's reduce outputs are the matches, in emission
        order — every other event contributes to progress only.
        """
        self._update_progress(event)
        if (
            event.kind == EventKind.TASK_FINISHED
            and event.phase == "reduce"
            and event.stage == STAGE_MATCHING
        ):
            output = event.data.get("output", ())
            if output:
                return tuple(record.value for record in output)
        return ()

    def _update_progress(self, event: ExecutionEvent) -> None:
        key = event.stage or event.job
        if event.kind == EventKind.JOB_STARTED:
            state = _StageState(
                stage=key,
                job=event.job,
                map_total=event.data.get("num_map_tasks", 0),
                reduce_total=event.data.get("num_reduce_tasks", 0),
            )
            if key not in self._stages:
                self._stage_order.append(key)
            self._stages[key] = state
            return
        state = self._stages.get(key)
        if state is None:
            return
        if event.kind == EventKind.TASK_FINISHED:
            if event.phase == "map":
                state.map_done += 1
            elif event.phase == "reduce":
                state.reduce_done += 1
                state.comparisons += event.data.get("comparisons", 0)
                state.matches += event.data.get("matches", 0)
        elif event.kind == EventKind.JOB_FINISHED:
            state.finished = True

    def progress(self, state: str) -> ExecutionProgress:
        """The stages seen so far as a progress snapshot in ``state``."""
        return ExecutionProgress(
            state=state,
            stages=tuple(
                self._stages[key].snapshot() for key in self._stage_order
            ),
        )


class PipelineExecution:
    """A live handle on one submitted pipeline run.

    Created by :meth:`~repro.engine.ERPipeline.submit`; not constructed
    directly.  Execution starts immediately on a dedicated driver
    thread.  Event callbacks (``on_event``) and the internal observers
    run synchronously on that thread, in deterministic event order.
    """

    def __init__(
        self,
        backend: "ExecutionBackend",
        request: "PipelineRequest",
        *,
        matcher: "Matcher | None" = None,
        on_event: Callable[[ExecutionEvent], None] | None = None,
    ):
        self._backend = backend
        self._request = request
        self._matcher = matcher
        self._cond = threading.Condition()
        self._streamed: list["MatchPair"] = []  # guarded-by: _cond
        self._mirror = ExecutionStateMirror()  # guarded-by: _cond
        self._state = RUNNING  # guarded-by: _cond
        self._result: "PipelineResult | None" = None  # guarded-by: _cond
        self._error: BaseException | None = None  # guarded-by: _cond
        # Snapshot the (cumulative, shared) matcher counters at submit,
        # so matcher_stats() is per-run without resetting the matcher.
        self._matcher_before = self._matcher_counters()
        self._matcher_after: tuple[int, int] | None = None
        #: The event/cancellation channel of this run.
        self.events = EventChannel([self._observe])
        if on_event is not None:
            self.events.subscribe(on_event)
        # Daemon: an interrupted or abandoned run must never block
        # interpreter exit; the consumers below cancel cooperatively on
        # interrupt, so the driver winds down instead of running on.
        self._thread = threading.Thread(
            target=self._drive, name="repro-pipeline-driver", daemon=True
        )
        self._thread.start()

    # -- driving -------------------------------------------------------------

    def _drive(self) -> None:
        result: "PipelineResult | None" = None
        error: BaseException | None = None
        state = SUCCEEDED
        try:
            result = self._backend.execute(self._request, self.events)
        except PipelineCancelled as exc:
            error, state = exc, CANCELLED
        # Not swallowed: stored and re-raised from result() on the
        # caller's thread (a driver thread has nowhere else to report).
        except BaseException as exc:  # repro-lint: disable=silent-except -- re-raised by result()
            error, state = exc, FAILED
        after = self._matcher_counters()
        with self._cond:
            self._result = result
            self._error = error
            self._state = state
            self._matcher_after = after
            self._cond.notify_all()

    def _matcher_counters(self) -> tuple[int, int]:
        if self._matcher is None:
            return (0, 0)
        return (self._matcher.comparisons, self._matcher.matches_found)

    def _observe(self, event: ExecutionEvent) -> None:
        with self._cond:
            self._streamed.extend(self._mirror.update(event))
            self._cond.notify_all()

    # -- state ---------------------------------------------------------------

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
        """Whether the run actually ended by cancellation (a cancel that
        loses the race against completion leaves a succeeded run)."""
        return self.state == CANCELLED

    def cancel(self) -> bool:
        """Request cooperative cancellation.

        The currently-running task units finish, nothing later starts,
        and the execution ends in the ``"cancelled"`` state with
        :meth:`result` raising :class:`~repro.mapreduce.events.
        PipelineCancelled`.  Returns ``False`` when the run had already
        finished (in which case its result stands).
        """
        with self._cond:
            if self._state != RUNNING:
                return False
        self.events.cancel()
        return True

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the run finishes; ``False`` on timeout."""
        with self._cond:
            return self._cond.wait_for(lambda: self._state != RUNNING, timeout)

    # -- results -------------------------------------------------------------

    def result(self, timeout: float | None = None) -> "PipelineResult":
        """The finished run's :class:`~repro.engine.result.PipelineResult`.

        Blocks until completion; re-raises the execution's error for
        failed runs and :class:`~repro.mapreduce.events.
        PipelineCancelled` for cancelled ones.  An interrupt while
        waiting (Ctrl-C) cancels the run cooperatively before
        propagating, so the driver thread stops at the next task-unit
        boundary instead of running to completion unattended.
        """
        try:
            finished = self.wait(timeout)
        except BaseException:
            self.events.cancel()
            raise
        if not finished:
            raise TimeoutError(
                f"execution still running after {timeout} seconds"
            )
        self._thread.join()
        with self._cond:
            if self._error is not None:
                raise self._error
            if self._result is None:
                raise RuntimeError(
                    "execution finished with neither result nor error"
                )
            return self._result

    def iter_matches(self) -> Iterator["MatchPair"]:
        """Stream matches as reduce task units complete.

        Yields every match of the run exactly once, in deterministic
        order: reduce-task-index order, emission order within a task —
        the same order ``result().matches`` is assembled in, whatever
        the backend.  May be called multiple times (later iterations
        replay the already-streamed prefix) and ends by raising the
        run's error for failed/cancelled executions.  A non-executing
        backend (planned) streams nothing.
        """
        index = 0
        while True:
            with self._cond:
                try:
                    self._cond.wait_for(
                        lambda: len(self._streamed) > index
                        or self._state != RUNNING
                    )
                except BaseException:
                    # Interrupted mid-stream: wind the driver down
                    # cooperatively before propagating.
                    self.events.cancel()
                    raise
                batch = self._streamed[index:]
                index += len(batch)
                drained = self._state != RUNNING and index == len(self._streamed)
                error = self._error
            yield from batch
            if drained:
                if error is not None:
                    raise error
                return

    # -- observation ---------------------------------------------------------

    def progress(self) -> ExecutionProgress:
        """A point-in-time snapshot of task completion per stage."""
        with self._cond:
            return self._mirror.progress(self._state)

    def matcher_stats(self) -> MatcherStats:
        """This run's matcher counter deltas (see :class:`MatcherStats`).

        Read after completion for final numbers; mid-run reads give the
        work done so far (serial and thread-pool backends only).
        """
        with self._cond:
            current = (
                self._matcher_after
                if self._matcher_after is not None
                else self._matcher_counters()
            )
            before = self._matcher_before
        return MatcherStats(
            comparisons=current[0] - before[0],
            matches_found=current[1] - before[1],
        )

    # -- asyncio bridges ------------------------------------------------------

    async def result_async(self) -> "PipelineResult":
        """``await``-able :meth:`result` (the wait runs off-loop)."""
        return await asyncio.to_thread(self.result)

    async def aiter_matches(self) -> AsyncIterator["MatchPair"]:
        """Async variant of :meth:`iter_matches` (same order, same
        exactly-once guarantee); blocking waits run off-loop."""
        matches = self.iter_matches()
        sentinel = object()
        while True:
            item = await asyncio.to_thread(next, matches, sentinel)
            if item is sentinel:
                return
            yield item  # type: ignore[misc]

    def __repr__(self) -> str:
        return (
            f"PipelineExecution(state={self.state!r}, "
            f"backend={self._backend.name!r}, "
            f"strategy={self._request.strategy.name!r})"
        )
