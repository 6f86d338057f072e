"""The local MapReduce runtime.

Executes a :class:`~repro.mapreduce.job.MapReduceJob` over a list of
input partitions exactly as a (deterministic) Hadoop would: one map
task per input partition, a full partition/sort/group shuffle, then one
reduce task per configured reduce index.  The runtime records rich
per-task statistics which the cluster simulator turns into
execution-time estimates.

Task execution is factored into self-contained, schedulable units —
:func:`execute_map_task` and :func:`execute_reduce_task` — that take
only picklable arguments and return their results (including side
outputs) instead of mutating shared state.  :class:`LocalRuntime` runs
them in task-index order in-process; the engine package's parallel,
pooled and distributed runtimes ship the same units to worker pools.
Either way the merged :class:`JobResult` is byte-for-byte identical
because results are always combined in task-index order.

Runtimes are also *observable*: attach an
:class:`~repro.mapreduce.events.EventChannel` to :attr:`LocalRuntime.
events` and ``run()`` emits job/phase/task lifecycle events (with
per-task statistics and reduce outputs) in deterministic order, and
honours cooperative cancellation at every task-unit boundary.  The
engine's execution handles (streamed matches, progress, ``cancel()``)
are built entirely on this channel.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Iterator, Self, Sequence

from .counters import Counters, StandardCounter
from .dfs import DistributedFileSystem
from .events import EventChannel, EventKind
from .external_shuffle import ExternalShuffle
from .job import JobConfig, MapReduceJob, TaskContext
from .shuffle import (
    group_presorted_entries,
    partition_map_output,
    shuffle_bucket,
    sort_bucket,
)
from .types import KeyValue, Partition

#: One schedulable call: (task unit function, argument tuple).
TaskCall = tuple[Callable[..., Any], tuple[Any, ...]]


@dataclass(frozen=True, slots=True)
class SideRecord:
    """One side-output record a map task produced.

    Side outputs are collected inside the task unit and applied to the
    DFS by whoever scheduled the task — this is what lets map tasks run
    in worker processes that do not share the driver's file system.
    """

    directory: str
    key: Any
    value: Any


@dataclass(frozen=True, slots=True)
class MapTaskResult:
    """Statistics and output of one map task."""

    partition_index: int
    input_records: int
    output_records: int
    counters: Counters
    output: tuple[KeyValue, ...]
    side_records: tuple[SideRecord, ...] = ()

    def event_data(self) -> dict[str, Any]:
        """What this task's ``task-finished`` event carries."""
        return {
            "task_index": self.partition_index,
            "input_records": self.input_records,
            "output_records": self.output_records,
        }


@dataclass(frozen=True, slots=True)
class ReduceTaskResult:
    """Statistics and output of one reduce task."""

    reduce_index: int
    input_records: int
    input_groups: int
    output_records: int
    counters: Counters
    output: tuple[KeyValue, ...]

    def event_data(self) -> dict[str, Any]:
        """What this task's ``task-finished`` event carries.

        The task's output rides on the event: for the matching job
        these records *are* the matches, which is what lets the
        execution handle stream them out task by task.
        """
        return {
            "task_index": self.reduce_index,
            "input_records": self.input_records,
            "input_groups": self.input_groups,
            "output_records": self.output_records,
            "comparisons": self.counters.get(StandardCounter.PAIR_COMPARISONS),
            "matches": self.counters.get(StandardCounter.PAIRS_MATCHED),
            "output": self.output,
        }


@dataclass(frozen=True, slots=True)
class JobResult:
    """Everything a finished job produced.

    ``output`` concatenates reduce outputs in reduce-task order.
    ``counters`` aggregates the runtime's standard counters and any
    user counters across all tasks.
    """

    job_name: str
    config: JobConfig
    map_tasks: tuple[MapTaskResult, ...]
    reduce_tasks: tuple[ReduceTaskResult, ...]
    counters: Counters

    @property
    def output(self) -> list[KeyValue]:
        records: list[KeyValue] = []
        for task in self.reduce_tasks:
            records.extend(task.output)
        return records

    def reduce_input_records(self) -> list[int]:
        return [task.input_records for task in self.reduce_tasks]

    def reduce_counter(self, name: str) -> list[int]:
        """Per-reduce-task values of a counter (e.g. pair comparisons)."""
        return [task.counters.get(name) for task in self.reduce_tasks]

    def map_output_records(self) -> int:
        return self.counters.get(StandardCounter.MAP_OUTPUT_RECORDS)


# ---------------------------------------------------------------------------
# Schedulable task units
# ---------------------------------------------------------------------------


def execute_map_task(
    job: MapReduceJob, config: JobConfig, partition: Partition
) -> MapTaskResult:
    """Run one map task and return its output, counters and side records.

    Pure with respect to the caller: no shared file system or counters
    are touched, so the unit can execute in any process.
    """
    side_records: list[SideRecord] = []

    def side_writer(directory: str, key: Any, value: Any) -> None:
        side_records.append(SideRecord(directory, key, value))
        context.counters.increment(StandardCounter.SIDE_OUTPUT_RECORDS)

    context = TaskContext(
        config, partition_index=partition.index, side_writer=side_writer
    )
    output: list[KeyValue] = []

    def emit(key: Any, value: Any) -> None:
        output.append(KeyValue(key, value))

    job.configure_map(context)
    for record in partition:
        job.map(record.key, record.value, emit, context)
        context.counters.increment(StandardCounter.MAP_INPUT_RECORDS)

    output = _run_combiner(job, context, output)
    context.counters.increment(StandardCounter.MAP_OUTPUT_RECORDS, len(output))
    return MapTaskResult(
        partition_index=partition.index,
        input_records=len(partition),
        output_records=len(output),
        counters=context.counters,
        output=tuple(output),
        side_records=tuple(side_records),
    )


def _run_combiner(
    job: MapReduceJob, context: TaskContext, output: list[KeyValue]
) -> list[KeyValue]:
    """Apply the job's combiner to one map task's output, if defined.

    Groups by the full key (sorted by the sort projection first) and
    replaces each group by whatever the combiner returns.  Jobs
    without a combiner pass through untouched.
    """
    if type(job).combine is MapReduceJob.combine:
        return output

    sorted_output = sort_bucket(job, output)
    combined: list[KeyValue] = []
    i = 0
    n = len(sorted_output)
    while i < n:
        j = i
        key = sorted_output[i].key
        values: list[Any] = []
        while j < n and sorted_output[j].key == key:
            values.append(sorted_output[j].value)
            j += 1
        context.counters.increment(StandardCounter.COMBINE_INPUT_RECORDS, j - i)
        replacement = job.combine(key, values)
        if replacement is None:
            combined.extend(sorted_output[i:j])
            context.counters.increment(StandardCounter.COMBINE_OUTPUT_RECORDS, j - i)
        else:
            for out_key, out_value in replacement:
                combined.append(KeyValue(out_key, out_value))
                context.counters.increment(StandardCounter.COMBINE_OUTPUT_RECORDS)
        i = j
    return combined


def execute_reduce_task(
    job: MapReduceJob,
    config: JobConfig,
    reduce_index: int,
    bucket: "list[KeyValue] | list[tuple[Any, KeyValue]]",
    presorted: bool = False,
) -> ReduceTaskResult:
    """Run one reduce task over its shuffled bucket.

    ``presorted`` marks buckets that already arrive in the job's sort
    order (the external shuffle's merged run files).  Such a bucket is a
    list of ``(sort key, record)`` *entries* — the sort key the spill
    path computed once in :meth:`~repro.mapreduce.external_shuffle.
    ExternalShuffle.add` travels all the way here, so grouping reuses it
    (for packed jobs it *is* the packed int) instead of re-encoding
    every record.  Unsorted buckets are plain record lists.
    """
    context = TaskContext(config, reduce_index=reduce_index)
    output: list[KeyValue] = []

    def emit(key: Any, value: Any) -> None:
        output.append(KeyValue(key, value))

    job.configure_reduce(context)
    groups = (
        group_presorted_entries(job, bucket)
        if presorted
        else shuffle_bucket(job, bucket)
    )
    for group in groups:
        job.reduce(group.key, group.values, emit, context)
        context.counters.increment(StandardCounter.REDUCE_INPUT_GROUPS)
        context.counters.increment(StandardCounter.REDUCE_INPUT_RECORDS, len(group))
    job.finish_reduce(emit, context)
    context.counters.increment(StandardCounter.REDUCE_OUTPUT_RECORDS, len(output))
    return ReduceTaskResult(
        reduce_index=reduce_index,
        input_records=len(bucket),
        input_groups=len(groups),
        output_records=len(output),
        counters=context.counters,
        output=tuple(output),
    )


class LocalRuntime:
    """Deterministic in-process job executor.

    Parameters
    ----------
    dfs:
        Optional shared file system for side outputs / job chaining.
        A fresh one is created when omitted.
    events:
        Optional :class:`~repro.mapreduce.events.EventChannel` the
        runtime emits lifecycle events into (and checks for cooperative
        cancellation).  Also settable after construction via the
        :attr:`events` attribute — the execution backends attach the
        channel of the current :class:`~repro.engine.execution.
        PipelineExecution` that way.
    """

    def __init__(
        self,
        dfs: DistributedFileSystem | None = None,
        *,
        events: EventChannel | None = None,
    ):
        self.dfs = dfs if dfs is not None else DistributedFileSystem()
        #: Event channel lifecycle events are emitted into (may be None).
        self.events = events

    def close(self) -> None:
        """Release scheduling resources (no-op for in-process execution)."""

    def __enter__(self) -> Self:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- public API --------------------------------------------------------

    def run(
        self,
        job: MapReduceJob,
        partitions: Sequence[Partition],
        num_reduce_tasks: int,
        *,
        properties: dict[str, Any] | None = None,
        memory_budget: int | None = None,
    ) -> JobResult:
        """Run ``job`` over ``partitions`` with ``num_reduce_tasks`` reducers.

        The number of map tasks is the number of input partitions, as in
        the paper (one map task per input split; splitting disabled).

        ``memory_budget`` caps the number of map output records the
        shuffle holds in memory; the rest streams through sorted run
        files on disk (:class:`~repro.mapreduce.ExternalShuffle`).
        Matches, reduce outputs and counters are byte-identical to the
        in-memory path, but per-map-task raw ``output`` tuples are not
        retained on the returned :class:`MapTaskResult`\\ s (their
        statistics are).

        With an :attr:`events` channel attached, job / phase / task
        lifecycle events are emitted in deterministic order and
        cancellation is honoured between task units (raising
        :class:`~repro.mapreduce.events.PipelineCancelled`).
        """
        if not partitions:
            raise ValueError("at least one input partition is required")
        indices = [p.index for p in partitions]
        if indices != list(range(len(partitions))):
            raise ValueError(
                f"partitions must have contiguous indices 0..m-1, got {indices}"
            )
        config = JobConfig(
            num_map_tasks=len(partitions),
            num_reduce_tasks=num_reduce_tasks,
            properties=dict(properties or {}),
        )
        events = self.events
        if events is not None:
            events.raise_if_cancelled()
            events.emit(
                EventKind.JOB_STARTED,
                job.name,
                num_map_tasks=len(partitions),
                num_reduce_tasks=num_reduce_tasks,
            )
        map_sink = self._task_finished_sink(job, "map")
        reduce_sink = self._task_finished_sink(job, "reduce")
        with (
            ExternalShuffle(job, num_reduce_tasks, memory_budget)
            if memory_budget is not None
            else nullcontext()
        ) as spill:
            if spill is not None:
                # Each map task's output is routed into the shuffle (and
                # dropped from the result) as soon as the task completes,
                # so peak memory is one task's output + the spill buffer
                # — never the whole map stage.
                task_finished = map_sink

                def map_sink(result: MapTaskResult) -> MapTaskResult:
                    if task_finished is not None:
                        task_finished(result)
                    spill.add_records(result.output)
                    return replace(result, output=())

            self._notify_phase(job, EventKind.PHASE_STARTED, "map")
            map_results = self._run_calls(
                self._map_calls(job, config, partitions), map_sink
            )
            self._notify_phase(job, EventKind.PHASE_FINISHED, "map")
            self._apply_side_records(map_results)
            self._notify_phase(job, EventKind.PHASE_STARTED, "shuffle")
            if spill is not None:
                # Spill buckets come back merged in sort order already,
                # as (sort key, record) entries — the key encoded once
                # in ExternalShuffle.add is reused for grouping.
                buckets = spill.buckets()
            else:
                buckets = partition_map_output(
                    job, [result.output for result in map_results], num_reduce_tasks
                )
            self._notify_phase(job, EventKind.PHASE_FINISHED, "shuffle")
            self._notify_phase(job, EventKind.PHASE_STARTED, "reduce")
            reduce_results = self._run_calls(
                self._reduce_calls(job, config, buckets, spill is not None),
                reduce_sink,
            )
            self._notify_phase(job, EventKind.PHASE_FINISHED, "reduce")

        counters = Counters.merged(
            [r.counters for r in map_results] + [r.counters for r in reduce_results]
        )
        if events is not None:
            events.emit(
                EventKind.JOB_FINISHED, job.name, counters=counters.as_dict()
            )
        return JobResult(
            job_name=job.name,
            config=config,
            map_tasks=tuple(map_results),
            reduce_tasks=tuple(reduce_results),
            counters=counters,
        )

    # -- event emission ------------------------------------------------------

    def _notify_phase(self, job: MapReduceJob, kind: str, phase: str) -> None:
        """Phase boundary: a cancellation point + lifecycle event."""
        if self.events is not None:
            self.events.raise_if_cancelled()
            self.events.emit(kind, job.name, phase=phase)

    def _task_starting(self, job: MapReduceJob, phase: str, task_index: int) -> None:
        """Per-task-unit cancellation point + ``task-started`` event.

        Fires at *submission* time: just before in-process execution for
        the serial runtime, at pool submission for the pooled
        runtimes — either way in submission order, from the driver.
        """
        if self.events is not None:
            self.events.raise_if_cancelled()
            self.events.emit(
                EventKind.TASK_STARTED, job.name, phase=phase, task_index=task_index
            )

    def _task_finished_sink(
        self, job: MapReduceJob, phase: str
    ) -> "Callable[[Any], Any] | None":
        """The sink that emits one ``task-finished`` event per result of
        ``phase`` (``None`` without a channel)."""
        events = self.events
        if events is None:
            return None

        def sink(result: "MapTaskResult | ReduceTaskResult"):
            events.emit(
                EventKind.TASK_FINISHED, job.name, phase=phase, **result.event_data()
            )
            return result

        return sink

    # -- scheduling (_run_calls is what the other runtimes override) --------

    def _map_calls(
        self,
        job: MapReduceJob,
        config: JobConfig,
        partitions: Sequence[Partition],
    ) -> Iterator[TaskCall]:
        """The map task units, as lazily-built schedulable calls.

        Pulling the next call is the submission point: it emits the
        ``task-started`` event and checks cancellation, so every runtime
        that consumes this iterator — in-process or pooled —
        shares the same lifecycle semantics for free.
        """
        for part in partitions:
            self._task_starting(job, "map", part.index)
            yield execute_map_task, (job, config, part)

    def _reduce_calls(
        self,
        job: MapReduceJob,
        config: JobConfig,
        buckets: Sequence[list],
        presorted: bool,
    ) -> Iterator[TaskCall]:
        """The reduce task units; buckets are fetched one per pull
        (under a memory budget they are lazily-drained spill views)."""
        for index in range(len(buckets)):
            self._task_starting(job, "reduce", index)
            yield execute_reduce_task, (job, config, index, buckets[index], presorted)

    def _run_calls(
        self, calls: Iterable[TaskCall], sink: "Callable | None"
    ) -> list:
        """Run one phase's task units; the only scheduling seam.

        Returns the results in task-index order.  ``sink`` (when given)
        is applied to each result as soon as it is available, in that
        same order — the external shuffle uses it to consume map outputs
        incrementally instead of holding the whole map stage in memory,
        and the event channel to emit task-finished events.  Every other
        runtime overrides this method and nothing else.
        """
        results: list = []
        for fn, args in calls:
            result = fn(*args)
            results.append(sink(result) if sink is not None else result)
        return results

    # -- side outputs -------------------------------------------------------

    def _apply_side_records(self, map_results: Sequence[MapTaskResult]) -> None:
        """Materialise side outputs in the driver's DFS, in task order."""
        for result in map_results:
            paths: dict[str, str] = {}
            for record in result.side_records:
                path = paths.get(record.directory)
                if path is None:
                    path = DistributedFileSystem.task_path(
                        record.directory, result.partition_index
                    )
                    self.dfs.create(path)
                    paths[record.directory] = path
                self.dfs.append(path, record.key, record.value)
