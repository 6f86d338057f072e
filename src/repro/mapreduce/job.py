"""The MapReduce job contract.

A job supplies the five user functions of the paper's Section II:

* ``map`` and ``reduce`` — the sequential user code;
* ``partition`` — routes a map-output key to a reduce *task*;
* ``sort_key`` — projection of the key used for sorting within a task;
* ``group_key`` — projection used to form reduce groups.

All three routing functions operate on keys only, never values, exactly
as in the MR model.  Jobs may also define an associative ``combine``
(the BDM job uses one as the paper's footnote 2 suggests) and a
``configure`` hook that mirrors Hadoop's per-task setup (``map
configure(m, r, partitionIndex)`` in the paper's pseudo-code), with
``finish_reduce`` as the reduce side's matching per-task teardown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from .counters import Counters


@dataclass(frozen=True, slots=True)
class JobConfig:
    """Static job parameters shared by every task of a job.

    ``num_map_tasks`` (m) and ``num_reduce_tasks`` (r) follow the
    paper's notation.  ``properties`` carries job-specific settings
    (e.g. the serialized BDM location) like Hadoop's JobConf.
    """

    num_map_tasks: int
    num_reduce_tasks: int
    properties: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_map_tasks <= 0:
            raise ValueError(f"num_map_tasks must be positive, got {self.num_map_tasks}")
        if self.num_reduce_tasks <= 0:
            raise ValueError(f"num_reduce_tasks must be positive, got {self.num_reduce_tasks}")


class TaskContext:
    """Per-task runtime services handed to user code.

    Provides the task identity (``partition_index`` for map tasks,
    ``reduce_index`` for reduce tasks), counters, and side-output
    emission (the paper's ``additionalOutput``).
    """

    def __init__(
        self,
        config: JobConfig,
        *,
        partition_index: int | None = None,
        reduce_index: int | None = None,
        side_writer: Callable[[str, Any, Any], None] | None = None,
    ):
        self.config = config
        self.partition_index = partition_index
        self.reduce_index = reduce_index
        self.counters = Counters()
        self._side_writer = side_writer
        #: Work ``reduce`` calls have put off until the job's
        #: ``finish_reduce`` (the batched match jobs park their groups
        #: and count their pairs here).  Per task, never shared: the
        #: thread backend runs several tasks of one job at once.
        self.pending: list = []
        self.pending_pairs = 0

    @property
    def num_map_tasks(self) -> int:
        return self.config.num_map_tasks

    @property
    def num_reduce_tasks(self) -> int:
        return self.config.num_reduce_tasks

    def side_output(self, directory: str, key: Any, value: Any) -> None:
        """Write a record to this task's side-output file under ``directory``."""
        if self._side_writer is None:
            raise RuntimeError("side outputs are not available in this task")
        self._side_writer(directory, key, value)


Emitter = Callable[[Any, Any], None]


class MapReduceJob:
    """Base class for jobs; subclass and override the pieces you need.

    The default routing behaviour matches Hadoop's defaults: hash
    partitioning on the whole key, sorting and grouping on the whole
    key.  Composite-key jobs override :meth:`partition` and
    :meth:`group_key` (and occasionally :meth:`sort_key`).
    """

    #: Human-readable job name used in logs and simulation timelines.
    name: str = "job"

    #: Optional packed sort/group projection spec (see
    #: :class:`~repro.mapreduce.types.PackedProjection`).  Jobs whose
    #: composite-key fields are bounded ints set an instance attribute;
    #: the shuffle then sorts on single packed ints and derives group
    #: boundaries from them instead of calling :meth:`sort_key` /
    #: :meth:`group_key` per record.
    packed_projection = None

    # -- lifecycle hooks ---------------------------------------------------

    def configure_map(self, context: TaskContext) -> None:
        """Called once per map task before any ``map`` call."""

    def configure_reduce(self, context: TaskContext) -> None:
        """Called once per reduce task before any ``reduce`` call."""

    def finish_reduce(self, emit: "Emitter", context: TaskContext) -> None:
        """Called once per reduce task after its last ``reduce`` call.

        Hadoop's ``Reducer.cleanup()``: a job whose ``reduce`` put work
        off (``context.pending``) completes and emits it here.
        """

    # -- user functions ----------------------------------------------------

    def map(self, key: Any, value: Any, emit: Emitter, context: TaskContext) -> None:
        raise NotImplementedError

    def reduce(self, key: Any, values: Sequence[Any], emit: Emitter, context: TaskContext) -> None:
        raise NotImplementedError

    def combine(self, key: Any, values: Sequence[Any]) -> Iterable[tuple[Any, Any]] | None:
        """Optional combiner; return replacement ``(key, value)`` pairs.

        Returning ``None`` (the default) disables combining.  The
        combiner runs once per map task over that task's output, grouped
        by the full key — the standard Hadoop contract for an
        associative, commutative aggregation.
        """
        return None

    # -- routing functions ---------------------------------------------------

    def partition(self, key: Any, num_reduce_tasks: int) -> int:
        """Route ``key`` to a reduce task index in ``[0, num_reduce_tasks)``."""
        return stable_hash(key) % num_reduce_tasks

    def sort_key(self, key: Any) -> Any:
        """Projection of ``key`` used for sorting inside a reduce task.

        When the job advertises a :attr:`packed_projection`, this *is*
        the packed encoding — defined here once so the method-based
        paths (external shuffle, combiner) can never drift from the
        projection the fast shuffle uses directly.
        """
        projection = self.packed_projection
        return projection.codec.encode(key) if projection is not None else key

    def group_key(self, key: Any) -> Any:
        """Projection of ``key`` used to form reduce groups.

        With a :attr:`packed_projection` this is the shift/mask of the
        packed sort key; jobs whose *unpacked* group projection is not
        the full key override this and delegate to ``super()`` for the
        packed case.
        """
        projection = self.packed_projection
        if projection is None:
            return key
        return (
            projection.codec.encode(key) >> projection.group_shift
        ) & projection.group_mask

    # -- convenience ---------------------------------------------------------

    def validate_partition(self, key: Any, num_reduce_tasks: int) -> int:
        index = self.partition(key, num_reduce_tasks)
        if not 0 <= index < num_reduce_tasks:
            raise ValueError(
                f"job {self.name!r}: partition({key!r}) returned {index}, "
                f"outside [0, {num_reduce_tasks})"
            )
        return index


def stable_hash(value: Any) -> int:
    """A deterministic, process-independent hash for partitioning.

    ``hash()`` on strings is salted per process (PYTHONHASHSEED), which
    would make partitioning — and therefore the Basic strategy's skew
    behaviour — irreproducible between runs.  We use FNV-1a over the
    ``repr`` of the key instead: stable, fast, and adequate spread.
    """
    data = repr(value).encode("utf-8")
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class LambdaJob(MapReduceJob):
    """Adapter building a job from plain functions — handy in tests.

    Example::

        job = LambdaJob(
            map_fn=lambda k, v, emit, ctx: emit(v % 2, v),
            reduce_fn=lambda k, vs, emit, ctx: emit(k, sum(vs)),
        )
    """

    def __init__(
        self,
        map_fn: Callable[[Any, Any, Emitter, TaskContext], None],
        reduce_fn: Callable[[Any, Sequence[Any], Emitter, TaskContext], None],
        *,
        partition_fn: Callable[[Any, int], int] | None = None,
        sort_key_fn: Callable[[Any], Any] | None = None,
        group_key_fn: Callable[[Any], Any] | None = None,
        combine_fn: Callable[[Any, Sequence[Any]], Iterable[tuple[Any, Any]]] | None = None,
        name: str = "lambda-job",
    ):
        self._map_fn = map_fn
        self._reduce_fn = reduce_fn
        self._partition_fn = partition_fn
        self._sort_key_fn = sort_key_fn
        self._group_key_fn = group_key_fn
        self._combine_fn = combine_fn
        self.name = name

    def map(self, key: Any, value: Any, emit: Emitter, context: TaskContext) -> None:
        self._map_fn(key, value, emit, context)

    def reduce(self, key: Any, values: Sequence[Any], emit: Emitter, context: TaskContext) -> None:
        self._reduce_fn(key, values, emit, context)

    def partition(self, key: Any, num_reduce_tasks: int) -> int:
        if self._partition_fn is None:
            return super().partition(key, num_reduce_tasks)
        return self._partition_fn(key, num_reduce_tasks)

    def sort_key(self, key: Any) -> Any:
        if self._sort_key_fn is None:
            return super().sort_key(key)
        return self._sort_key_fn(key)

    def group_key(self, key: Any) -> Any:
        if self._group_key_fn is None:
            return super().group_key(key)
        return self._group_key_fn(key)

    def combine(self, key: Any, values: Sequence[Any]):
        if self._combine_fn is None:
            return None
        return self._combine_fn(key, values)
