"""The execution-backend contract and registry.

A backend receives a fully-resolved :class:`PipelineRequest` — strategy
instance, blocking function, matcher, input partitions — and returns a
:class:`~repro.engine.result.PipelineResult`.  How the work happens
(in-process, on a worker pool, on worker processes, or analytically via
the planners and the cluster simulator) is entirely the backend's
business; ``ERPipeline`` never branches on the backend kind.

The contract carries an optional **event channel**: ``execute(request,
events)`` receives an :class:`~repro.mapreduce.events.EventChannel`
when the caller wants to observe the run (task lifecycle events,
per-task comparison counts, streamed reduce outputs) or cancel it
cooperatively.  Executing backends attach the channel to their runtime;
backends that do not execute (the planned backend) only honour the
cancellation flag.  ``events`` is ``None`` for fire-and-forget calls —
the whole submission API of :class:`~repro.engine.execution.
PipelineExecution` is built on this one parameter.

Backends self-register with :func:`register_backend`, mirroring the
strategy registry, so third-party backends (a real Hadoop bridge, a
distributed runner, …) plug in without touching the pipeline.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, TypeVar

from ..cluster.costmodel import CostModel
from ..cluster.simulation import ClusterSpec
from ..core.bdm import BlockDistributionMatrix
from ..core.strategy import LoadBalancingStrategy
from ..er.blocking import BlockingFunction
from ..er.matching import Matcher
from ..io.sources import RecordSource
from ..mapreduce.events import EventChannel
from ..mapreduce.types import Partition
from .result import PipelineResult


@dataclass(frozen=True, slots=True)
class DeltaSpec:
    """The persisted-corpus side of an incremental (delta) request.

    ``old_partitions`` are the corpus's *annotated* partitions — the
    Job-1 side output that produced ``old_bdm``, i.e. ``(block key,
    entity)`` records in BDM partition order.  They seed Job 2 directly:
    Job 1 never re-runs over old records.  ``old_bdm`` may be ``None``
    only for a corpus with no keyed entity (every block empty).
    """

    old_partitions: tuple[Partition, ...]
    old_bdm: BlockDistributionMatrix | None

    def __post_init__(self) -> None:
        if not self.old_partitions:
            raise ValueError(
                "a delta request needs at least one persisted corpus "
                "partition (an empty corpus is a plain full run)"
            )
        if (
            self.old_bdm is not None
            and self.old_bdm.num_blocks > 0
            and self.old_bdm.num_partitions != len(self.old_partitions)
        ):
            raise ValueError(
                f"persisted BDM spans {self.old_bdm.num_partitions} "
                f"partitions but {len(self.old_partitions)} were given"
            )


@dataclass(frozen=True, slots=True)
class PipelineRequest:
    """One resolved unit of pipeline work handed to a backend.

    ``partitions`` are the m input splits (source-homogeneous and
    R-before-S when ``dual``).  When the pipeline was fed a streaming
    :class:`~repro.io.RecordSource`, ``source`` carries it: the planned
    backend consumes only its shard-level block statistics (and
    ``partitions`` may be empty), while executing backends materialize
    shards into partitions.  ``memory_budget`` caps shuffle buffering
    for executing backends (records held in memory before spilling).
    ``cluster``/``cost_model`` are optional for executing backends (they
    enable the simulated timeline) and default to a small reference
    cluster for the planned backend.
    """

    strategy: LoadBalancingStrategy
    blocking: BlockingFunction
    matcher: Matcher
    partitions: tuple[Partition, ...]
    num_reduce_tasks: int
    dual: bool = False
    use_bdm_combiner: bool = True
    cluster: ClusterSpec | None = None
    cost_model: CostModel | None = None
    source: RecordSource | None = None
    memory_budget: int | None = None
    delta: DeltaSpec | None = None
    properties: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.partitions and self.source is None:
            raise ValueError("at least one input partition is required")
        if self.delta is not None:
            if self.dual:
                raise ValueError(
                    "incremental (delta) and two-source matching cannot "
                    "be combined in one request"
                )
            if not self.partitions:
                raise ValueError(
                    "incremental (delta) requests require materialized "
                    "partitions (a streaming source alone is not supported)"
                )
        if self.dual and not self.partitions:
            # Two-source matching needs source-homogeneous, R-before-S
            # partitions; a bare record source cannot express that.
            # ERPipeline.run always materializes dual inputs.
            raise ValueError(
                "two-source matching requires materialized partitions "
                "(a streaming source alone is not supported for dual=True)"
            )
        if self.num_reduce_tasks <= 0:
            raise ValueError(
                f"num_reduce_tasks must be positive, got {self.num_reduce_tasks}"
            )
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise ValueError(
                f"memory_budget must be positive, got {self.memory_budget}"
            )

    @property
    def raw_partition_sizes(self) -> tuple[int, ...]:
        """Record count per input split (streamed when only a source is set)."""
        if self.partitions:
            return tuple(len(p) for p in self.partitions)
        if self.source is None:  # unreachable: __post_init__ requires one
            raise RuntimeError("request has neither partitions nor a source")
        return self.source.shard_sizes()


class ExecutionBackend(ABC):
    """Executes (or plans) the two-job ER workflow for one request."""

    #: Registry key and display name.
    name: str = "backend"

    #: Whether :meth:`execute` actually runs the matching jobs (and thus
    #: produces matches), as opposed to analytic planning only.
    executes: bool = True

    @abstractmethod
    def execute(
        self, request: PipelineRequest, events: EventChannel | None = None
    ) -> PipelineResult:
        """Run one pipeline request to completion.

        ``events``, when given, is the observation/cancellation channel:
        emit task lifecycle events into it as the work proceeds and
        honour :meth:`~repro.mapreduce.events.EventChannel.
        raise_if_cancelled` at reasonable boundaries.  Backends are free
        to ignore the event side (a ``None``-safe no-op), but cooperative
        cancellation support is what makes
        :meth:`~repro.engine.execution.PipelineExecution.cancel` work.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


#: Registry of available backends by name.
BACKENDS: dict[str, type[ExecutionBackend]] = {}

_B = TypeVar("_B", bound=type[ExecutionBackend])


def register_backend(cls: _B) -> _B:
    """Class decorator adding a backend to the registry under ``cls.name``."""
    if not cls.name or cls.name == ExecutionBackend.name:
        raise ValueError(f"{cls.__name__} must define a distinct `name`")
    existing = BACKENDS.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"backend name {cls.name!r} already registered by {existing.__name__}"
        )
    BACKENDS[cls.name] = cls
    return cls


def get_backend(
    backend: ExecutionBackend | type[ExecutionBackend] | str,
    **options: Any,
) -> ExecutionBackend:
    """Resolve a backend name, class or instance to a ready instance.

    ``options`` are forwarded to the backend constructor when a name or
    class is given (e.g. ``get_backend("parallel", max_workers=4)``).
    """
    if isinstance(backend, ExecutionBackend):
        if options:
            raise TypeError(
                "cannot apply constructor options to an existing "
                f"backend instance {backend!r}"
            )
        return backend
    if isinstance(backend, type) and issubclass(backend, ExecutionBackend):
        return backend(**options)
    try:
        cls = BACKENDS[backend]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise KeyError(f"unknown backend {backend!r}; known: {known}") from None
    return cls(**options)
