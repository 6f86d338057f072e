"""``ERPipeline`` — the one front door to the ER workflow.

One- and two-source matching share a single entry point::

    pipeline = ERPipeline("blocksplit", PrefixBlocking("title"),
                          num_map_tasks=4, num_reduce_tasks=8)
    dedup = pipeline.run(entities)                 # R × R
    links = pipeline.run(r_entities, s_entities)   # R × S (Appendix I)

and the execution backend is swappable without touching anything else::

    fast = pipeline.with_backend("parallel", max_workers=8).run(entities)
    plan = pipeline.with_backend("planned").run(entities)

``run()`` is sugar for the submission model underneath: ``submit()``
returns a :class:`~repro.engine.execution.PipelineExecution` handle
that streams matches as reduce task units complete, reports progress,
and cancels cooperatively::

    execution = pipeline.submit(entities)
    for pair in execution.iter_matches():   # task by task, in order
        ...
    result = execution.result()             # == pipeline.run(entities)

and ``await pipeline.submit_async(entities)`` does the same without
blocking an asyncio event loop, on every backend.

``with_backend`` / ``with_cluster`` return configured copies (the
pipeline itself is cheap, reusable configuration; matchers are stateful
and shared across copies, as before — per-run counter readings come
from the execution handle's
:meth:`~repro.engine.execution.PipelineExecution.matcher_stats`).
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Sequence

from ..cluster.costmodel import CostModel
from ..cluster.simulation import ClusterSpec
from ..er.blocking import BlockingFunction
from ..er.entity import Entity
from ..er.matching import Matcher, ThresholdMatcher
from ..io.sources import RecordSource
from ..mapreduce.events import ExecutionEvent
from ..mapreduce.types import Partition, make_partitions
from ..core.strategy import LoadBalancingStrategy, get_strategy
from ..core.two_source import SOURCE_R, SOURCE_S
from .backend import DeltaSpec, ExecutionBackend, PipelineRequest, get_backend
from .execution import PipelineExecution
from .incremental import CorpusState
from .result import PipelineResult

#: Distinguishes "not passed" from an explicit None in with_cluster.
_UNSET: Any = object()


class ERPipeline:
    """Blocking-based ER with a configurable strategy and backend.

    Parameters
    ----------
    strategy:
        Strategy instance, class, or registry name (``"basic"``,
        ``"blocksplit"``, ``"pairrange"``).
    blocking:
        Blocking key function.
    matcher:
        Pair matcher; defaults to the paper's edit-distance/0.8
        threshold on ``title``.  Note the matcher is stateful
        (comparison counters) — reuse across runs only if you reset it.
    num_map_tasks / num_reduce_tasks:
        The paper's ``m`` and ``r``.
    backend:
        Backend instance or registry name (``"serial"``, ``"parallel"``,
        ``"planned"``); defaults to serial execution.
    cluster / cost_model:
        Optional simulated-cluster shape: executing backends attach a
        simulated timeline to their result, the planned backend uses it
        as the simulation target.
    memory_budget:
        Optional cap on the number of map output records the shuffle
        buffers in memory; beyond it, records spill through sorted run
        files on disk (:class:`~repro.mapreduce.ExternalShuffle`).
        Matches and counters are byte-identical either way.

    Matching reduce tasks score whole groups through
    :meth:`~repro.er.matching.Matcher.match_batch` — the columnar batch
    kernel of :mod:`repro.er.batch_kernel` for the default matcher, one
    ``match_prepared`` call per pair in the same order for any other.
    """

    def __init__(
        self,
        strategy: LoadBalancingStrategy | type[LoadBalancingStrategy] | str,
        blocking: BlockingFunction,
        matcher: Matcher | None = None,
        *,
        num_map_tasks: int = 2,
        num_reduce_tasks: int = 3,
        use_bdm_combiner: bool = True,
        backend: ExecutionBackend | type[ExecutionBackend] | str = "serial",
        cluster: ClusterSpec | None = None,
        cost_model: CostModel | None = None,
        memory_budget: int | None = None,
    ):
        self.strategy = get_strategy(strategy)
        self.blocking = blocking
        self.matcher = matcher if matcher is not None else ThresholdMatcher()
        self.num_map_tasks = num_map_tasks
        self.num_reduce_tasks = num_reduce_tasks
        self.use_bdm_combiner = use_bdm_combiner
        self.backend = get_backend(backend)
        self.cluster = cluster
        self.cost_model = cost_model
        self.memory_budget = memory_budget

    # -- fluent configuration ----------------------------------------------

    def with_backend(
        self,
        backend: ExecutionBackend | type[ExecutionBackend] | str,
        **options: Any,
    ) -> "ERPipeline":
        """A copy of this pipeline running on a different backend."""
        return self._copy(backend=get_backend(backend, **options))

    def with_cluster(
        self,
        cluster: ClusterSpec,
        cost_model: CostModel | None = _UNSET,  # type: ignore[assignment]
    ) -> "ERPipeline":
        """A copy of this pipeline simulating against ``cluster``.

        A cost model configured at construction time is kept unless one
        is explicitly passed here.
        """
        if cost_model is _UNSET:
            return self._copy(cluster=cluster)
        return self._copy(cluster=cluster, cost_model=cost_model)

    def _copy(self, **overrides: Any) -> "ERPipeline":
        settings: dict[str, Any] = dict(
            strategy=self.strategy,
            blocking=self.blocking,
            matcher=self.matcher,
            num_map_tasks=self.num_map_tasks,
            num_reduce_tasks=self.num_reduce_tasks,
            use_bdm_combiner=self.use_bdm_combiner,
            backend=self.backend,
            cluster=self.cluster,
            cost_model=self.cost_model,
            memory_budget=self.memory_budget,
        )
        settings.update(overrides)
        strategy = settings.pop("strategy")
        blocking = settings.pop("blocking")
        matcher = settings.pop("matcher")
        return ERPipeline(strategy, blocking, matcher, **settings)

    # -- running ------------------------------------------------------------

    def run(
        self,
        r: Sequence[Entity] | Sequence[Partition] | RecordSource,
        s: Sequence[Entity] | RecordSource | None = None,
        *,
        num_r_partitions: int | None = None,
        num_s_partitions: int | None = None,
    ) -> PipelineResult:
        """Match one source against itself, or R against S.

        Sugar for ``submit(...).result()`` — byte-identical matches and
        counters, just blocking until completion.

        With ``s=None``, ``r`` may be entities (split into
        ``num_map_tasks`` partitions), ready-made partitions, or a
        streaming :class:`~repro.io.RecordSource` (whose shard count
        overrides ``num_map_tasks``; executing backends materialize the
        shards one at a time, the planned backend only streams the
        source's block statistics).  With two sources, entities are
        re-tagged R/S and placed in source-homogeneous partitions, R
        partitions first; ``num_r_partitions``/``num_s_partitions``
        default to the source's shard count (record sources) or half of
        ``num_map_tasks`` each.
        """
        return self.submit(
            r,
            s,
            num_r_partitions=num_r_partitions,
            num_s_partitions=num_s_partitions,
        ).result()

    def submit(
        self,
        r: Sequence[Entity] | Sequence[Partition] | RecordSource,
        s: Sequence[Entity] | RecordSource | None = None,
        *,
        num_r_partitions: int | None = None,
        num_s_partitions: int | None = None,
        on_event: Callable[[ExecutionEvent], None] | None = None,
    ) -> PipelineExecution:
        """Submit a run and return its live execution handle.

        Execution starts immediately on a dedicated driver thread; the
        returned :class:`~repro.engine.execution.PipelineExecution`
        streams matches (:meth:`~repro.engine.execution.
        PipelineExecution.iter_matches`), reports progress, cancels
        cooperatively, and yields the final result.  ``on_event``
        subscribes a callback to every
        :class:`~repro.mapreduce.events.ExecutionEvent` of the run
        (called synchronously on the driver thread, in deterministic
        event order).

        The handle snapshots the matcher's cumulative counters at
        submit, so back-to-back runs sharing one matcher instance read
        per-run numbers from ``execution.matcher_stats()`` without a
        manual ``reset_counters()``; ``self.matcher.comparisons`` keeps
        the old accumulate-across-runs behaviour.
        """
        request = self.build_request(
            r,
            s,
            num_r_partitions=num_r_partitions,
            num_s_partitions=num_s_partitions,
        )
        return PipelineExecution(
            self.backend, request, matcher=self.matcher, on_event=on_event
        )

    async def submit_async(
        self,
        r: Sequence[Entity] | Sequence[Partition] | RecordSource,
        s: Sequence[Entity] | RecordSource | None = None,
        *,
        num_r_partitions: int | None = None,
        num_s_partitions: int | None = None,
        on_event: Callable[[ExecutionEvent], None] | None = None,
    ) -> PipelineExecution:
        """:meth:`submit` for asyncio callers.

        Partitioning large inputs can be slow, so submission itself runs
        off-loop (``asyncio.to_thread``); the returned handle offers
        ``await execution.result_async()`` and ``async for pair in
        execution.aiter_matches()``.  Works with every backend.
        """
        return await asyncio.to_thread(
            self.submit,
            r,
            s,
            num_r_partitions=num_r_partitions,
            num_s_partitions=num_s_partitions,
            on_event=on_event,
        )

    def run_delta(
        self,
        new_records: Sequence[Entity] | Sequence[Partition],
        state: CorpusState,
    ) -> PipelineResult:
        """Match a batch of new records against a persisted corpus.

        Sugar for ``submit_delta(...).result()``.  The result's matches
        are the *new* pairs only (new-vs-old and new-vs-new per block);
        old-vs-old pairs were matched by the runs that produced
        ``state`` and are never recompared.
        """
        return self.submit_delta(new_records, state).result()

    def submit_delta(
        self,
        new_records: Sequence[Entity] | Sequence[Partition],
        state: CorpusState,
        *,
        on_event: Callable[[ExecutionEvent], None] | None = None,
    ) -> PipelineExecution:
        """Submit an incremental run and return its live execution handle.

        Job 1 runs over ``new_records`` only; Job 2 is seeded from the
        persisted BDM merged with the delta's block counts, so the
        comparison work is ``T(n) − T(o)`` pairs per block instead of
        ``T(n)``.  The handle is a normal
        :class:`~repro.engine.execution.PipelineExecution` — streamed
        matches, progress, cooperative cancel and ``result()`` all work
        unchanged, on every executing backend.

        An empty ``state`` degrades to a plain full run of
        ``new_records`` (the two are the same computation).
        """
        request = self.build_delta_request(new_records, state)
        return PipelineExecution(
            self.backend, request, matcher=self.matcher, on_event=on_event
        )

    def build_delta_request(
        self,
        new_records: Sequence[Entity] | Sequence[Partition],
        state: CorpusState,
    ) -> PipelineRequest:
        """The resolved incremental :class:`~repro.engine.backend.
        PipelineRequest` (the backend-independent half of
        :meth:`submit_delta`, mirroring :meth:`build_request`)."""
        if not state.partitions:
            # Empty corpus: the delta IS the corpus — a plain full run.
            return self.build_request(new_records)
        return self._request(
            tuple(self._as_partitions(new_records)),
            delta=DeltaSpec(tuple(state.partitions), state.bdm),
        )

    def build_request(
        self,
        r: Sequence[Entity] | Sequence[Partition] | RecordSource,
        s: Sequence[Entity] | RecordSource | None = None,
        *,
        num_r_partitions: int | None = None,
        num_s_partitions: int | None = None,
    ) -> PipelineRequest:
        """The resolved :class:`~repro.engine.backend.PipelineRequest`
        this pipeline would submit for the given inputs.

        This is the backend-independent half of :meth:`submit`:
        strategy, blocking, matcher and partitioning are resolved, but
        nothing executes.  It is how remote submission works — a
        :class:`~repro.serve.ServeClient` builds the request locally
        and ships it to a server, whose shared pool executes it exactly
        as a local backend would.
        """
        source: RecordSource | None = None
        if s is None:
            if isinstance(r, RecordSource):
                # Backends own materialization: executing backends turn
                # the shards into partitions (one at a time), the
                # planned backend streams statistics only.
                source = r
                partitions: tuple[Partition, ...] = ()
            else:
                partitions = tuple(self._as_partitions(r))
            dual = False
        else:
            if isinstance(r, RecordSource):
                if num_r_partitions is None:
                    num_r_partitions = r.num_shards
                r = list(r.iter_records())
            if isinstance(s, RecordSource):
                if num_s_partitions is None:
                    num_s_partitions = s.num_shards
                s = list(s.iter_records())
            partitions = tuple(
                self._dual_partitions(r, s, num_r_partitions, num_s_partitions)
            )
            dual = True
        return self._request(partitions, dual=dual, source=source)

    # -- helpers -------------------------------------------------------------

    def _request(
        self, partitions: tuple[Partition, ...], **kind: Any
    ) -> PipelineRequest:
        """This pipeline's configuration as a request over ``partitions``;
        ``kind`` is what tells full, two-source and delta requests apart
        (``dual`` / ``source`` / ``delta``)."""
        return PipelineRequest(
            strategy=self.strategy,
            blocking=self.blocking,
            matcher=self.matcher,
            partitions=partitions,
            num_reduce_tasks=self.num_reduce_tasks,
            use_bdm_combiner=self.use_bdm_combiner,
            cluster=self.cluster,
            cost_model=self.cost_model,
            memory_budget=self.memory_budget,
            **kind,
        )

    def _as_partitions(
        self, entities: Sequence[Entity] | Sequence[Partition]
    ) -> list[Partition]:
        if entities and isinstance(entities[0], Partition):
            return list(entities)  # type: ignore[arg-type]
        return make_partitions(list(entities), self.num_map_tasks)

    def _dual_partitions(
        self,
        r_entities: Sequence[Entity],
        s_entities: Sequence[Entity],
        num_r_partitions: int | None,
        num_s_partitions: int | None,
    ) -> list[Partition]:
        if self.strategy.requires_bdm is False:
            raise ValueError(
                "two-source matching requires a BDM-based strategy "
                "(blocksplit or pairrange)"
            )
        if num_r_partitions is None:
            num_r_partitions = max(1, self.num_map_tasks // 2)
        if num_s_partitions is None:
            num_s_partitions = max(1, self.num_map_tasks // 2)
        tagged_r = [
            e if e.source == SOURCE_R else e.with_source(SOURCE_R)
            for e in r_entities
        ]
        tagged_s = [
            e if e.source == SOURCE_S else e.with_source(SOURCE_S)
            for e in s_entities
        ]
        r_parts = make_partitions(tagged_r, num_r_partitions)
        s_parts = make_partitions(tagged_s, num_s_partitions)
        partitions: list[Partition] = []
        for part in r_parts + s_parts:
            partitions.append(Partition(list(part), index=len(partitions)))
        return partitions

    def __repr__(self) -> str:
        return (
            f"ERPipeline(strategy={self.strategy.name!r}, "
            f"backend={self.backend.name!r}, m={self.num_map_tasks}, "
            f"r={self.num_reduce_tasks})"
        )
