"""In-memory span recorder and the benchmark's own measuring subclasses.

Nothing in ``src/`` is instrumented: every layer boundary is stamped
from outside — the public ``on_event`` stream of ``ERPipeline.submit``
(:class:`EventSpans`), a ``ThresholdMatcher`` subclass that times
``prepare`` / ``match_batch`` (:class:`TracedMatcher`), a
``CsvShardSource`` subclass that times ``as_partitions``
(:class:`TracedCsvSource`) and strategy subclasses that time
``build_job`` / ``plan`` (:func:`traced_strategy`).

A span is ``{id, name, start, end, parent, run, replayed}`` with times
in seconds since the tracer was created.  Spans nest run → ``io`` /
stage → phase → task → kernel call; a layer's self time is a span's
duration minus its children's.  ``replayed`` spans are measurements
repeated after the traced run on the same inputs; they are never
summed into the run's wall time.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.core.strategy import get_strategy
from repro.er.matching import ThresholdMatcher
from repro.io.sources import CsvShardSource
from repro.mapreduce.events import EventKind, ExecutionEvent


class Tracer:
    """Keeps spans in memory; :meth:`write` dumps them at the end."""

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self.spans: list[dict[str, Any]] = []
        self.run_id = 0
        # The served workload records spans from client and receiver
        # threads at once; the lock keeps ids unique.
        self._lock = threading.Lock()

    def now(self) -> float:
        return time.perf_counter() - self._epoch

    def begin(
        self, name: str, parent: int | None = None, *, replayed: bool = False
    ) -> int:
        with self._lock:
            span_id = len(self.spans)
            self.spans.append({
                "id": span_id,
                "name": name,
                "start": self.now(),
                "end": None,
                "parent": parent,
                "run": self.run_id,
                "replayed": replayed,
            })
        return span_id

    def end(self, span_id: int) -> float:
        span = self.spans[span_id]
        span["end"] = self.now()
        return span["end"] - span["start"]

    @contextmanager
    def span(
        self, name: str, parent: int | None = None, *, replayed: bool = False
    ) -> Iterator[int]:
        span_id = self.begin(name, parent, replayed=replayed)
        try:
            yield span_id
        finally:
            self.end(span_id)

    # -- reading ------------------------------------------------------------

    def duration(self, span_id: int) -> float:
        span = self.spans[span_id]
        return span["end"] - span["start"]

    def total(self, name: str, *, replayed: bool = False) -> float:
        """Summed duration of every closed span called ``name``."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["replayed"] == replayed and s["end"] is not None
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n", encoding="utf-8")


class EventSpans:
    """Turns one execution's event stream into stage/phase/task spans.

    Pass :meth:`on_event` as the ``on_event`` of ``submit``.  ``current``
    is the innermost open task span (or phase, or stage): the traced
    matcher parents its kernel spans on it, which is exact on the
    serial backend where events and matching share one thread.
    """

    def __init__(self, tracer: Tracer, root: int, prefix: str = "mapreduce"):
        self.tracer = tracer
        self.root = root
        self.prefix = prefix
        self._stages: dict[str, int] = {}
        self._phases: dict[tuple[str, str], int] = {}
        self._tasks: dict[tuple[str, str, int], int] = {}
        self.current: int = root
        #: When the first task-finished event of the run arrived.
        self.first_task_finished: float | None = None

    def on_event(self, event: ExecutionEvent) -> None:
        tracer = self.tracer
        stage = event.stage or event.job
        kind = event.kind
        if kind == EventKind.JOB_STARTED:
            self._stages[stage] = self.current = tracer.begin(
                f"{self.prefix}.{stage}", self.root
            )
        elif kind == EventKind.PHASE_STARTED:
            self._phases[(stage, event.phase)] = self.current = tracer.begin(
                f"{self.prefix}.{stage}.{event.phase}", self._stages[stage]
            )
        elif kind == EventKind.TASK_STARTED:
            self._tasks[(stage, event.phase, event.task_index)] = self.current = (
                tracer.begin(
                    f"{self.prefix}.{stage}.{event.phase}.task",
                    self._phases[(stage, event.phase)],
                )
            )
        elif kind == EventKind.TASK_FINISHED:
            if self.first_task_finished is None:
                self.first_task_finished = tracer.now()
            tracer.end(self._tasks.pop((stage, event.phase, event.task_index)))
            self.current = self._phases[(stage, event.phase)]
        elif kind == EventKind.PHASE_FINISHED:
            tracer.end(self._phases.pop((stage, event.phase)))
            self.current = self._stages[stage]
        elif kind == EventKind.JOB_FINISHED:
            tracer.end(self._stages.pop(stage))
            self.current = self.root


class TracedMatcher(ThresholdMatcher):
    """``ThresholdMatcher`` that times its own ``prepare`` / ``match_batch``.

    Overrides neither ``similarity`` / ``is_match`` / ``match``, so the
    prepared fast path and the batch kernel stay active.  ``spans``
    (optional) parents one ``er.kernel`` span per ``match_batch`` call on
    the innermost open task; ``replayed`` marks them as replay spans.
    """

    def __init__(self, tracer: Tracer | None = None, spans: EventSpans | None = None,
                 *, replayed: bool = False):
        super().__init__()
        self._tracer = tracer
        self._spans = spans
        self._replayed = replayed
        self.kernel_s = 0.0
        self.prepare_s = 0.0
        self.batch_calls = 0
        self.pairs = 0

    def prepare(self, entity):
        start = time.perf_counter()
        prepared = super().prepare(entity)
        self.prepare_s += time.perf_counter() - start
        return prepared

    def match_batch(self, prepared, pairs):
        tracer = self._tracer
        span_id = None
        if tracer is not None:
            parent = self._spans.current if self._spans is not None else None
            span_id = tracer.begin("er.kernel", parent, replayed=self._replayed)
        start = time.perf_counter()
        out = super().match_batch(prepared, pairs)
        self.kernel_s += time.perf_counter() - start
        if span_id is not None:
            tracer.end(span_id)
        self.batch_calls += 1
        self.pairs += pairs.count
        return out

    def __getstate__(self):
        # The distributed replay encodes task frames whose job holds this
        # matcher; the tracer (and its lock) must not ride along.
        state = super().__getstate__()
        state["_tracer"] = None
        state["_spans"] = None
        return state


class TracedCsvSource(CsvShardSource):
    """``CsvShardSource`` whose ``as_partitions`` is an ``io.csv_load`` span."""

    def __init__(self, path, num_shards: int, tracer: Tracer, parent: int):
        super().__init__(path, num_shards)
        self._tracer = tracer
        self._parent = parent
        self.records = 0

    def as_partitions(self):
        with self._tracer.span("io.csv_load", self._parent):
            partitions = super().as_partitions()
        self.records = sum(len(p) for p in partitions)
        return partitions


def traced_strategy(name: str, tracer: Tracer, parent: int):
    """The registered strategy ``name`` with ``core.build_job`` /
    ``core.plan`` spans around its job builders and planners."""
    base = type(get_strategy(name))

    class Traced(base):  # type: ignore[misc, valid-type]
        def build_job(self, *args, **kwargs):
            with tracer.span("core.build_job", parent):
                return super().build_job(*args, **kwargs)

        def plan(self, *args, **kwargs):
            with tracer.span("core.plan", parent):
                return super().plan(*args, **kwargs)

        def build_delta_job(self, *args, **kwargs):
            with tracer.span("core.build_job", parent):
                return super().build_delta_job(*args, **kwargs)

        def plan_delta(self, *args, **kwargs):
            with tracer.span("core.plan", parent):
                return super().plan_delta(*args, **kwargs)

    return Traced()
