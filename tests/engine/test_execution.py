"""The execution-handle API: submit → observe → stream → cancel.

The load-bearing guarantee is equivalence: for every strategy ×
executing backend × with/without a memory budget, ``submit().result()``
is byte-identical to ``run()``, and the streamed ``iter_matches()``
sequence is exactly the matching job's reduce output (ids *and*
scores), in deterministic task order.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.datasets.generators import generate_products
from repro.engine import ERPipeline, MatcherStats, PipelineCancelled
from repro.er.blocking import PrefixBlocking
from repro.er.matching import AlwaysMatcher, Matcher, ThresholdMatcher
from repro.mapreduce.events import EventKind

ALL_STRATEGIES = ["basic", "blocksplit", "pairrange"]
DUAL_STRATEGIES = ["blocksplit", "pairrange"]
EXECUTING_BACKENDS = {
    "serial": ("serial", {}),
    "parallel": ("parallel", {"max_workers": 3, "executor": "thread"}),
}
BUDGETS = [None, 24]


def _pipeline(strategy, backend="serial", *, memory_budget=None, **backend_options):
    name, defaults = EXECUTING_BACKENDS.get(backend, (backend, {}))
    options = {**defaults, **backend_options}
    return ERPipeline(
        strategy,
        PrefixBlocking("title"),
        ThresholdMatcher("title", 0.8),
        num_map_tasks=3,
        num_reduce_tasks=5,
        memory_budget=memory_budget,
    ).with_backend(name, **options)


def _match_tuples(matches):
    return [(pair.id1, pair.id2, pair.similarity) for pair in matches]


def _job2_output_tuples(result):
    return _match_tuples(record.value for record in result.job2.output)


def _fingerprint(result):
    return (
        result.strategy,
        _match_tuples(result.matches),
        result.reduce_comparisons(),
        result.job2.counters.as_dict(),
        None if result.job1 is None else result.job1.counters.as_dict(),
        tuple(task.counters.as_dict() for task in result.job2.reduce_tasks),
    )


class TestRunSubmitEquivalence:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("backend", list(EXECUTING_BACKENDS))
    @pytest.mark.parametrize("memory_budget", BUDGETS)
    def test_submit_result_equals_run(self, strategy, backend, memory_budget):
        entities = generate_products(180, seed=21)
        ran = _pipeline(strategy, backend, memory_budget=memory_budget).run(entities)
        execution = _pipeline(
            strategy, backend, memory_budget=memory_budget
        ).submit(entities)
        streamed = list(execution.iter_matches())
        submitted = execution.result()
        assert _fingerprint(submitted) == _fingerprint(ran)
        # The stream is exactly the matching job's reduce output — ids,
        # scores, and order (reduce-task order, emission order within).
        assert _match_tuples(streamed) == _job2_output_tuples(submitted)
        assert _match_tuples(streamed) == _job2_output_tuples(ran)
        assert len(ran.matches) > 0

    @pytest.mark.parametrize("strategy", DUAL_STRATEGIES)
    @pytest.mark.parametrize("backend", list(EXECUTING_BACKENDS))
    def test_two_source_submit_equals_run(self, strategy, backend):
        r = generate_products(90, seed=22)
        s = generate_products(90, seed=23)
        ran = _pipeline(strategy, backend).run(r, s)
        execution = _pipeline(strategy, backend).submit(r, s)
        streamed = list(execution.iter_matches())
        assert _fingerprint(execution.result()) == _fingerprint(ran)
        assert _match_tuples(streamed) == _job2_output_tuples(ran)

    def test_iter_matches_replays_after_completion(self):
        entities = generate_products(150, seed=24)
        execution = _pipeline("blocksplit").submit(entities)
        execution.result()
        first = list(execution.iter_matches())
        second = list(execution.iter_matches())
        assert first == second and len(first) > 0

    def test_planned_backend_streams_nothing(self):
        entities = generate_products(150, seed=25)
        execution = _pipeline("pairrange", "planned").submit(entities)
        assert list(execution.iter_matches()) == []
        result = execution.result()
        assert result.matches is None and result.plan is not None
        assert execution.state == "succeeded"


class TestProgressAndEvents:
    def test_progress_snapshot_after_completion(self):
        entities = generate_products(180, seed=26)
        execution = _pipeline("blocksplit").submit(entities)
        result = execution.result()
        progress = execution.progress()
        assert progress.state == "succeeded"
        assert [stage.stage for stage in progress.stages] == ["bdm", "matching"]
        for stage in progress.stages:
            assert stage.finished
            assert stage.map_tasks_done == stage.map_tasks_total == 3
            assert stage.reduce_tasks_done == stage.reduce_tasks_total == 5
        assert progress.comparisons == result.total_comparisons()
        assert progress.matches == len(result.matches)
        assert progress.tasks_done == progress.tasks_total == 16
        assert progress.current_stage == "matching"

    def test_basic_strategy_has_single_stage(self):
        execution = _pipeline("basic").submit(generate_products(120, seed=27))
        execution.result()
        assert [s.stage for s in execution.progress().stages] == ["matching"]

    def test_event_stream_is_deterministic(self):
        entities = generate_products(150, seed=28)

        def trace(pipeline):
            events = []
            pipeline.submit(
                entities,
                on_event=lambda e: events.append(
                    (e.kind, e.stage, e.job, e.phase, e.task_index)
                ),
            ).result()
            return events

        serial = trace(_pipeline("pairrange"))
        again = trace(_pipeline("pairrange"))
        pooled = trace(_pipeline("pairrange", "parallel"))
        # Same backend → identical full event stream.
        assert serial == again
        # Across backends the started/finished *interleaving* may differ
        # (pools submit ahead), but each kind's own order is pinned:
        # started in submission order, finished in task-index order.
        for kind in (EventKind.TASK_STARTED, EventKind.TASK_FINISHED):
            assert [e for e in pooled if e[0] == kind] == [
                e for e in serial if e[0] == kind
            ]
        kinds = {e[0] for e in serial}
        assert kinds == {
            EventKind.JOB_STARTED,
            EventKind.JOB_FINISHED,
            EventKind.PHASE_STARTED,
            EventKind.PHASE_FINISHED,
            EventKind.TASK_STARTED,
            EventKind.TASK_FINISHED,
        }
        reduce_finishes = [
            e for e in serial
            if e[0] == EventKind.TASK_FINISHED and e[3] == "reduce"
        ]
        # 5 reduce tasks per job, two jobs, in task-index order per job.
        assert [e[4] for e in reduce_finishes] == [0, 1, 2, 3, 4] * 2

    def test_reduce_events_carry_comparison_counts(self):
        entities = generate_products(180, seed=29)
        per_task = []

        def on_event(event):
            if (
                event.kind == EventKind.TASK_FINISHED
                and event.phase == "reduce"
                and event.stage == "matching"
            ):
                per_task.append(event.data["comparisons"])

        result = (
            _pipeline("blocksplit").submit(entities, on_event=on_event).result()
        )
        assert per_task == result.reduce_comparisons()


class TestCancellation:
    def _gated_submit(self, pipeline, entities):
        """Submit with the driver held at the first matching map task."""
        reached = threading.Event()
        gate = threading.Event()

        def on_event(event):
            if (
                event.stage == "matching"
                and event.kind == EventKind.TASK_STARTED
            ):
                reached.set()
                gate.wait(timeout=30)

        execution = pipeline.submit(entities, on_event=on_event)
        assert reached.wait(timeout=30)
        return execution, gate

    @pytest.mark.parametrize("backend", list(EXECUTING_BACKENDS))
    def test_cancel_mid_run(self, backend):
        entities = generate_products(250, seed=30)
        execution, gate = self._gated_submit(
            _pipeline("blocksplit", backend), entities
        )
        assert execution.cancel() is True
        gate.set()
        with pytest.raises(PipelineCancelled):
            execution.result()
        assert execution.state == "cancelled"
        assert execution.cancelled
        with pytest.raises(PipelineCancelled):
            list(execution.iter_matches())
        # The BDM stage ran to completion; matching never finished.
        stages = {s.stage: s for s in execution.progress().stages}
        assert stages["bdm"].finished
        assert not stages["matching"].finished

    def test_cancel_after_completion_is_noop(self):
        execution = _pipeline("basic").submit(generate_products(100, seed=31))
        result = execution.result()
        assert execution.cancel() is False
        assert execution.state == "succeeded"
        assert execution.result() is result


class TestFailurePropagation:
    class ExplodingMatcher(Matcher):
        def similarity(self, e1, e2):
            raise RuntimeError("matcher exploded")

        def is_match(self, similarity):
            return False

    def test_error_reaches_result_and_stream(self):
        pipeline = ERPipeline(
            "blocksplit",
            PrefixBlocking("title"),
            self.ExplodingMatcher(),
            num_map_tasks=2,
            num_reduce_tasks=3,
        )
        execution = pipeline.submit(generate_products(80, seed=32))
        with pytest.raises(RuntimeError, match="matcher exploded"):
            execution.result()
        assert execution.state == "failed"
        with pytest.raises(RuntimeError, match="matcher exploded"):
            list(execution.iter_matches())

    def test_run_still_raises_synchronously_for_bad_requests(self):
        with pytest.raises(ValueError, match="two-source matching"):
            _pipeline("basic").run(
                generate_products(10, seed=33), generate_products(10, seed=34)
            )


class TestMatcherSnapshots:
    def test_back_to_back_runs_report_per_run_counts(self):
        entities = generate_products(150, seed=35)
        pipeline = _pipeline("blocksplit")
        first = pipeline.submit(entities)
        first_result = first.result()
        second = pipeline.submit(entities)
        second_result = second.result()
        # Per-run deltas, no manual reset_counters() needed...
        assert first.matcher_stats().comparisons == first_result.total_comparisons()
        assert second.matcher_stats().comparisons == second_result.total_comparisons()
        assert first.matcher_stats().matches_found == len(first_result.matches)
        # ...while the matcher itself keeps the documented accumulate
        # behaviour across runs.
        assert pipeline.matcher.comparisons == (
            first_result.total_comparisons() + second_result.total_comparisons()
        )

    def test_batch_kernel_runs_report_no_cache_traffic(self):
        # The stats are the two pair counters; the matcher's always-zero
        # cache_hits / cache_misses stay for the layered benchmark.
        entities = generate_products(150, seed=38)
        pipeline = _pipeline("blocksplit")
        execution = pipeline.submit(entities)
        result = execution.result()
        stats = execution.matcher_stats()
        assert stats == MatcherStats(
            comparisons=result.total_comparisons(),
            matches_found=len(result.matches),
        )
        assert stats.comparisons > 0
        assert pipeline.matcher.cache_hits == pipeline.matcher.cache_misses == 0

    def test_cacheless_matcher_reports_zero_cache_stats(self):
        # Any matcher reports the same two counters — nothing cache
        # specific, and not an error.
        execution = ERPipeline(
            "blocksplit",
            PrefixBlocking("title"),
            AlwaysMatcher(),
            num_map_tasks=2,
            num_reduce_tasks=3,
        ).submit(generate_products(80, seed=39))
        result = execution.result()
        stats = execution.matcher_stats()
        assert stats == MatcherStats(
            comparisons=result.total_comparisons(),
            matches_found=result.total_comparisons(),
        )
        assert stats.comparisons > 0

    def test_process_pool_keeps_driver_matcher_untouched(self):
        entities = generate_products(120, seed=36)
        pipeline = _pipeline("blocksplit", "parallel", executor="process", max_workers=2)
        execution = pipeline.submit(entities)
        result = execution.result()
        # Worker-side mutations never return: job counters are the
        # authoritative per-run numbers there.
        assert execution.matcher_stats().comparisons == 0
        assert result.total_comparisons() > 0


class TestAsyncSurface:
    """The asyncio bridges live on the handle, so they work on every
    backend (the dedicated ``"async"`` backend they used to be paired
    with is gone)."""

    @pytest.mark.parametrize("backend", ["serial", "parallel"])
    def test_submit_async_and_aiter(self, backend):
        entities = generate_products(150, seed=37)
        reference = _pipeline("pairrange").run(entities)

        async def main():
            pipeline = _pipeline("pairrange", backend)
            execution = await pipeline.submit_async(entities)
            streamed = [pair async for pair in execution.aiter_matches()]
            result = await execution.result_async()
            return streamed, result

        streamed, result = asyncio.run(main())
        assert _fingerprint(result) == _fingerprint(reference)
        assert _match_tuples(streamed) == _job2_output_tuples(reference)

    def test_async_backend_is_unknown(self):
        from repro.engine import get_backend

        with pytest.raises(KeyError) as excinfo:
            get_backend("async")
        message = str(excinfo.value)
        assert "unknown backend 'async'" in message
        assert "known: distributed, parallel, planned, serial" in message

    def test_parallel_runtime_rejects_bad_worker_count(self):
        from repro.engine import ParallelRuntime

        with pytest.raises(ValueError, match="max_workers"):
            ParallelRuntime(max_workers=0)
