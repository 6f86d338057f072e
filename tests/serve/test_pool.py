"""The shared worker pool: multi-job scheduling over one process pool.

Real worker processes throughout (no mocks): correctness of results
against the serial reference, per-job failure isolation, fair rotation,
and pool lifecycle.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.datasets.generators import generate_products
from repro.engine import ERPipeline
from repro.engine.pool import (
    PooledBackend,
    SharedWorkerPool,
    WorkerPoolError,
    _PoolJob,
)
from repro.er.blocking import PrefixBlocking
from repro.er.matching import ThresholdMatcher
from repro.serve import ERServer

from .matchers import ExplodingMatcher


def _pipeline(backend, matcher=None):
    return ERPipeline(
        "blocksplit",
        PrefixBlocking("title"),
        matcher if matcher is not None else ThresholdMatcher("title", 0.8),
        num_map_tasks=3,
        num_reduce_tasks=5,
        backend=backend,
    )


def _fingerprint(result):
    return (
        [(p.id1, p.id2, p.similarity) for p in result.matches],
        result.reduce_comparisons(),
        result.job2.counters.as_dict(),
        None if result.job1 is None else result.job1.counters.as_dict(),
    )


@pytest.fixture(scope="module")
def pool():
    with SharedWorkerPool(num_workers=2) as shared:
        yield shared


class TestCorrectness:
    def test_single_job_is_byte_identical_to_serial(self, pool):
        entities = generate_products(150, seed=61)
        reference = _fingerprint(_pipeline("serial").run(entities))
        pooled = _fingerprint(_pipeline(PooledBackend(pool)).run(entities))
        assert pooled == reference

    def test_concurrent_jobs_are_isolated_and_identical(self, pool):
        datasets = [generate_products(120, seed=s) for s in (62, 63, 64)]
        references = [
            _fingerprint(_pipeline("serial").run(e)) for e in datasets
        ]
        results: list = [None] * len(datasets)
        errors: list = []

        def run(i):
            try:
                results[i] = _fingerprint(
                    _pipeline(PooledBackend(pool)).run(datasets[i])
                )
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(i,))
            for i in range(len(datasets))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert results == references

    def test_streamed_matches_keep_task_order(self, pool):
        entities = generate_products(150, seed=65)
        reference = _pipeline("serial").run(entities)
        execution = _pipeline(PooledBackend(pool)).submit(entities)
        streamed = [
            (p.id1, p.id2, p.similarity) for p in execution.iter_matches()
        ]
        execution.result()
        assert streamed == [
            (r.value.id1, r.value.id2, r.value.similarity)
            for r in reference.job2.output
        ]


class TestFailureIsolation:
    def test_task_error_fails_only_its_job(self, pool):
        good_entities = generate_products(120, seed=66)
        reference = _fingerprint(_pipeline("serial").run(good_entities))
        bad = _pipeline(PooledBackend(pool), matcher=ExplodingMatcher()).submit(
            generate_products(120, seed=67)
        )
        good = _pipeline(PooledBackend(pool)).submit(good_entities)
        with pytest.raises(ValueError, match="exploding matcher detonated"):
            bad.result()
        # The neighbour job is untouched by the failure.
        assert _fingerprint(good.result()) == reference
        # And the pool stays usable for the next job.
        again = _pipeline(PooledBackend(pool)).run(good_entities)
        assert _fingerprint(again) == reference


class TestSchedulerFailure:
    def test_scheduler_exception_fails_jobs_instead_of_hanging_them(self):
        # An unexpected error inside the scheduler thread used to kill
        # it silently: every job then blocked in next_completion()
        # forever.  Inject one on the first task result.
        pool = SharedWorkerPool(num_workers=1).start()
        try:
            handle = pool._on_worker_message

            def exploding(worker_index, message):
                if message[0] == "result":
                    raise RuntimeError("injected scheduler fault")
                handle(worker_index, message)

            pool._on_worker_message = exploding
            entities = generate_products(120, seed=68)
            first = _pipeline(PooledBackend(pool)).submit(entities)
            assert first.wait(timeout=2), "the job is still blocked"
            with pytest.raises(WorkerPoolError, match="the pool scheduler died") as excinfo:
                first.result()
            assert "injected scheduler fault" in str(excinfo.value)
            assert isinstance(excinfo.value.__cause__, RuntimeError)
            # Later submissions are refused with the same named error.
            second = _pipeline(PooledBackend(pool)).submit(entities)
            assert second.wait(timeout=2), "a later job blocked"
            with pytest.raises(WorkerPoolError, match="the pool scheduler died"):
                second.result()
        finally:
            started = time.monotonic()
            pool.close()
        assert time.monotonic() - started < 5


class TestFairRotation:
    def test_round_robin_interleaves_jobs(self):
        # White-box: the dispatch order over pending jobs, no workers
        # needed — job A's queue must not starve B and C.
        pool = SharedWorkerPool(num_workers=1)
        jobs = [_PoolJob(i, f"j{i}") for i in range(3)]
        counts = (5, 2, 2)
        for job, count in zip(jobs, counts):
            pool._jobs[job.job_id] = job
            for index in range(count):
                job.pending.append(object())
            pool._rotation.append(job)
        order = []
        while True:
            assignment = pool._next_pending()
            if assignment is None:
                break
            order.append(assignment[0].job_id)
        assert order == [0, 1, 2, 0, 1, 2, 0, 0, 0]


class TestLifecycle:
    def test_unstarted_pool_refuses_jobs(self):
        pool = SharedWorkerPool(num_workers=1)
        with pytest.raises(WorkerPoolError, match="not running"):
            pool.open_job()

    def test_closed_pool_refuses_jobs(self):
        pool = SharedWorkerPool(num_workers=1).start()
        pool.close()
        with pytest.raises(WorkerPoolError, match="not running"):
            pool.open_job()

    def test_close_is_idempotent(self):
        pool = SharedWorkerPool(num_workers=1).start()
        pool.close()
        pool.close()

    @pytest.mark.parametrize("owner", [SharedWorkerPool, ERServer])
    @pytest.mark.parametrize("option, value", [
        ("num_workers", 0),
        ("task_timeout", 0),
        ("max_task_retries", -1),
        ("heartbeat_interval", 0),
        ("heartbeat_timeout", 0),
        ("max_worker_respawns", -1),
    ])
    def test_bad_options_rejected_before_anything_spawns(
        self, monkeypatch, owner, option, value
    ):
        spawned = []
        monkeypatch.setattr(
            "repro.engine.pool.subprocess.Popen",
            lambda *args, **kwargs: spawned.append(args),
        )
        with pytest.raises(ValueError, match=option):
            owner(**{option: value})
        assert spawned == []
