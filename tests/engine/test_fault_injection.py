"""Fault injection: the worker pool under real worker failures.

Workers are armed through the :mod:`repro.worker` environment hooks —
``REPRO_WORKER_FAULT=crash:N|hang:N`` plus
``REPRO_WORKER_FAULT_WORKERS`` — so the faults are genuine process
deaths (``os._exit`` mid-protocol) and genuine hangs (a task unit that
never returns while heartbeats keep flowing), not mocks.

Every scenario runs twice over the one scheduler
(:class:`~repro.engine.pool.SharedWorkerPool`): through
``backend="distributed"`` (one job on a pool of its own) and through
:class:`~repro.engine.pool.PooledBackend` on a pool that a second,
healthy job is using at the same time.

What must hold:

* a crashed worker's task is requeued to a survivor and the final
  result — matches, job-level and per-task counters — is byte-identical
  to the serial reference: nothing lost, nothing double-counted;
* the retry budget is honored: with ``max_task_retries=0`` the first
  loss fails the job that owned the task with a clean
  :class:`DistributedExecutionError` — and, on a shared pool, only
  that job: its neighbour finishes byte-identical to serial;
* a hung worker heartbeats forever, so only the per-task timeout can
  catch it — and does, after which the job completes identically;
* losing *every* worker fails every job cleanly instead of deadlocking.
"""

from __future__ import annotations

import pytest

from repro.datasets.generators import generate_products
from repro.engine import DistributedExecutionError, ERPipeline
from repro.engine.pool import PooledBackend, SharedWorkerPool
from repro.er.blocking import PrefixBlocking
from repro.er.matching import ThresholdMatcher
from repro.worker import ENV_FAULT, ENV_FAULT_WORKERS, FaultInjector

WORKERS = 2


def _pipeline(strategy="blocksplit", backend="serial", **options):
    if backend == "distributed":
        options.setdefault("num_workers", WORKERS)
    return ERPipeline(
        strategy,
        PrefixBlocking("title"),
        ThresholdMatcher("title", 0.8),
        num_map_tasks=3,
        num_reduce_tasks=5,
    ).with_backend(backend, **options)


def _fingerprint(result):
    return (
        [(pair.id1, pair.id2, pair.similarity) for pair in result.matches],
        result.reduce_comparisons(),
        result.job2.counters.as_dict(),
        None if result.job1 is None else result.job1.counters.as_dict(),
        tuple(task.counters.as_dict() for task in result.job2.reduce_tasks),
    )


def _arm(monkeypatch, fault, workers="0"):
    monkeypatch.setenv(ENV_FAULT, fault)
    monkeypatch.setenv(ENV_FAULT_WORKERS, workers)


def _datasets(num, seed):
    """The job under test and its neighbour: different entities, so a
    result delivered to the wrong job could not go unnoticed."""
    return [generate_products(num, seed=seed), generate_products(num, seed=seed + 100)]


@pytest.fixture(params=["distributed", "shared-pool"])
def submit_jobs(request):
    """``submit_jobs(datasets, **options)`` starts the jobs under the
    armed fault and returns their running executions.

    ``distributed`` runs the first dataset on the distributed backend
    (one job per pool is all it does); ``shared-pool`` runs every
    dataset as a concurrent job on one :class:`SharedWorkerPool`.
    ``options`` are the pool's, spelled identically on both.
    """
    pools = []

    def submit(datasets, **options):
        if request.param == "distributed":
            pipeline = _pipeline(backend="distributed", **options)
            return [pipeline.submit(datasets[0])]
        options.setdefault("max_worker_respawns", 0)
        pool = SharedWorkerPool(num_workers=WORKERS, **options).start()
        pools.append(pool)
        return [
            _pipeline(backend=PooledBackend(pool)).submit(entities)
            for entities in datasets
        ]

    yield submit
    for pool in pools:
        pool.close()


def _references(datasets, jobs):
    return [_fingerprint(_pipeline().run(e)) for e in datasets[:len(jobs)]]


def _outcomes(jobs):
    """Per job: its fingerprint, or the error it failed with."""
    outcomes = []
    for job in jobs:
        try:
            outcomes.append(_fingerprint(job.result(timeout=120)))
        except DistributedExecutionError as exc:
            outcomes.append(exc)
    return outcomes


def _only_failure(outcomes, references):
    """The error of the one job that failed — after checking that it
    *is* one job and every other finished byte-identical to serial."""
    failed = [
        index for index, outcome in enumerate(outcomes)
        if isinstance(outcome, DistributedExecutionError)
    ]
    assert len(failed) == 1, outcomes
    for index, outcome in enumerate(outcomes):
        if index != failed[0]:
            assert outcome == references[index]
    return outcomes[failed[0]]


class TestCrashRequeue:
    # Worker 0's 2nd task lands in the BDM job, its 6th in the matching
    # job — the requeue path is exercised in both workflow stages.
    @pytest.mark.parametrize("crash_at", [2, 6])
    def test_requeue_loses_and_duplicates_nothing(
        self, monkeypatch, submit_jobs, crash_at
    ):
        datasets = _datasets(180, seed=71)
        _arm(monkeypatch, f"crash:{crash_at}")
        jobs = submit_jobs(datasets)
        assert _outcomes(jobs) == _references(datasets, jobs)

    def test_streamed_matches_survive_a_crash_exactly_once(
        self, monkeypatch, submit_jobs
    ):
        datasets = _datasets(180, seed=72)
        _arm(monkeypatch, "crash:4")
        jobs = submit_jobs(datasets)
        for entities, execution in zip(datasets, jobs):
            reference = _pipeline().run(entities)
            streamed = [
                (p.id1, p.id2, p.similarity) for p in execution.iter_matches()
            ]
            execution.result()
            # Exactly the serial matching job's reduce output: no pair
            # dropped with the dead worker, none emitted twice by a retry.
            assert streamed == [
                (r.value.id1, r.value.id2, r.value.similarity)
                for r in reference.job2.output
            ]
            assert len(streamed) == len(set(streamed)) > 0

    def test_losing_every_worker_fails_cleanly(self, monkeypatch, submit_jobs):
        _arm(monkeypatch, "crash:1", workers="all")
        for outcome in _outcomes(submit_jobs(_datasets(120, seed=73))):
            with pytest.raises(
                DistributedExecutionError,
                match="no workers survive|all workers were lost",
            ):
                raise outcome


class TestRetryBudget:
    def test_retry_bound_is_honored(self, monkeypatch, submit_jobs):
        datasets = _datasets(120, seed=74)
        _arm(monkeypatch, "crash:1")
        jobs = submit_jobs(datasets, max_task_retries=0)
        with pytest.raises(
            DistributedExecutionError,
            match=r"exhausted its retry budget \(max_task_retries=0\)",
        ) as info:
            raise _only_failure(_outcomes(jobs), _references(datasets, jobs))
        assert "failed 1 time(s)" in str(info.value)

    def test_default_budget_absorbs_a_single_crash(self, monkeypatch, submit_jobs):
        datasets = _datasets(120, seed=75)
        _arm(monkeypatch, "crash:1")
        jobs = submit_jobs(datasets)
        assert _outcomes(jobs) == _references(datasets, jobs)


class TestHungWorker:
    def test_hang_trips_the_task_timeout_and_requeues(
        self, monkeypatch, submit_jobs
    ):
        datasets = _datasets(180, seed=76)
        # The hung worker keeps heartbeating (heartbeat_timeout would
        # never fire); only the per-task deadline can unstick the job.
        _arm(monkeypatch, "hang:3")
        jobs = submit_jobs(datasets, task_timeout=1.5)
        assert _outcomes(jobs) == _references(datasets, jobs)

    def test_hang_plus_exhausted_budget_fails_cleanly(
        self, monkeypatch, submit_jobs
    ):
        datasets = _datasets(120, seed=77)
        _arm(monkeypatch, "hang:2")
        jobs = submit_jobs(datasets, task_timeout=1.0, max_task_retries=0)
        with pytest.raises(
            DistributedExecutionError, match="exceeded task_timeout"
        ):
            raise _only_failure(_outcomes(jobs), _references(datasets, jobs))


class TestWorkerRespawn:
    """Worker replacement under ``max_worker_respawns`` (the service
    pool's healing knob, surfaced on the distributed backend)."""

    def test_losing_every_initial_worker_heals_within_budget(
        self, monkeypatch, submit_jobs
    ):
        datasets = _datasets(180, seed=78)
        # Both original workers die at their first task.  Replacements
        # get fresh indices (>= the initial pool size), so the "0,1"
        # selection never re-arms them: the jobs must finish on the
        # respawned pool, byte-identical to serial.
        _arm(monkeypatch, "crash:1", workers="0,1")
        jobs = submit_jobs(datasets, max_worker_respawns=4)
        assert _outcomes(jobs) == _references(datasets, jobs)

    def test_exhausted_respawn_budget_fails_cleanly(self, monkeypatch, submit_jobs):
        # Every worker — respawned ones included — crashes immediately;
        # once the budget is gone the pool is empty and every job must
        # fail with a clean error instead of deadlocking.
        _arm(monkeypatch, "crash:1", workers="all")
        jobs = submit_jobs(_datasets(120, seed=79), max_worker_respawns=2)
        for outcome in _outcomes(jobs):
            with pytest.raises(
                DistributedExecutionError,
                match="no workers survive|all workers were lost|"
                      "exhausted its retry budget",
            ):
                raise outcome

    def test_negative_budget_rejected(self):
        entities = generate_products(20, seed=80)
        with pytest.raises(ValueError, match="max_worker_respawns"):
            _pipeline(backend="distributed", max_worker_respawns=-1).run(
                entities
            )


class TestFaultInjectorHook:
    """The env-hook parser itself (driven in-process, no sockets)."""

    def test_unarmed_by_default(self):
        assert FaultInjector(0, env={}).mode is None

    def test_armed_for_selected_worker_only(self):
        env = {ENV_FAULT: "crash:3", ENV_FAULT_WORKERS: "1,2"}
        assert FaultInjector(0, env=env).mode is None
        assert FaultInjector(1, env=env).mode == "crash"
        assert FaultInjector(2, env=env).at_task == 3

    def test_all_selects_every_worker(self):
        env = {ENV_FAULT: "hang:1", ENV_FAULT_WORKERS: "all"}
        for index in range(4):
            assert FaultInjector(index, env=env).mode == "hang"

    def test_default_selection_is_worker_zero(self):
        env = {ENV_FAULT: "crash:1"}
        assert FaultInjector(0, env=env).mode == "crash"
        assert FaultInjector(1, env=env).mode is None

    @pytest.mark.parametrize("spec", ["boom", "crash", "crash:0", "crash:x", "x:1"])
    def test_bad_specs_are_rejected_loudly(self, spec):
        with pytest.raises(SystemExit):
            FaultInjector(0, env={ENV_FAULT: spec})

    def test_bad_worker_selection_rejected(self):
        with pytest.raises(SystemExit):
            FaultInjector(
                0, env={ENV_FAULT: "crash:1", ENV_FAULT_WORKERS: "zero"}
            )

    def test_untripped_task_numbers_pass_through(self):
        injector = FaultInjector(0, env={ENV_FAULT: "crash:5"})
        for task_number in (1, 2, 3, 4, 6):
            injector.maybe_trip(task_number)  # must not exit
