"""Hot-path equivalence: the optimised pipeline is byte-identical to legacy.

The comparison hot path — bit-parallel Levenshtein kernel, per-group
prepared matching scored in one batch per reduce task, and span-sliced
pair enumeration — must not be *observable*: for every registered
strategy, every backend, every record-source type, and with or without
a shuffle memory budget, the matches (ids *and* scores), all per-task
outputs, and every counter must equal what the legacy configuration
produces:

* reference two-row DP kernel (`levenshtein_similarity_bounded_reference`),
* per-pair attribute extraction (a ``similarity_fn=`` matcher: every
  pair goes through ``match``).

Packed sort/group keys are the only key path; their agreement with the
key tuples is a property test in ``tests/mapreduce/test_key_codec.py``.
"""

from __future__ import annotations

import pytest

from repro.core.strategy import STRATEGIES
from repro.datasets.generators import generate_products
from repro.datasets.loaders import save_entities_csv
from repro.engine import ERPipeline
from repro.er.blocking import PrefixBlocking
from repro.er.matching import ThresholdMatcher
from repro.er.similarity import levenshtein_similarity_bounded_reference
from repro.io import CsvShardSource, GeneratorSource, InMemorySource, shard_bounds

ALL_STRATEGIES = sorted(STRATEGIES)
DUAL_STRATEGIES = [
    name for name in ALL_STRATEGIES if STRATEGIES[name]().requires_bdm
]
NUM_ENTITIES = 180
NUM_SHARDS = 3
NUM_REDUCE = 5
THRESHOLD = 0.8


class _ReferenceSimilarity:
    """Picklable stand-in for the pre-optimisation scoring function."""

    def __init__(self, threshold: float):
        self.threshold = threshold

    def __call__(self, a: str, b: str) -> float:
        return levenshtein_similarity_bounded_reference(a, b, self.threshold)


def _matcher(legacy: bool) -> ThresholdMatcher:
    if legacy:
        return ThresholdMatcher("title", THRESHOLD, _ReferenceSimilarity(THRESHOLD))
    return ThresholdMatcher("title", THRESHOLD)


def _run(strategy, *, legacy, backend="serial", memory_budget=None, source=None,
         entities=None, dual=False):
    pipeline = ERPipeline(
        strategy,
        PrefixBlocking("title"),
        _matcher(legacy),
        num_map_tasks=NUM_SHARDS,
        num_reduce_tasks=NUM_REDUCE,
        backend=backend,
        memory_budget=memory_budget,
    )
    if dual:
        half = len(entities) // 2
        return pipeline.run(entities[:half], entities[half:])
    return pipeline.run(source if source is not None else entities)


def _job_fingerprint(job_result):
    if job_result is None:
        return None
    return (
        job_result.job_name,
        tuple(tuple(task.output) for task in job_result.map_tasks),
        tuple(tuple(task.output) for task in job_result.reduce_tasks),
        tuple(task.counters.as_dict() for task in job_result.map_tasks),
        tuple(task.counters.as_dict() for task in job_result.reduce_tasks),
        job_result.counters.as_dict(),
    )


def _fingerprint(result):
    matches = None
    if result.matches is not None:
        # Pair ids *and* similarity scores — matches must be
        # byte-identical, not merely set-equal.
        matches = tuple((p.id1, p.id2, p.similarity) for p in result.matches)
    return (
        result.strategy,
        matches,
        _job_fingerprint(result.job1),
        _job_fingerprint(result.job2),
        tuple(result.reduce_comparisons()),
        result.map_output_kv(),
    )


@pytest.fixture(scope="module")
def entities():
    return generate_products(NUM_ENTITIES, seed=83)


@pytest.fixture(scope="module")
def csv_path(entities, tmp_path_factory):
    path = tmp_path_factory.mktemp("hotpath") / "entities.csv"
    save_entities_csv(entities, path)
    return path


class TestStrategyBackendBudgetMatrix:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("backend", ["serial", "parallel"])
    @pytest.mark.parametrize("memory_budget", [None, 64])
    def test_executing_backends(self, entities, strategy, backend, memory_budget):
        new = _run(strategy, legacy=False, backend=backend,
                   memory_budget=memory_budget, entities=entities)
        old = _run(strategy, legacy=True, backend=backend,
                   memory_budget=memory_budget, entities=entities)
        assert _fingerprint(new) == _fingerprint(old)
        assert new.matches.pair_ids  # non-degenerate workload

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_planned_backend(self, entities, strategy):
        """Plans derive from BDM counts — invariant under the hot path."""
        new = _run(strategy, legacy=False, backend="planned", entities=entities)
        old = _run(strategy, legacy=True, backend="planned", entities=entities)
        assert new.plan == old.plan
        assert new.bdm_plan == old.bdm_plan
        assert new.reduce_comparisons() == old.reduce_comparisons()
        assert new.execution_time == old.execution_time
        # And the planned workload equals what execution measures.
        executed = _run(strategy, legacy=False, entities=entities)
        assert sorted(new.reduce_comparisons()) == sorted(
            executed.reduce_comparisons()
        )


class TestRecordSourceMatrix:
    def _sources(self, entities, csv_path):
        bounds = shard_bounds(len(entities), NUM_SHARDS)
        return {
            "in-memory": lambda: InMemorySource(entities, num_shards=NUM_SHARDS),
            "csv-shards": lambda: CsvShardSource(csv_path, num_shards=NUM_SHARDS),
            "generator": lambda: GeneratorSource(
                [(lambda lo=lo, hi=hi: iter(entities[lo:hi])) for lo, hi in bounds]
            ),
        }

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("source_kind", ["in-memory", "csv-shards", "generator"])
    def test_all_sources(self, entities, csv_path, strategy, source_kind):
        make = self._sources(entities, csv_path)[source_kind]
        new = _run(strategy, legacy=False, source=make(), entities=entities)
        old = _run(strategy, legacy=True, source=make(), entities=entities)
        assert _fingerprint(new) == _fingerprint(old)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_source_with_budget(self, entities, strategy):
        source = InMemorySource(entities, num_shards=NUM_SHARDS)
        new = _run(strategy, legacy=False, source=source, memory_budget=48,
                   entities=entities)
        old = _run(strategy, legacy=True, source=source, memory_budget=48,
                   entities=entities)
        assert _fingerprint(new) == _fingerprint(old)


class TestTwoSourceMatrix:
    @pytest.mark.parametrize("strategy", DUAL_STRATEGIES)
    @pytest.mark.parametrize("memory_budget", [None, 64])
    def test_two_source(self, entities, strategy, memory_budget):
        new = _run(strategy, legacy=False, memory_budget=memory_budget,
                   entities=entities, dual=True)
        old = _run(strategy, legacy=True, memory_budget=memory_budget,
                   entities=entities, dual=True)
        assert _fingerprint(new) == _fingerprint(old)
        assert new.matches.pair_ids

