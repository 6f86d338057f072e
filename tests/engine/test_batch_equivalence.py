"""Kernel matcher == per-pair matcher, proven over the whole matrix.

The batch kernel behind ``ThresholdMatcher.match_batch`` must be
*unobservable*: for every strategy, executing backend, record-source
type (including memory-mapped columnar shards), with and without a
shuffle memory budget, for one-source, two-source and incremental
(delta) runs, and on both the numpy and the pure-stdlib kernel path,
the matches (ids *and* scores), all per-task outputs, and every counter
must equal what the per-pair matcher produces through the same jobs —
a ``similarity_fn=`` matcher, which the base ``match_batch`` sends
through ``match`` once per pair in the order of the paper's streaming
reduce loops.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro.er.batch_kernel as bk
from repro.core.strategy import STRATEGIES
from repro.datasets.generators import generate_products
from repro.datasets.loaders import save_entities_csv
from repro.engine import ERPipeline
from repro.engine.incremental import CorpusState
from repro.er.blocking import PrefixBlocking
from repro.er.matching import Matcher, ThresholdMatcher
from repro.io import (
    ColumnarShardSource,
    CsvShardSource,
    GeneratorSource,
    InMemorySource,
    shard_bounds,
    write_columnar,
)
from repro.mapreduce.types import make_partitions

from ..test_hotpath_equivalence import _fingerprint, _ReferenceSimilarity

ALL_STRATEGIES = sorted(STRATEGIES)
DUAL_STRATEGIES = [
    name for name in ALL_STRATEGIES if STRATEGIES[name]().requires_bdm
]
NUM_ENTITIES = 150
NUM_SHARDS = 3
NUM_REDUCE = 5
THRESHOLD = 0.8
BACKENDS = {
    "serial": {},
    "parallel": {"max_workers": 2, "executor": "thread"},
    "distributed": {"num_workers": 2},
}


def _pipeline(strategy, *, per_pair=False, backend="serial", memory_budget=None):
    options = BACKENDS.get(backend, {})
    similarity_fn = _ReferenceSimilarity(THRESHOLD) if per_pair else None
    return ERPipeline(
        strategy,
        PrefixBlocking("title"),
        ThresholdMatcher("title", THRESHOLD, similarity_fn),
        num_map_tasks=NUM_SHARDS,
        num_reduce_tasks=NUM_REDUCE,
        memory_budget=memory_budget,
    ).with_backend(backend, **options)


def _run(strategy, *, per_pair=False, backend="serial", memory_budget=None,
         source=None, entities=None, dual=False):
    pipeline = _pipeline(
        strategy, per_pair=per_pair, backend=backend, memory_budget=memory_budget
    )
    if dual:
        half = len(entities) // 2
        return pipeline.run(entities[:half], entities[half:])
    return pipeline.run(source if source is not None else entities)


@pytest.fixture(scope="module")
def entities():
    return generate_products(NUM_ENTITIES, seed=97)


@pytest.fixture(scope="module")
def csv_path(entities, tmp_path_factory):
    path = tmp_path_factory.mktemp("batchmatrix") / "entities.csv"
    save_entities_csv(entities, path)
    return path


@pytest.fixture(scope="module")
def columnar_dir(entities, tmp_path_factory):
    out = tmp_path_factory.mktemp("batchmatrix") / "cols"
    return write_columnar(InMemorySource(entities, num_shards=NUM_SHARDS), out)


@pytest.fixture
def columnar(columnar_dir):
    """Opens columnar sources over ``columnar_dir``; closes them after
    the test, so no memory-mapped column file outlives it."""
    opened = []

    def open_source():
        opened.append(ColumnarShardSource(columnar_dir))
        return opened[-1]

    yield open_source
    for source in opened:
        source.close()


class TestBackendBudgetMatrix:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("backend", ["serial", "parallel"])
    @pytest.mark.parametrize("memory_budget", [None, 64])
    def test_local_backends(self, entities, strategy, backend, memory_budget):
        batched = _run(strategy, backend=backend,
                       memory_budget=memory_budget, entities=entities)
        per_pair = _run(strategy, per_pair=True, backend=backend,
                      memory_budget=memory_budget, entities=entities)
        assert _fingerprint(batched) == _fingerprint(per_pair)
        assert batched.matches.pair_ids  # non-degenerate workload

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_distributed_backend(self, entities, strategy):
        """The matcher rides inside the pickled job to worker processes."""
        batched = _run(strategy, backend="distributed", entities=entities)
        per_pair = _run(strategy, per_pair=True, backend="distributed",
                      entities=entities)
        assert _fingerprint(batched) == _fingerprint(per_pair)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_planned_backend_ignores_matcher(self, entities, strategy):
        on = _run(strategy, backend="planned", entities=entities)
        off = _run(strategy, per_pair=True, backend="planned", entities=entities)
        assert on.plan == off.plan
        assert on.reduce_comparisons() == off.reduce_comparisons()


class TestRecordSourceMatrix:
    def _sources(self, entities, csv_path, columnar):
        bounds = shard_bounds(len(entities), NUM_SHARDS)
        return {
            "in-memory": lambda: InMemorySource(entities, num_shards=NUM_SHARDS),
            "csv-shards": lambda: CsvShardSource(csv_path, num_shards=NUM_SHARDS),
            "columnar": columnar,
            "generator": lambda: GeneratorSource(
                [(lambda lo=lo, hi=hi: iter(entities[lo:hi])) for lo, hi in bounds]
            ),
        }

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize(
        "source_kind", ["in-memory", "csv-shards", "columnar", "generator"]
    )
    def test_all_sources(self, entities, csv_path, columnar, strategy,
                         source_kind):
        make = self._sources(entities, csv_path, columnar)[source_kind]
        batched = _run(strategy, source=make(), entities=entities)
        per_pair = _run(strategy, per_pair=True, source=make(), entities=entities)
        assert _fingerprint(batched) == _fingerprint(per_pair)

    def test_columnar_equals_csv_run(self, entities, csv_path, columnar):
        """Same shard count ⇒ a columnar run is byte-identical to CSV."""
        via_columnar = _run("blocksplit", source=columnar(), entities=entities)
        via_csv = _run("blocksplit",
                       source=CsvShardSource(csv_path, num_shards=NUM_SHARDS),
                       entities=entities)
        assert _fingerprint(via_columnar) == _fingerprint(via_csv)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_columnar_with_budget(self, entities, columnar, strategy):
        batched = _run(strategy, memory_budget=48, source=columnar(),
                       entities=entities)
        per_pair = _run(strategy, per_pair=True, memory_budget=48,
                        source=columnar(), entities=entities)
        assert _fingerprint(batched) == _fingerprint(per_pair)


class TestTwoSourceAndDelta:
    @pytest.mark.parametrize("strategy", DUAL_STRATEGIES)
    @pytest.mark.parametrize("memory_budget", [None, 64])
    def test_two_source(self, entities, strategy, memory_budget):
        batched = _run(strategy, memory_budget=memory_budget,
                       entities=entities, dual=True)
        per_pair = _run(strategy, per_pair=True, memory_budget=memory_budget,
                      entities=entities, dual=True)
        assert _fingerprint(batched) == _fingerprint(per_pair)
        assert batched.matches.pair_ids

    def _delta_result(self, entities, strategy, *, per_pair=False,
                      backend="serial"):
        old, new = entities[:100], entities[100:]
        pipeline = _pipeline(strategy, per_pair=per_pair, backend=backend)
        old_partitions = make_partitions(old, NUM_SHARDS)
        state = CorpusState.empty().advanced(
            pipeline.run(old_partitions), old_partitions, pipeline.blocking
        )
        return pipeline.run_delta(make_partitions(new, NUM_SHARDS), state)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_delta(self, entities, strategy):
        batched = self._delta_result(entities, strategy)
        per_pair = self._delta_result(entities, strategy, per_pair=True)
        assert _fingerprint(batched) == _fingerprint(per_pair)

    def test_delta_distributed(self, entities):
        batched = self._delta_result(entities, "blocksplit", backend="distributed")
        per_pair = self._delta_result(
            entities, "blocksplit", per_pair=True, backend="distributed"
        )
        assert _fingerprint(batched) == _fingerprint(per_pair)


class _PerPairPreparedMatcher(ThresholdMatcher):
    """Every pair of a batch through ``match_prepared``, one call each."""

    def match_batch(self, prepared, pairs):
        return Matcher.match_batch(self, prepared, pairs)


class TestMatchPreparedPipeline:
    """Pipeline level: the kernel run equals a run that scores every
    pair through ``ThresholdMatcher.match_prepared`` — the per-pair
    oracle — in matches, scores, per-task outputs and job counters, on
    both kernel paths."""

    def _run_with(self, entities, strategy, matcher_class):
        pipeline = ERPipeline(
            strategy,
            PrefixBlocking("title"),
            matcher_class("title", THRESHOLD),
            num_map_tasks=NUM_SHARDS,
            num_reduce_tasks=NUM_REDUCE,
        )
        return pipeline.run(entities), pipeline.matcher

    def _check(self, entities, strategy):
        batched, batch_matcher = self._run_with(
            entities, strategy, ThresholdMatcher
        )
        per_pair, oracle = self._run_with(
            entities, strategy, _PerPairPreparedMatcher
        )
        assert _fingerprint(batched) == _fingerprint(per_pair)
        assert batched.matches.pair_ids
        assert (batch_matcher.comparisons, batch_matcher.matches_found) == (
            oracle.comparisons, oracle.matches_found
        )

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_kernel_matches_match_prepared(self, entities, strategy):
        self._check(entities, strategy)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_stdlib_kernel_matches_match_prepared(
        self, entities, strategy, monkeypatch
    ):
        monkeypatch.setattr(bk, "_numpy", None)
        self._check(entities, strategy)


class TestForcedStdlibEnv:
    """REPRO_ER_FORCE_STDLIB=1 at import time must yield the same
    matches as the in-process numpy run — checked through a real
    subprocess, the way a numpy-less deployment would see it."""

    SCRIPT = """
from repro.datasets.generators import generate_products
from repro.engine import ERPipeline
from repro.er.blocking import PrefixBlocking
from repro.er.matching import Matcher, ThresholdMatcher

entities = generate_products(150, seed=97)
pipeline = ERPipeline(
    "blocksplit",
    PrefixBlocking("title"),
    ThresholdMatcher("title", 0.8),
    num_map_tasks=3,
    num_reduce_tasks=5,
)
result = pipeline.run(entities)
for pair in sorted(result.matches.pair_ids):
    print(pair)
print("comparisons", result.total_comparisons())
print("matches", len(result.matches.pair_ids))
"""

    def _run(self, force_stdlib):
        env = dict(os.environ)
        env.pop("REPRO_ER_FORCE_STDLIB", None)
        env["PYTHONHASHSEED"] = "0"
        if force_stdlib:
            env["REPRO_ER_FORCE_STDLIB"] = "1"
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return proc.stdout

    def test_forced_stdlib_equals_default(self):
        assert self._run(True) == self._run(False)


class TestStdlibFallback:
    """The numpy-less kernel path (serial/parallel only: worker
    processes re-import the module and would resolve numpy again)."""

    @pytest.fixture(autouse=True)
    def _force_stdlib(self, monkeypatch):
        monkeypatch.setattr(bk, "_numpy", None)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("backend", ["serial", "parallel"])
    def test_stdlib_matches_per_pair(self, entities, strategy, backend):
        batched = _run(strategy, backend=backend, entities=entities)
        per_pair = _run(strategy, per_pair=True, backend=backend,
                      entities=entities)
        assert _fingerprint(batched) == _fingerprint(per_pair)

    @pytest.mark.parametrize("strategy", DUAL_STRATEGIES)
    def test_stdlib_two_source(self, entities, strategy):
        batched = _run(strategy, entities=entities, dual=True)
        per_pair = _run(strategy, per_pair=True, entities=entities, dual=True)
        assert _fingerprint(batched) == _fingerprint(per_pair)
