"""The repo's perf trajectory harness: measured before/after hot-path numbers.

Runs the comparison hot path both ways — the legacy configuration
(reference two-row DP kernel, per-pair attribute extraction, tuple
shuffle keys) against the optimised one (Myers bit-parallel kernel,
prepared matchers with LRU memoisation, packed-int keys), and the
scalar per-pair reduce loops against the columnar batch kernel
(``batch_kernel=True``, micro and end-to-end) and the per-distinct
scalar Myers loop against the column-batched Myers recurrence
(``micro_myers_batch`` plus a near-duplicate-heavy end-to-end leg) —
plus columnar-shard loading vs CSV parsing and the fig-13/fig-14
analytic scalability sweeps, and writes everything to a
``BENCH_<n>.json`` at the repo root.  Each PR that claims a hot-path
win appends a new ``BENCH_<n>.json``; diffing them is the perf
trajectory this repository tracks.

Usage::

    PYTHONPATH=src python benchmarks/perf_harness.py             # full run
    PYTHONPATH=src python benchmarks/perf_harness.py --small     # CI smoke
    PYTHONPATH=src python benchmarks/perf_harness.py --assert-speedups

The exit status reflects *functional* health only: non-zero when the
before and after configurations disagree on matches or counters (they
must be byte-identical), never because a timing regressed — except
under ``--assert-speedups``, which additionally enforces the headline
targets (≥3× similarity microbench, ≥2× batch-kernel microbench,
≥2× batched-Myers microbench, ≥1.5× end-to-end both ways) for local
verification.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.datasets.generators import generate_products  # noqa: E402
from repro.datasets.skew import zipf_block_sizes  # noqa: E402
from repro.engine import ERPipeline  # noqa: E402
from repro.er.blocking import PrefixBlocking  # noqa: E402
from repro.er.entity import Entity  # noqa: E402
from repro.er.matching import ThresholdMatcher  # noqa: E402
from repro.er.similarity import (  # noqa: E402
    levenshtein_similarity,
    levenshtein_similarity_bounded,
    levenshtein_similarity_bounded_reference,
    similarity_at_least,
)
from repro.mapreduce.shuffle import shuffle_bucket  # noqa: E402
from repro.mapreduce.types import KeyValue, packed_keys  # noqa: E402

BENCH_NUMBER = 10
SEED = 20260727
THRESHOLD = 0.8


# ---------------------------------------------------------------------------
# Timing helpers
# ---------------------------------------------------------------------------


def best_of(fn, repeats: int) -> float:
    """Best wall-clock seconds over ``repeats`` runs (noise-resistant)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure(fn, repeats: int) -> dict:
    """Warm-up + median-of-N timing for IO-touching workloads.

    ``best_of`` is right for CPU-bound loops, but sections that hit the
    filesystem (spill files, shard loading) see one-sided first-touch
    noise: the first run pays cold caches and file creation, and a
    single lucky/unlucky run can swing a before/after ratio either way
    (BENCH_3 recorded a spurious 0.90× on the external-shuffle section
    from exactly this).  One untimed warm-up absorbs the first-touch
    cost, the median of ``repeats`` timed runs resists stragglers in
    both directions, and the recorded spread ``(max − min) / median``
    says how trustworthy the number is.  Each timed run executes with
    the cyclic GC off after an untimed collect — allocation-heavy
    loads (tens of thousands of entities per pass) otherwise land a
    generational collection inside a random subset of runs, which is
    where BENCH_8's 0.64 ``after_spread`` on the mmap loads came from.
    """
    import gc

    fn()  # warm-up: first-touch IO (file creation, page cache) untimed
    times = []
    for _ in range(max(3, repeats)):
        gc.collect()  # untimed: start every run from the same GC state
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
    times.sort()
    median = times[len(times) // 2]
    return {
        "median_s": median,
        "best_s": times[0],
        "spread": (times[-1] - times[0]) / median if median else 0.0,
        "runs": len(times),
    }


def section(title: str) -> None:
    print(f"\n{'-' * 64}\n{title}\n{'-' * 64}")


# ---------------------------------------------------------------------------
# Micro: similarity kernels
# ---------------------------------------------------------------------------


def title_pairs(n: int, seed: int = 3) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    words = ["panasonic", "lumix", "camera", "digital", "zoom", "kit",
             "sony", "alpha", "lens", "black", "silver", "battery"]
    pairs = []
    for _ in range(n):
        a = " ".join(rng.choices(words, k=4))
        if rng.random() < 0.5:
            # Near-duplicate: perturb a few characters.
            chars = list(a)
            for _ in range(rng.randrange(1, 5)):
                chars[rng.randrange(len(chars))] = rng.choice("abcdexyz ")
            b = "".join(chars)
        else:
            b = " ".join(rng.choices(words, k=4))
        pairs.append((a, b))
    return pairs


def bench_micro_similarity(small: bool) -> dict:
    pairs = title_pairs(120 if small else 400)
    repeats = 2 if small else 5

    def run_reference():
        return sum(
            levenshtein_similarity_bounded_reference(a, b, THRESHOLD)
            for a, b in pairs
        )

    def run_kernel():
        return sum(
            levenshtein_similarity_bounded(a, b, THRESHOLD) for a, b in pairs
        )

    assert abs(run_reference() - run_kernel()) < 1e-12  # same scores
    before = best_of(run_reference, repeats)
    after = best_of(run_kernel, repeats)

    def run_unbounded():
        return sum(levenshtein_similarity(a, b) for a, b in pairs)

    def run_boolean():
        return sum(similarity_at_least(a, b, THRESHOLD) for a, b in pairs)

    unbounded = best_of(run_unbounded, repeats)
    boolean = best_of(run_boolean, repeats)
    result = {
        "pairs": len(pairs),
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
        "unbounded_after_s": unbounded,
        "similarity_at_least_s": boolean,
    }
    print(f"bounded similarity  before={before * 1e3:8.2f}ms  "
          f"after={after * 1e3:8.2f}ms  speedup={result['speedup']:.2f}x")
    return result


# ---------------------------------------------------------------------------
# Micro: prepared matcher (per-group extraction + memoisation)
# ---------------------------------------------------------------------------


def bench_micro_matcher(small: bool) -> dict:
    # A skewed reduce group, the workload the prepared path targets:
    # dirty catalogs repeat listings, so many entities carry *exactly*
    # the same title (plus corrupted near-duplicates around them).
    # Interning turns repeated-value comparisons into pointer checks
    # and the LRU memo covers repeated near-duplicate pairs; the legacy
    # path re-extracts and re-scores every single pair.
    n = 80 if small else 250
    rng = random.Random(SEED % 997)
    base = [title for title, _b in title_pairs(max(12, n // 8), seed=5)]
    titles = []
    for i in range(n):
        if rng.random() < 0.6:
            titles.append(rng.choice(base))  # exact repeat
        else:
            chars = list(rng.choice(base))
            chars[rng.randrange(len(chars))] = rng.choice("abcdxyz ")
            titles.append("".join(chars))  # near-duplicate
    entities = [Entity(f"e{i}", {"title": t}) for i, t in enumerate(titles)]
    repeats = 2 if small else 5

    def run_legacy():
        matcher = ThresholdMatcher("title", THRESHOLD, prepared=False, memoize=0)
        hits = 0
        for i, e1 in enumerate(entities):
            for e2 in entities[i + 1:]:
                if matcher.match(e1, e2) is not None:
                    hits += 1
        return hits

    def run_prepared():
        matcher = ThresholdMatcher("title", THRESHOLD)
        prepared = [matcher.prepare(e) for e in entities]
        hits = 0
        for i, p1 in enumerate(prepared):
            for p2 in prepared[i + 1:]:
                if matcher.match_prepared(p1, p2) is not None:
                    hits += 1
        return hits

    assert run_legacy() == run_prepared()  # same matches
    before = best_of(run_legacy, repeats)
    after = best_of(run_prepared, repeats)
    result = {
        "entities": n,
        "pairs": n * (n - 1) // 2,
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
    }
    print(f"prepared matcher    before={before * 1e3:8.2f}ms  "
          f"after={after * 1e3:8.2f}ms  speedup={result['speedup']:.2f}x")
    return result


# ---------------------------------------------------------------------------
# Micro: packed-key shuffle
# ---------------------------------------------------------------------------


def bench_micro_shuffle(small: bool) -> dict:
    from repro.core.bdm import analytic_bdm_from_block_sizes
    from repro.core.keys import PairRangeKey
    from repro.core.pairrange import PairRangeJob
    from repro.mapreduce.external_shuffle import ExternalShuffle

    # Bucket sizes matter: packing pays one encode per record to save
    # ~log2(n) comparison walks per record, so it amortises on the
    # tens-of-thousands-record buckets real reduce tasks see.
    rng = random.Random(SEED)
    num_blocks = 40 if small else 500
    sizes = [[rng.randrange(1, 20) for _ in range(4)] for _ in range(num_blocks)]
    bdm = analytic_bdm_from_block_sizes(sizes)
    repeats = 3 if small else 8
    num_reduce = 8

    def build_bucket(job):
        # Built once and shared by both runs: timsort is adaptive, so
        # the packed and tuple paths must sort the *same* permutation.
        bucket = []
        enumeration = job.enumeration
        for k, n in enumerate(enumeration.block_sizes):
            for x in range(n):
                for r_index in enumeration.relevant_ranges(k, x, job.spec):
                    bucket.append(
                        KeyValue(PairRangeKey(r_index, k, x), ("value", x))
                    )
        random.Random(SEED + 1).shuffle(bucket)
        return bucket

    shared_bucket: list = []

    def run(enabled):
        with packed_keys(enabled):
            job = PairRangeJob(bdm, ThresholdMatcher(), num_reduce)
        if not shared_bucket:
            shared_bucket.extend(build_bucket(job))
        bucket = shared_bucket

        def sort_group():
            return shuffle_bucket(job, bucket)

        def spill_drain():
            with ExternalShuffle(job, num_reduce, len(bucket) // 4) as spill:
                spill.add_records(bucket)
                return [len(b) for b in spill.buckets()]

        in_memory = best_of(sort_group, repeats)
        # Spilling hits the filesystem: median-of-N with a warm-up, not
        # best-of (see measure() — this section is where BENCH_3 logged
        # a spurious 0.90×).
        external = measure(spill_drain, max(3, repeats // 2))
        fingerprint = [(g.key, g.values) for g in sort_group()]
        return in_memory, external, fingerprint

    after, after_ext, fp_packed = run(True)
    before, before_ext, fp_tuple = run(False)
    assert fp_packed == fp_tuple  # byte-identical grouping
    result = {
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
        "external_before_s": before_ext["median_s"],
        "external_after_s": after_ext["median_s"],
        "external_speedup": before_ext["median_s"] / after_ext["median_s"],
        "external_before_spread": before_ext["spread"],
        "external_after_spread": after_ext["spread"],
        "external_runs": after_ext["runs"],
    }
    print(f"packed-key shuffle  before={before * 1e3:8.2f}ms  "
          f"after={after * 1e3:8.2f}ms  speedup={result['speedup']:.2f}x")
    print(f"  + spill-to-disk   before={result['external_before_s'] * 1e3:8.2f}ms  "
          f"after={result['external_after_s'] * 1e3:8.2f}ms  "
          f"speedup={result['external_speedup']:.2f}x  "
          f"(median of {result['external_runs']}, spread "
          f"{result['external_before_spread']:.0%}/"
          f"{result['external_after_spread']:.0%})")
    return result


# ---------------------------------------------------------------------------
# Micro: columnar batch kernel vs scalar pair loop
# ---------------------------------------------------------------------------


def bench_micro_batch_kernel(small: bool) -> dict:
    from repro.er.batch_kernel import TrianglePairs, active_numpy

    # One skewed reduce group, the batch kernel's target workload: a
    # dirty catalog block where most listings are verbatim repeats of a
    # small base set plus typo'd near-duplicates around them.  The
    # kernel packs the group once, settles repeat pairs through the
    # vectorized equality/length filters, and runs Myers once per
    # *distinct* surviving pair; the scalar loop pays a Python call and
    # a memo probe for every single pair.  Both use the pipeline's
    # default matcher configuration.
    n = 150 if small else 400
    rng = random.Random(SEED % 613)
    words = ["panasonic", "lumix", "camera", "digital", "zoom", "kit",
             "sony", "alpha", "lens", "black", "silver", "battery",
             "dmc", "fz", "hd", "travel", "pack", "bundle"]
    base = [" ".join(rng.choices(words, k=rng.randrange(2, 8)))
            for _ in range(max(10, n // 10))]
    titles = []
    for _ in range(n):
        if rng.random() < 0.75:
            titles.append(rng.choice(base))  # verbatim repeat
        else:
            chars = list(rng.choice(base))
            chars[rng.randrange(len(chars))] = rng.choice("abcdxyz ")
            titles.append("".join(chars))  # near-duplicate
    entities = [Entity(f"e{i}", {"title": t}) for i, t in enumerate(titles)]
    spec = TrianglePairs(n)
    repeats = 3 if small else 6

    def run_scalar():
        matcher = ThresholdMatcher("title", THRESHOLD)
        prepared = [matcher.prepare(e) for e in entities]
        match_prepared = matcher.match_prepared
        out = []
        for i, j in spec.iter_pairs():
            pair = match_prepared(prepared[i], prepared[j])
            if pair is not None:
                out.append(pair)
        return out

    def run_batched():
        matcher = ThresholdMatcher("title", THRESHOLD)
        prepared = [matcher.prepare(e) for e in entities]
        return matcher.match_batch(prepared, spec)

    fp = lambda pairs: [(p.id1, p.id2, p.similarity) for p in pairs]  # noqa: E731
    assert fp(run_scalar()) == fp(run_batched())  # byte-identical matches
    before = best_of(run_scalar, repeats)
    after = best_of(run_batched, repeats)
    result = {
        "entities": n,
        "pairs": spec.count,
        "numpy": active_numpy() is not None,
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
    }
    print(f"batch kernel        before={before * 1e3:8.2f}ms  "
          f"after={after * 1e3:8.2f}ms  speedup={result['speedup']:.2f}x  "
          f"(numpy={'yes' if result['numpy'] else 'no'})")
    return result


# ---------------------------------------------------------------------------
# Micro: batched Myers recurrence vs per-distinct scalar Myers
# ---------------------------------------------------------------------------


class _stdlib_kernel:
    """Temporarily blank the batch kernel's numpy handle, so
    ``score_pair_batch`` runs its pure-stdlib loop — the same distinct-
    pair collapse with one scalar Myers call per distinct pair, i.e.
    the configuration before the batched recurrence."""

    def __enter__(self):
        import repro.er.batch_kernel as bk

        self._bk = bk
        self._saved = bk._numpy
        bk._numpy = None

    def __exit__(self, *exc):
        self._bk._numpy = self._saved


def bench_micro_myers_batch(small: bool) -> dict:
    from repro.er.batch_kernel import (
        TrianglePairs,
        active_numpy,
        score_pair_batch,
    )

    # A distinct-pair-heavy reduce group — the regime the batched Myers
    # recurrence targets.  Unlike the batch-kernel micro above (mostly
    # verbatim repeats that settle in the equality filter), here nearly
    # every entity is a typo'd variant, so the surviving work is tens of
    # thousands of *distinct* Myers calls.  Before = the batch kernel's
    # stdlib loop (PR 8's per-distinct scalar Myers); after = the same
    # call routing survivor lanes through ``myers_distance_lanes`` (the
    # two coincide without numpy).  Scores must be identical either way.
    n = 150 if small else 400
    rng = random.Random(SEED % 821)
    words = ["widget", "gadget", "sprocket", "flange", "gizmo",
             "doohickey", "panasonic", "lumix", "camera", "zoom"]
    base = [
        " ".join(rng.choices(words, k=5)) + f" #{i:03d}"
        for i in range(max(8, n // 10))
    ]

    def typo(s):
        k = rng.randrange(len(s))
        op = rng.randrange(3)
        if op == 0:
            return s[:k] + rng.choice("abcdexyz ") + s[k:]
        if op == 1:
            return s[:k] + s[k + 1:]
        return s[:k] + rng.choice("abcdexyz ") + s[k + 1:]

    texts = []
    for i in range(n):
        s = base[i % len(base)]
        for _ in range(rng.randrange(3)):
            s = typo(s)
        texts.append(s)
    spec = TrianglePairs(n)
    repeats = 2 if small else 5

    def run(batched_myers: bool):
        if batched_myers:
            return [float(s) for s in score_pair_batch(texts, spec, THRESHOLD)]
        with _stdlib_kernel():
            return score_pair_batch(texts, spec, THRESHOLD)

    functional_ok = run(False) == run(True)
    before = best_of(lambda: run(False), repeats)
    after = best_of(lambda: run(True), repeats)
    result = {
        "entities": n,
        "pairs": spec.count,
        "numpy": active_numpy() is not None,
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
        "functional_ok": functional_ok,
    }
    marker = "" if functional_ok else "  ** FUNCTIONAL MISMATCH **"
    print(f"batched Myers       before={before * 1e3:8.2f}ms  "
          f"after={after * 1e3:8.2f}ms  speedup={result['speedup']:.2f}x  "
          f"(numpy={'yes' if result['numpy'] else 'no'}){marker}")
    return result


# ---------------------------------------------------------------------------
# Micro: columnar shard loading vs CSV parsing
# ---------------------------------------------------------------------------


def bench_micro_columnar_load(small: bool) -> dict:
    import tempfile

    from repro.datasets.loaders import save_entities_csv
    from repro.io import ColumnarShardSource, CsvShardSource, write_columnar

    n = 1_000 if small else 10_000
    num_shards = 4
    entities = generate_products(n, seed=SEED % 1009)
    repeats = 3 if small else 6

    with tempfile.TemporaryDirectory(prefix="repro-er-bench-") as tmp:
        tmp_path = Path(tmp)
        csv_path = tmp_path / "entities.csv"
        save_entities_csv(entities, csv_path)
        cols_dir = write_columnar(
            CsvShardSource(csv_path, num_shards=num_shards), tmp_path / "cols"
        )

        def load_csv():
            return list(
                CsvShardSource(csv_path, num_shards=num_shards).iter_records()
            )

        def load_columnar():
            source = ColumnarShardSource(cols_dir)
            try:
                return list(source.iter_records())
            finally:
                source.close()

        assert load_csv() == load_columnar()  # byte-identical entities
        # Page-cache warm-up: read every byte of both representations
        # untimed before either timed sequence.  measure()'s own warm-up
        # only touches the *current* loader's files, so the first timed
        # section would otherwise race the other's cold pages (the
        # second ingredient, GC isolation per timed run, lives in
        # measure() itself — both fed BENCH_8's 0.64 after_spread).
        for path in [csv_path, *sorted(cols_dir.rglob("*"))]:
            if path.is_file():
                path.read_bytes()
        before = measure(load_csv, repeats)
        after = measure(load_columnar, repeats)

    result = {
        "entities": n,
        "num_shards": num_shards,
        "before_s": before["median_s"],
        "after_s": after["median_s"],
        "speedup": before["median_s"] / after["median_s"],
        "before_spread": before["spread"],
        "after_spread": after["spread"],
    }
    print(f"columnar load       before={result['before_s'] * 1e3:8.2f}ms  "
          f"after={result['after_s'] * 1e3:8.2f}ms  "
          f"speedup={result['speedup']:.2f}x")
    return result


# ---------------------------------------------------------------------------
# End-to-end: full pipelines, legacy vs optimised configuration
# ---------------------------------------------------------------------------


class _ReferenceSimilarity:
    """Picklable pre-optimisation scoring function (see equivalence tests)."""

    def __init__(self, threshold: float):
        self.threshold = threshold

    def __call__(self, a: str, b: str) -> float:
        return levenshtein_similarity_bounded_reference(a, b, self.threshold)


def _e2e_fingerprint(result) -> tuple:
    return (
        tuple((p.id1, p.id2, p.similarity) for p in result.matches),
        result.job2.counters.as_dict(),
        tuple(result.reduce_comparisons()),
    )


def bench_e2e(strategy: str, num_entities: int, small: bool) -> dict:
    entities = generate_products(num_entities, seed=SEED % 1000)
    m, r = (3, 5) if small else (4, 10)

    def run(legacy: bool):
        if legacy:
            matcher = ThresholdMatcher(
                "title", THRESHOLD, _ReferenceSimilarity(THRESHOLD),
                prepared=False, memoize=0,
            )
        else:
            matcher = ThresholdMatcher("title", THRESHOLD)
        with packed_keys(not legacy):
            pipeline = ERPipeline(
                strategy,
                PrefixBlocking("title"),
                matcher,
                num_map_tasks=m,
                num_reduce_tasks=r,
            )
            return pipeline.run(entities)

    start = time.perf_counter()
    new_result = run(legacy=False)
    after = time.perf_counter() - start
    start = time.perf_counter()
    old_result = run(legacy=True)
    before = time.perf_counter() - start

    functional_ok = _e2e_fingerprint(new_result) == _e2e_fingerprint(old_result)
    result = {
        "entities": num_entities,
        "num_map_tasks": m,
        "num_reduce_tasks": r,
        "comparisons": new_result.total_comparisons(),
        "matches": len(new_result.matches),
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
        "functional_ok": functional_ok,
    }
    marker = "" if functional_ok else "  ** FUNCTIONAL MISMATCH **"
    print(f"e2e {strategy:<11}     before={before:8.3f}s   "
          f"after={after:8.3f}s   speedup={result['speedup']:.2f}x{marker}")
    return result


# ---------------------------------------------------------------------------
# End-to-end: batched reduce loops vs scalar pair loops
# ---------------------------------------------------------------------------


def _dirty_feed(num_base: int, repeat_factor: float, seed: int) -> list[Entity]:
    """A catalog-aggregation corpus: base listings plus verbatim repeats.

    Aggregating multiple feeds of the same catalog re-ingests the same
    listing verbatim under a fresh id — the duplicate-heavy regime the
    paper's dirty DS2 corpus exhibits and the batch kernel targets
    (repeat pairs settle in the vectorized equality filter and each
    distinct near-duplicate pair runs Myers once per group).
    """
    base = generate_products(num_base, seed=seed)
    rng = random.Random(seed + 1)
    out = list(base)
    next_id = len(base)
    for _ in range(int(num_base * repeat_factor)):
        entity = rng.choice(base)
        out.append(Entity(f"p{next_id}", dict(entity.attributes), entity.source))
        next_id += 1
    rng.shuffle(out)
    return out


def bench_e2e_batched(strategy: str, num_base: int, small: bool) -> dict:
    entities = _dirty_feed(num_base, 1.0, SEED % 1000)
    m, r = (3, 5) if small else (4, 10)

    def run(batch: bool):
        pipeline = ERPipeline(
            strategy,
            PrefixBlocking("title"),
            ThresholdMatcher("title", THRESHOLD),
            num_map_tasks=m,
            num_reduce_tasks=r,
            batch_kernel=batch,
        )
        return pipeline.run(entities)

    repeats = 1 if small else 2
    scalar_result = run(batch=False)
    batched_result = run(batch=True)
    before = best_of(lambda: run(batch=False), repeats)
    after = best_of(lambda: run(batch=True), repeats)

    functional_ok = (
        _e2e_fingerprint(batched_result) == _e2e_fingerprint(scalar_result)
    )
    result = {
        "entities": len(entities),
        "num_map_tasks": m,
        "num_reduce_tasks": r,
        "comparisons": batched_result.total_comparisons(),
        "matches": len(batched_result.matches),
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
        "functional_ok": functional_ok,
    }
    marker = "" if functional_ok else "  ** FUNCTIONAL MISMATCH **"
    print(f"e2e batched {strategy:<11} before={before:8.3f}s   "
          f"after={after:8.3f}s   speedup={result['speedup']:.2f}x{marker}")
    return result


def _noisy_feed(num_base: int, typo_factor: float, seed: int) -> list[Entity]:
    """A corrupted catalog corpus: base listings plus *typo'd* copies.

    Where :func:`_dirty_feed` re-ingests listings verbatim (repeat pairs
    settle in the equality filter), OCR'd or hand-keyed feeds corrupt a
    few characters per copy — so most pairs inside a block survive to
    the Myers kernel as *distinct* near-duplicates, the regime the
    batched recurrence targets.
    """
    base = generate_products(num_base, seed=seed)
    rng = random.Random(seed + 2)
    out = list(base)
    next_id = len(base)
    for _ in range(int(num_base * typo_factor)):
        entity = rng.choice(base)
        attributes = dict(entity.attributes)
        title = attributes.get("title", "")
        if title:
            chars = list(title)
            for _ in range(rng.randrange(1, 4)):
                pos = rng.randrange(len(chars))
                chars[pos] = rng.choice("abcdexyz ")
            attributes["title"] = "".join(chars)
        out.append(Entity(f"p{next_id}", attributes, entity.source))
        next_id += 1
    rng.shuffle(out)
    return out


def bench_e2e_myers(strategy: str, num_base: int, small: bool) -> dict:
    """End-to-end on the near-duplicate-heavy corpus: batch kernel both
    ways, its per-distinct scalar Myers loop (before) vs the batched
    recurrence (after)."""
    entities = _noisy_feed(num_base, 1.0, SEED % 1000)
    m, r = (3, 5) if small else (4, 10)

    def run(batched_myers: bool):
        pipeline = ERPipeline(
            strategy,
            PrefixBlocking("title"),
            ThresholdMatcher("title", THRESHOLD),
            num_map_tasks=m,
            num_reduce_tasks=r,
            batch_kernel=True,
        )
        if batched_myers:
            return pipeline.run(entities)
        with _stdlib_kernel():
            return pipeline.run(entities)

    repeats = 1 if small else 2
    scalar_result = run(False)
    batched_result = run(True)
    before = best_of(lambda: run(False), repeats)
    after = best_of(lambda: run(True), repeats)

    functional_ok = (
        _e2e_fingerprint(batched_result) == _e2e_fingerprint(scalar_result)
    )
    result = {
        "entities": len(entities),
        "num_map_tasks": m,
        "num_reduce_tasks": r,
        "comparisons": batched_result.total_comparisons(),
        "matches": len(batched_result.matches),
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
        "functional_ok": functional_ok,
    }
    marker = "" if functional_ok else "  ** FUNCTIONAL MISMATCH **"
    print(f"e2e myers   {strategy:<11} before={before:8.3f}s   "
          f"after={after:8.3f}s   speedup={result['speedup']:.2f}x{marker}")
    return result


# ---------------------------------------------------------------------------
# Figures: the paper's scalability sweeps (analytic, full scale)
# ---------------------------------------------------------------------------


def bench_figures(small: bool) -> dict:
    from repro.analysis.experiments import sweep_nodes
    from repro.datasets.generators import DS1_PROFILE, DS2_PROFILE

    strategies = ["basic", "blocksplit", "pairrange"]
    figures = {}
    for fig, profile, nodes in (
        ("fig13_ds1", DS1_PROFILE, [1, 2, 5, 10] if small else [1, 2, 5, 10, 20, 40, 100]),
        ("fig14_ds2", DS2_PROFILE, [10] if small else [10, 20, 40, 100]),
    ):
        sizes = zipf_block_sizes(
            profile.num_entities, profile.num_blocks, profile.zipf_exponent
        )
        start = time.perf_counter()
        results = sweep_nodes(
            strategies, nodes, list(sizes), comparison_noise_sigma=0.25
        )
        elapsed = time.perf_counter() - start
        times = {
            name: [round(results[n][name].execution_time, 1) for n in nodes]
            for name in strategies
        }
        figures[fig] = {
            "nodes": nodes,
            "execution_times_s": times,
            "planning_wall_clock_s": elapsed,
        }
        print(f"{fig}: planned {len(nodes)} cluster sizes × "
              f"{len(strategies)} strategies in {elapsed:.2f}s wall-clock")
    return figures


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--small", action="store_true",
                        help="CI smoke sizes (seconds, not minutes)")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"output path (default: BENCH_{BENCH_NUMBER}.json)")
    parser.add_argument("--skip-figures", action="store_true",
                        help="skip the fig13/fig14 analytic sweeps")
    parser.add_argument("--assert-speedups", action="store_true",
                        help="fail if the headline speedup targets are missed")
    args = parser.parse_args(argv)

    random.seed(SEED)
    output = args.output or REPO_ROOT / f"BENCH_{BENCH_NUMBER}.json"

    machine = {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "seed": SEED,
        "mode": "small" if args.small else "full",
    }
    print(f"perf harness — bench {BENCH_NUMBER}  "
          f"(cpus={machine['cpu_count']}, python={machine['python']}, "
          f"mode={machine['mode']})")

    report: dict = {"bench": BENCH_NUMBER, "machine": machine}

    section("Micro kernels (before = legacy path, after = optimised path)")
    report["micro_similarity"] = bench_micro_similarity(args.small)
    report["micro_matcher"] = bench_micro_matcher(args.small)
    report["micro_shuffle"] = bench_micro_shuffle(args.small)

    section("Micro: batch kernel, batched Myers and columnar shards")
    report["micro_batch_kernel"] = bench_micro_batch_kernel(args.small)
    report["micro_myers_batch"] = bench_micro_myers_batch(args.small)
    report["micro_columnar_load"] = bench_micro_columnar_load(args.small)

    section("End-to-end pipelines (serial backend, real matching)")
    n = 400 if args.small else 2500
    report["e2e"] = {
        "blocksplit": bench_e2e("blocksplit", n, args.small),
        "pairrange": bench_e2e("pairrange", n, args.small),
    }

    section("End-to-end batched reduce loops (dirty-feed corpus)")
    n_base = 300 if args.small else 1500
    report["e2e_batched"] = {
        "blocksplit": bench_e2e_batched("blocksplit", n_base, args.small),
        "pairrange": bench_e2e_batched("pairrange", n_base, args.small),
    }

    section("End-to-end batched Myers (near-duplicate-heavy corpus)")
    n_noisy = 300 if args.small else 1500
    report["e2e_myers"] = {
        "blocksplit": bench_e2e_myers("blocksplit", n_noisy, args.small),
        "pairrange": bench_e2e_myers("pairrange", n_noisy, args.small),
    }

    if not args.skip_figures:
        section("Paper scalability figures (analytic planning, full scale)")
        report["figures"] = bench_figures(args.small)

    functional_ok = all(
        e["functional_ok"]
        for group in (report["e2e"], report["e2e_batched"],
                      report["e2e_myers"])
        for e in group.values()
    ) and report["micro_myers_batch"]["functional_ok"]
    report["functional_ok"] = functional_ok

    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {output}")

    if not functional_ok:
        print("FUNCTIONAL ERROR: legacy and optimised paths disagree",
              file=sys.stderr)
        return 1
    if args.assert_speedups:
        micro = report["micro_similarity"]["speedup"]
        e2e_best = max(e["speedup"] for e in report["e2e"].values())
        batch_micro = report["micro_batch_kernel"]["speedup"]
        batch_e2e_best = max(
            e["speedup"] for e in report["e2e_batched"].values()
        )
        myers_micro = report["micro_myers_batch"]["speedup"]
        myers_numpy = report["micro_myers_batch"]["numpy"]
        if micro < 3.0:
            print(f"SPEEDUP MISS: similarity microbench {micro:.2f}x < 3x",
                  file=sys.stderr)
            return 1
        if e2e_best < 1.5:
            print(f"SPEEDUP MISS: best end-to-end {e2e_best:.2f}x < 1.5x",
                  file=sys.stderr)
            return 1
        if batch_micro < 2.0:
            print(f"SPEEDUP MISS: batch-kernel microbench "
                  f"{batch_micro:.2f}x < 2x", file=sys.stderr)
            return 1
        if batch_e2e_best < 1.5:
            print(f"SPEEDUP MISS: best batched end-to-end "
                  f"{batch_e2e_best:.2f}x < 1.5x", file=sys.stderr)
            return 1
        # The batched recurrence only exists on the numpy path; the
        # stdlib leg keeps the per-pair loop, so there is no ratio to
        # enforce there.
        if myers_numpy and myers_micro < 2.0:
            print(f"SPEEDUP MISS: batched-Myers microbench "
                  f"{myers_micro:.2f}x < 2x", file=sys.stderr)
            return 1
        print(f"speedup targets met: micro {micro:.2f}x (>=3x), "
              f"e2e {e2e_best:.2f}x (>=1.5x), "
              f"batch micro {batch_micro:.2f}x (>=2x), "
              f"batched e2e {batch_e2e_best:.2f}x (>=1.5x), "
              f"myers micro {myers_micro:.2f}x (>=2x numpy leg)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
