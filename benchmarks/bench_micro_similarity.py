"""Micro-benchmarks: similarity kernels.

Pair comparison dominates ER runtime (> 95 % in the paper's reduce
phase); these benches track the cost of a single comparison at the
calibration length and validate the bounded-early-exit speedup the
matcher relies on.
"""

from __future__ import annotations

import random

from repro.er.similarity import (
    jaro_winkler_similarity,
    levenshtein_similarity,
    levenshtein_similarity_bounded,
    levenshtein_similarity_bounded_reference,
    ngram_jaccard,
    similarity_at_least,
)


def _title_pairs(n=200, seed=3):
    rng = random.Random(seed)
    words = ["panasonic", "lumix", "camera", "digital", "zoom", "kit",
             "sony", "alpha", "lens", "black", "silver", "battery"]
    pairs = []
    for _ in range(n):
        a = " ".join(rng.choices(words, k=4))
        b = " ".join(rng.choices(words, k=4))
        pairs.append((a, b))
    return pairs


def test_levenshtein_similarity_throughput(benchmark):
    pairs = _title_pairs()

    def run():
        return sum(levenshtein_similarity(a, b) for a, b in pairs)

    total = benchmark(run)
    assert total >= 0


def test_levenshtein_bounded_faster_on_dissimilar(benchmark):
    pairs = [("a" * 30, "b" * 30)] * 200

    def run():
        return sum(levenshtein_similarity_bounded(a, b, 0.8) for a, b in pairs)

    total = benchmark(run)
    assert total == 0.0


def test_levenshtein_reference_kernel_throughput(benchmark):
    """The pre-PR-3 two-row DP — the baseline the bit-parallel kernel
    is measured against (``test_levenshtein_bounded_faster_on_dissimilar``
    and ``test_levenshtein_similarity_throughput`` in this file)."""
    pairs = _title_pairs()

    def run():
        return sum(
            levenshtein_similarity_bounded_reference(a, b, 0.8) for a, b in pairs
        )

    total = benchmark(run)
    assert total >= 0


def test_similarity_at_least_throughput(benchmark):
    """The boolean fast path: length filter + bounded kernel, no score."""
    pairs = _title_pairs()
    benchmark(lambda: sum(similarity_at_least(a, b, 0.8) for a, b in pairs))


def test_jaro_winkler_throughput(benchmark):
    pairs = _title_pairs()
    benchmark(lambda: sum(jaro_winkler_similarity(a, b) for a, b in pairs))


def test_ngram_jaccard_throughput(benchmark):
    pairs = _title_pairs()
    benchmark(lambda: sum(ngram_jaccard(a, b) for a, b in pairs))
